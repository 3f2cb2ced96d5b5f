package bench

import (
	"fmt"
	"testing"
	"time"
)

// TestStreamCheckQuick runs the streaming verification pass at test
// scale: both streaming apps, both modes, streamed/chaos/crash-resumed
// window outputs byte-equal to the one-shot batch reference.
func TestStreamCheckQuick(t *testing.T) {
	res, err := StreamCheck(Quick())
	if err != nil {
		t.Fatalf("stream check failed: %v\n%s", err, res.Render())
	}
	if res.Checks["equal"] != 1 {
		t.Error("stream outputs diverged")
	}
	for _, check := range []string{"batches", "window_resumes"} {
		if res.Checks[check] == 0 {
			t.Errorf("check %q = 0", check)
		}
	}
}

// TestStreamReportQuick checks the throughput report (gerenukbench
// -stream) carries records, batches, windows, throughput and latency
// quantiles for every (app, mode).
func TestStreamReportQuick(t *testing.T) {
	res, err := StreamBench(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("report has %d rows, want 4", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		app, mode := row[0], row[1]
		for i, col := range []string{"records", "batches", "windows"} {
			if row[2+i] == "0" {
				t.Errorf("%s/%s: %s = 0", app, mode, col)
			}
		}
		if res.Checks[fmt.Sprintf("%s_%s_records_per_sec", app, mode)] <= 0 {
			t.Errorf("%s/%s: missing throughput", app, mode)
		}
		if p99, err := time.ParseDuration(row[7]); err != nil || p99 <= 0 {
			t.Errorf("%s/%s: batch p99 %q, want a positive duration", app, mode, row[7])
		}
	}
}
