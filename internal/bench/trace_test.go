package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// TestTraceSmoke runs one app end to end with a tracer attached and
// asserts the exported Chrome trace contains the span hierarchy the
// instrumentation promises: job and stage spans from the driver, task
// and attempt spans from the engine, per-record serde phase spans from
// the interpreter, and GC instants from the heap (one partition at the
// smallest heap so the young generation actually fills).
func TestTraceSmoke(t *testing.T) {
	tr := trace.New()
	cfg := sized(2, 2, 1, 2)
	cfg.Trace, cfg.HeapName = tr, "10GB"
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		if _, err := RunApp("PR", cfg, mode); err != nil {
			t.Fatalf("%v run: %v", mode, err)
		}
	}

	var buf bytes.Buffer
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var tf trace.ChromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	byCat := map[string]int{}
	names := map[string]int{}
	for _, e := range tf.TraceEvents {
		byCat[e.Cat]++
		names[e.Name]++
	}
	for _, cat := range []string{"job", "stage", "task", "attempt", "phase", "gc"} {
		if byCat[cat] == 0 {
			t.Errorf("no %q events in trace (have %v)", cat, byCat)
		}
	}
	for _, name := range []string{"deserialize", "serialize", "native-execute", "heap-execute"} {
		if names[name] == 0 {
			t.Errorf("no %q spans in trace", name)
		}
	}

	snap := tr.Registry().Snapshot()
	if h, ok := snap.Histograms["task_latency_ns"]; !ok || h.Count == 0 {
		t.Errorf("task_latency_ns histogram missing or empty: %+v", snap.Histograms)
	}
	if h, ok := snap.Histograms["gc_pause_ns"]; !ok || h.Count == 0 {
		t.Errorf("gc_pause_ns histogram missing or empty: %+v", snap.Histograms)
	}
}
