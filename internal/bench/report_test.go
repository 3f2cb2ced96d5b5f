package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// TestBuildBenchReport covers the -bench-json path: one spark and one
// hadoop app in both modes, schema-versioned records with positive wall
// times, engine classification, and counters isolated per run by
// snapshot deltas.
func TestBuildBenchReport(t *testing.T) {
	cfg := sized(1, 2, 2, 1)
	rep, err := BuildBenchReport(cfg, []string{"PR", "IUF"})
	if err != nil {
		t.Fatalf("BuildBenchReport: %v", err)
	}
	if rep.Schema != BenchJSONSchemaVersion {
		t.Fatalf("Schema = %d, want %d", rep.Schema, BenchJSONSchemaVersion)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("got %d runs, want 4 (2 apps x 2 modes)", len(rep.Runs))
	}
	wantEngine := map[string]string{"PR": "spark", "IUF": "hadoop"}
	for _, r := range rep.Runs {
		if r.Engine != wantEngine[r.App] {
			t.Errorf("%s: engine %q, want %q", r.App, r.Engine, wantEngine[r.App])
		}
		if r.WallNs <= 0 {
			t.Errorf("%s/%s: WallNs = %d, want > 0", r.App, r.Mode, r.WallNs)
		}
		if r.Breakdown.TotalNs <= 0 {
			t.Errorf("%s/%s: TotalNs = %d, want > 0", r.App, r.Mode, r.Breakdown.TotalNs)
		}
		// Counters are per-run deltas on a shared tracer: every run
		// shuffles data, so each record must report its own write volume
		// rather than the suite's cumulative count.
		if r.Counters["shuffle_bytes_written_total"] <= 0 {
			t.Errorf("%s/%s: shuffle_bytes_written_total delta = %d, want > 0",
				r.App, r.Mode, r.Counters["shuffle_bytes_written_total"])
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchReportFile(path, rep); err != nil {
		t.Fatalf("WriteBenchReportFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report file not valid JSON: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Runs) != len(rep.Runs) {
		t.Fatalf("round trip mismatch: schema %d runs %d", back.Schema, len(back.Runs))
	}
}

// TestStageHookObservesEveryRun checks the suite-level hook fires for
// both engines with the stage's own (not yet folded) breakdown, and
// that mutations it makes propagate into the job totals the runner
// returns — the contract the GC attributor depends on.
func TestStageHookObservesEveryRun(t *testing.T) {
	var mu sync.Mutex
	type call struct {
		app, stage string
		mode       engine.Mode
	}
	var calls []call
	cfg := sized(1, 2, 2, 1)
	cfg.StageHook = func(app string, mode engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration) {
		mu.Lock()
		calls = append(calls, call{app, stage, mode})
		mu.Unlock()
		if wall <= 0 {
			t.Errorf("%s/%s: wall = %v, want > 0", app, stage, wall)
		}
		stats.GCAttributed += time.Microsecond
	}

	stats, err := RunApp("PR", cfg, engine.Gerenuk)
	if err != nil {
		t.Fatalf("RunApp(PR): %v", err)
	}
	sparkCalls := len(calls)
	if sparkCalls == 0 {
		t.Fatal("StageHook never fired for the spark app")
	}
	if want := time.Duration(sparkCalls) * time.Microsecond; stats.GCAttributed != want {
		t.Errorf("spark GCAttributed = %v, want %v (hook mutation must fold into totals)",
			stats.GCAttributed, want)
	}

	calls = nil
	stats, err = RunApp("IUF", cfg, engine.Gerenuk)
	if err != nil {
		t.Fatalf("RunApp(IUF): %v", err)
	}
	stages := map[string]bool{}
	for _, c := range calls {
		if c.app != "IUF" || c.mode != engine.Gerenuk {
			t.Errorf("unexpected hook call %+v", c)
		}
		stages[c.stage] = true
	}
	if !stages["map"] || !stages["reduce"] {
		t.Errorf("hadoop stages seen = %v, want map and reduce", stages)
	}
	if stats.GCAttributed != time.Duration(len(calls))*time.Microsecond {
		t.Errorf("hadoop GCAttributed = %v, want %v", stats.GCAttributed,
			time.Duration(len(calls))*time.Microsecond)
	}
}
