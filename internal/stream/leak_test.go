package stream

import (
	"os"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/recovery"
)

// A run that stops while windows are still open must leave no spill run
// in SpillDir, no block in the store and no producer in a shared lineage
// registry: whether window 0's fetch
// exhausts its retries while the sliding windows behind it hold slot
// bytes, or the crash hook stops the run mid-window. The crash stop must
// get there without discarding recovery state — the store keeps every
// checkpoint Resume needs.
func TestFailedRunLeaksNothing(t *testing.T) {
	spec, err := App("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		setup func(cfg *Config)
		check func(t *testing.T, r *runner)
	}{
		{"fetch-exhausted", func(cfg *Config) {
			cfg.Injector = &faults.Injector{Seed: 1, FetchFailRate: 1, FetchFails: 99}
		}, func(t *testing.T, r *runner) {
			if r.res.Batches == 0 || len(r.res.Windows) != 0 {
				t.Fatalf("run failed after %d batches and %d windows; want the first window close to fail",
					r.res.Batches, len(r.res.Windows))
			}
		}},
		{"crash-mid-window", func(cfg *Config) {
			cfg.CrashAfterBatches = 2
			cfg.Checkpoints = recovery.NewCheckpointStore()
		}, func(t *testing.T, r *runner) {
			if len(r.open) == 0 {
				t.Fatal("crash left no open window — the case did not stop mid-window")
			}
			if _, ok, _ := r.ckpts.Load(r.cursorKey()); !ok {
				t.Error("cursor checkpoint gone after the crash")
			}
			for w, st := range r.open {
				if _, ok, _ := r.ckpts.Load(r.metaKey(w)); !ok {
					t.Errorf("window %d: meta checkpoint gone after the crash", w)
				}
				for m, segs := range st.segs {
					for b := range segs {
						if _, ok, _ := r.ckpts.Load(r.segKey(w, m, b)); !ok {
							t.Errorf("window %d: slot %d segment %d checkpoint gone after the crash", w, m, b)
						}
					}
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				App: spec, Mode: engine.Gerenuk, Workers: 2, Reducers: 2,
				Seed: 7, Interval: time.Millisecond, CutBy: Cut{Count: 3},
				WindowBy: Window{Size: 8 * time.Millisecond, Slide: 4 * time.Millisecond}, Windows: 4,
			}
			cfg.Shuffle.MemoryBudget, cfg.Shuffle.SpillDir = 1, dir // every record spills
			cfg.JobID, cfg.Lineage = "leaky-stream", recovery.NewLineage()
			tc.setup(&cfg)
			r := newRunner(cfg)
			if err := r.run(); err == nil {
				t.Fatal("run succeeded")
			}
			tc.check(t, r)
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("%d spill files left in SpillDir", len(left))
			}
			if n := r.rt.LiveBlocks(); n != 0 {
				t.Errorf("%d blocks left in the store", n)
			}
			if n := cfg.Lineage.Len(); n != 0 {
				t.Errorf("%d lineage producers left in the shared registry", n)
			}
		})
	}
}
