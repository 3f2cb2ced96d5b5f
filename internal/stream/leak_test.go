package stream

import (
	"os"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
)

// A run that fails while windows are still open — here window 0's fetch
// exhausts its retries while the sliding windows behind it hold synced
// blocks — must tear those windows down like a canceled run does: no
// spill run left in SpillDir, no block left in the store.
func TestFailedRunLeaksNothing(t *testing.T) {
	spec, err := App("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		App: spec, Mode: engine.Gerenuk, Workers: 2, Reducers: 2,
		Seed: 7, Interval: time.Millisecond, CutBy: Cut{Count: 3},
		WindowBy: Window{Size: 8 * time.Millisecond, Slide: 4 * time.Millisecond}, Windows: 4,
		Injector: &faults.Injector{Seed: 1, FetchFailRate: 1, FetchFails: 99},
	}
	cfg.Shuffle.MemoryBudget, cfg.Shuffle.SpillDir = 1, dir // every record spills
	r := newRunner(cfg)
	if err := r.run(); err == nil {
		t.Fatal("run succeeded with every fetch failing")
	}
	if r.res.Batches == 0 || len(r.res.Windows) != 0 {
		t.Fatalf("run failed after %d batches and %d windows; want the first window close to fail",
			r.res.Batches, len(r.res.Windows))
	}
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
}
