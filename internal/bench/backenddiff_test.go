package bench

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/trace"
)

// backendDiffPlans are the fault environments the backend differential
// runs under: clean, the abort-heavy chaos plan (panics, wild reads,
// OOMs — the guard-failure → deopt paths), and the durable-recovery
// plan (replica loss, kills, checkpoint corruption). A fresh injector
// per run keeps the deterministic plans independent across backends.
var backendDiffPlans = []struct {
	name string
	mk   func() *faults.Injector
}{
	{"clean", func() *faults.Injector { return nil }},
	{"chaos", func() *faults.Injector { return faults.Chaos(7) }},
	{"recovery-chaos", func() *faults.Injector { return faults.RecoveryChaos(7) }},
}

// TestCompiledBackendDifferential is the soundness proof for the
// closure-compiled backend: for every application in both drivers,
// under every fault plan, the compiled backend, the interpreter
// backend, and the pure-heap Baseline mode produce byte-identical
// output. Run under -race in CI this also covers the compiled closures'
// interaction with hedging and recovery concurrency.
func TestCompiledBackendDifferential(t *testing.T) {
	apps := allApps()
	for _, app := range apps {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for _, plan := range backendDiffPlans {
				cfg := Quick()
				cfg.Injector = plan.mk()
				heapRun, err := RunApp(app, cfg, engine.Baseline)
				if err != nil {
					t.Fatalf("%s baseline: %v", plan.name, err)
				}

				cfg = Quick()
				cfg.Injector = plan.mk()
				cfg.Backend = engine.BackendInterp
				interpRun, err := RunApp(app, cfg, engine.Gerenuk)
				if err != nil {
					t.Fatalf("%s gerenuk/interp: %v", plan.name, err)
				}

				cfg = Quick()
				cfg.Injector = plan.mk()
				cfg.Backend = engine.BackendCompiled
				compiledRun, err := RunApp(app, cfg, engine.Gerenuk)
				if err != nil {
					t.Fatalf("%s gerenuk/compiled: %v", plan.name, err)
				}

				compiledOut, interpOut, heapOut := compiledRun.Out, interpRun.Out, heapRun.Out
				if !bytes.Equal(compiledOut, interpOut) {
					t.Errorf("%s: compiled output differs from interp (%d vs %d bytes)",
						plan.name, len(compiledOut), len(interpOut))
				}
				if !bytes.Equal(compiledOut, heapOut) {
					t.Errorf("%s: compiled output differs from baseline heap (%d vs %d bytes)",
						plan.name, len(compiledOut), len(heapOut))
				}
			}
		})
	}
}

// TestCompiledBackendDeoptCounters pins the deopt accounting: a chaos
// run (wild reads and panics in native attempts force guard failures)
// on the compiled backend must both compile drivers (compile_total > 0)
// and record at least one deoptimization (deopt_total > 0), and still
// produce output identical to the clean baseline.
func TestCompiledBackendDeoptCounters(t *testing.T) {
	want, err := RunApp("PR", Quick(), engine.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.Injector = faults.Chaos(42)
	cfg.Backend = engine.BackendCompiled
	cfg.Trace = trace.New()
	got, err := RunApp("PR", cfg, engine.Gerenuk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Out, want.Out) {
		t.Fatalf("chaos compiled output differs from clean baseline")
	}
	snap := cfg.Trace.Registry().Snapshot()
	if snap.Counters["compile_total"] == 0 {
		t.Errorf("compile_total = 0, want > 0 (counters: %v)", snap.Counters)
	}
	if snap.Counters["deopt_total"] == 0 {
		t.Errorf("deopt_total = 0, want > 0 (counters: %v)", snap.Counters)
	}
}
