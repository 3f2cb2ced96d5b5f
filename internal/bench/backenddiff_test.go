package bench

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
)

// backendVariants is the backend differential's table: under each fault
// plan — clean, the abort-heavy chaos plan (panics, wild reads, OOMs:
// the guard-failure → deopt paths) and the durable-recovery plan
// (replica loss, kills, checkpoint corruption) — the pure-heap Baseline
// run is the reference, and Gerenuk on the interpreter and on the
// closure-compiled backend must equal it. A fresh injector per run keeps
// the deterministic plans independent across backends.
var backendVariants = func() []Variant {
	var vs []Variant
	for _, plan := range []struct {
		name string
		mk   func() *faults.Injector
	}{
		{"clean", func() *faults.Injector { return nil }},
		{"chaos", func() *faults.Injector { return faults.Chaos(7) }},
		{"recovery-chaos", func() *faults.Injector { return faults.RecoveryChaos(7) }},
	} {
		vs = append(vs, Variant{Name: plan.name, Only: mode(engine.Baseline),
			Mutate: func(c *Config) { c.Injector = plan.mk() }})
		for _, backend := range []engine.Backend{engine.BackendInterp, engine.BackendCompiled} {
			vs = append(vs, Variant{Name: plan.name + "/" + backend.String(), Only: mode(engine.Gerenuk), Ref: plan.name,
				Mutate: func(c *Config) { c.Injector, c.Backend = plan.mk(), backend }})
		}
	}
	return vs
}()

// TestCompiledBackendDifferential is the soundness proof for the
// closure-compiled backend: for every application in both drivers,
// under every fault plan, the compiled backend, the interpreter
// backend, and the pure-heap Baseline mode produce byte-identical
// output. Run under -race in CI this also covers the compiled closures'
// interaction with hedging and recovery concurrency.
func TestCompiledBackendDifferential(t *testing.T) {
	for _, app := range allApps() {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			if _, err := (Matrix{Apps: []string{app}, Variants: backendVariants}).Run(Quick()); err != nil {
				t.Fatal(err)
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
	if _, err := (Matrix{Apps: []string{"PR"}, Counters: true, Variants: deoptVariants}).Run(Quick()); err != nil {
		t.Fatal(err)
	}
}

// deoptVariants judges a compiled chaos run against the clean baseline
// and holds it to compiling drivers and deopting.
var deoptVariants = []Variant{
	{Name: "clean", Only: mode(engine.Baseline)},
	{Name: "chaos/compiled", Only: mode(engine.Gerenuk), Ref: "clean",
		Mutate: func(c *Config) { c.Injector, c.Backend = faults.Chaos(42), engine.BackendCompiled },
		Check:  func(c *Cell) error { return ticked([]*Cell{c}, "compile_total", "deopt_total") }},
}
