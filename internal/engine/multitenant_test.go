package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	. "repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/trace"
)

// Driver names repeat across jobs (every PageRank runs "contribStage"),
// so a service-wide breaker keyed only by driver would let one tenant's
// aborts de-speculate every tenant. Scoped views must isolate the
// (tenant, driver) state while sharing configuration.
func TestBreakerScopedIsolation(t *testing.T) {
	root := &Breaker{Threshold: 2}
	alice := root.Scoped("alice")
	mallory := root.Scoped("mallory")

	const driver = "contribStage"
	// Mallory's tasks abort until her scope's breaker opens.
	mallory.Record(driver, true)
	mallory.Record(driver, true)
	if !mallory.Open(driver) {
		t.Fatal("mallory's breaker should be open after Threshold aborts")
	}
	if !mallory.Scoped("sub").Allow(driver) {
		// A nested scope is a fresh namespace, not a view of the parent's
		// entries.
		t.Fatal("nested scope inherited the parent scope's open state")
	}

	// Alice shares the same root and the same driver name, but her scope
	// must be untouched: speculation stays enabled.
	if alice.Open(driver) {
		t.Fatal("mallory's aborts opened alice's breaker")
	}
	if !alice.Allow(driver) {
		t.Fatal("alice's native path blocked by mallory's aborts")
	}
	if root.Open(driver) {
		t.Fatal("scoped aborts leaked into the root namespace")
	}

	// Alice's own outcomes drive only her scope.
	alice.Record(driver, true)
	alice.Record(driver, true)
	if !alice.Open(driver) || root.Open(driver) {
		t.Fatalf("alice open=%v root open=%v, want true/false",
			alice.Open(driver), root.Open(driver))
	}
	// Mallory recovering (successful probe) must not close alice's.
	mallory.Record(driver, false)
	if mallory.Open(driver) || !alice.Open(driver) {
		t.Fatalf("after mallory probe: mallory=%v alice=%v, want false/true",
			mallory.Open(driver), alice.Open(driver))
	}

	var nb *Breaker
	if nb.Scoped("x") != nil {
		t.Fatal("nil breaker Scoped must stay nil (always-allow)")
	}
}

// TestConcurrentJobsShareCompiledRace is the shared-state stress test:
// many concurrent jobs share one Compiled program (precompiled up
// front, per the sharing contract), one tracer and one breaker, across
// both execution backends, and every job's output must be
// byte-identical to a serial run. Run under -race this pins the
// compile-cache, tracer and breaker audit findings.
func TestConcurrentJobsShareCompiledRace(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	// The sharing contract: compile every driver before concurrent tasks
	// run, so no job mutates the IR program while another executes it.
	if err := c.Precompile("incStage"); err != nil {
		t.Fatal(err)
	}
	if !c.CanRunNative("incStage") {
		t.Fatal("precompiled driver not runnable natively")
	}

	tr := trace.New()
	breaker := &Breaker{Threshold: 3}
	breaker.EnsureTrace(tr)

	input := encode(t, c, 40)
	spec := TaskSpec{
		Name: "t", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
	}

	// Serial goldens, one per (backend, mode).
	type key struct {
		backend Backend
		mode    Mode
	}
	golden := map[key][]byte{}
	for _, backend := range []Backend{BackendCompiled, BackendInterp} {
		for _, mode := range []Mode{Baseline, Gerenuk} {
			e := &Executor{C: c, Mode: mode, Backend: backend,
				HeapCfg: heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20}}
			res, err := e.RunTask(spec)
			if err != nil {
				t.Fatalf("serial %v/%v: %v", backend, mode, err)
			}
			golden[key{backend, mode}] = res.Out
		}
	}

	const jobs = 12 // ≥8 concurrent jobs, mixed tenants/backends/modes
	tenants := []string{"alice", "bob", "mallory"}
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backend := BackendCompiled
			if i%2 == 1 {
				backend = BackendInterp
			}
			mode := Baseline
			if i%4 >= 2 {
				mode = Gerenuk
			}
			tenant := tenants[i%len(tenants)]
			e := &Executor{
				C: c, Mode: mode, Backend: backend,
				HeapCfg: heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20},
				Trace:   tr, Breaker: breaker.Scoped(tenant), Tenant: tenant,
			}
			res, err := e.RunTask(spec)
			if err != nil {
				errs <- fmt.Errorf("job %d (%v/%v): %v", i, backend, mode, err)
				return
			}
			if !bytes.Equal(res.Out, golden[key{backend, mode}]) {
				errs <- fmt.Errorf("job %d (%v/%v): output differs from serial run", i, backend, mode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Per-tenant task-latency series must have appeared in the shared
	// registry.
	snap := tr.Registry().Snapshot()
	for _, tenant := range tenants {
		name := trace.Name("task_latency_ns", "tenant", tenant)
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("missing %s in registry snapshot", name)
		}
	}
}
