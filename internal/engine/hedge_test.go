package engine_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/trace"
)

// hedgeFixture compiles the shared pair program and returns the compiled
// program, a task input, and the fault-free baseline output.
func hedgeFixture(t *testing.T, records int) (*Compiled, []byte, []byte) {
	t.Helper()
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	input := encode(t, c, records)
	return c, input, baselineOut(t, c, input)
}

// TestHedgeHeapWinsOverStraggler pins the headline behavior: a native
// attempt stalled far beyond the hedge delay loses to the concurrently
// launched heap attempt, the task returns the heap result well before
// the stall would have elapsed, and the output is byte-identical to the
// unhedged baseline.
func TestHedgeHeapWinsOverStraggler(t *testing.T) {
	c, input, want := hedgeFixture(t, 25)
	const stall = 30 * time.Second // far beyond any test runtime
	tr := trace.New()
	e := &Executor{C: c, Mode: Gerenuk, VerifyInputs: true, Trace: tr,
		HedgeAfter: time.Millisecond}
	start := time.Now()
	res, err := e.RunTask(TaskSpec{
		Name: "straggler", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
		Faults:      &faults.Plan{NativeDelay: stall},
	})
	if err != nil {
		t.Fatalf("hedged task failed: %v", err)
	}
	if time.Since(start) >= stall {
		t.Fatalf("hedge did not preempt the straggler stall")
	}
	if !bytes.Equal(res.Out, want) {
		t.Fatalf("hedged output differs from fault-free baseline")
	}
	if res.Stats.Hedges != 1 || res.Stats.HedgeWins != 1 {
		t.Errorf("hedges = %d, wins = %d, want 1 and 1", res.Stats.Hedges, res.Stats.HedgeWins)
	}
	reg := tr.Registry()
	if v := reg.Counter("hedges_total").Value(); v != 1 {
		t.Errorf("hedges_total = %d, want 1", v)
	}
	if v := reg.Counter("hedge_wins_total").Value(); v != 1 {
		t.Errorf("hedge_wins_total = %d, want 1", v)
	}
	if v := reg.Counter("hedge_cancels_total").Value(); v != 1 {
		t.Errorf("hedge_cancels_total = %d, want 1 (canceled straggler)", v)
	}
	if v := reg.Counter("aborts_total").Value(); v != 0 {
		t.Errorf("aborts_total = %d, want 0 (a canceled straggler is not an abort)", v)
	}
}

// TestHedgeNativeWinsFast: with a hedge delay no fast task ever reaches,
// hedging must be a pure no-op — no hedge launches, no extra stats.
func TestHedgeNativeWinsFast(t *testing.T) {
	c, input, want := hedgeFixture(t, 25)
	e := &Executor{C: c, Mode: Gerenuk, VerifyInputs: true,
		HedgeAfter: time.Hour}
	res, err := e.RunTask(TaskSpec{
		Name: "fast", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Out, want) {
		t.Fatalf("output differs from baseline")
	}
	if res.Stats.Hedges != 0 || res.Stats.HedgeWins != 0 {
		t.Errorf("hedges = %d, wins = %d, want 0 and 0", res.Stats.Hedges, res.Stats.HedgeWins)
	}
}

// TestHedgeDelayResolution pins that the hedge delay is exactly
// HedgeAfter, whatever the executor's tracer has observed: a registry
// full of nanosecond task latencies must not arm an earlier hedge for a
// stalled native attempt, so a task hedges the same with tracing on or
// off, and a zero delay is serial recovery.
func TestHedgeDelayResolution(t *testing.T) {
	c, input, want := hedgeFixture(t, 25)
	tr := trace.New()
	hist := tr.Registry().Histogram("task_latency_ns", trace.LatencyBuckets()...)
	for i := 0; i < 64; i++ {
		hist.Observe(1)
	}
	for _, after := range []time.Duration{0, time.Hour} {
		e := &Executor{C: c, Mode: Gerenuk, Trace: tr, HedgeAfter: after}
		res, err := e.RunTask(TaskSpec{
			Name: "slow", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
			Faults:      &faults.Plan{NativeDelay: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("after %v: %v", after, err)
		}
		if !bytes.Equal(res.Out, want) {
			t.Fatalf("after %v: output differs from baseline", after)
		}
		if res.Stats.Hedges != 0 {
			t.Errorf("after %v: %d hedges launched inside the delay", after, res.Stats.Hedges)
		}
	}
}

// TestHedgeRaceEitherWinner races the two attempts with an immediate
// hedge delay so either side can win, repeatedly. Whoever wins, the
// output must equal the fault-free baseline — the differential property
// that makes hedging safe to enable everywhere. Run under -race this
// also shakes out sharing between the concurrent attempts.
func TestHedgeRaceEitherWinner(t *testing.T) {
	c, input, want := hedgeFixture(t, 25)
	for i := 0; i < 20; i++ {
		e := &Executor{C: c, Mode: Gerenuk, VerifyInputs: true,
			HedgeAfter: time.Nanosecond}
		res, err := e.RunTask(TaskSpec{
			Name: "race", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !bytes.Equal(res.Out, want) {
			t.Fatalf("run %d: output differs from baseline", i)
		}
	}
}

// TestHedgeAbortFallsBackToRunningHedge: when the native attempt aborts
// after the hedge launched, the already-running heap attempt serves as
// the fallback (no second heap run) and abort accounting still fires.
func TestHedgeAbortFallsBackToRunningHedge(t *testing.T) {
	c, input, want := hedgeFixture(t, 25)
	tr := trace.New()
	e := &Executor{C: c, Mode: Gerenuk, VerifyInputs: true, Trace: tr,
		HedgeAfter: time.Nanosecond}
	res, err := e.RunTask(TaskSpec{
		Name: "abort-hedged", Driver: "incStage",
		Invocations:       []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
		AbortAfterRecords: 5,
	})
	if err != nil {
		t.Fatalf("hedged abort did not recover: %v", err)
	}
	if !bytes.Equal(res.Out, want) {
		t.Fatalf("recovered output differs from baseline")
	}
	if res.Stats.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", res.Stats.Aborts)
	}
	// One whole-task attempt, exactly like the unhedged abort-recover path.
	if res.Stats.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", res.Stats.Attempts)
	}
	if v := tr.Registry().Counter("aborts_total").Value(); v != 1 {
		t.Errorf("aborts_total = %d, want 1", v)
	}
}

// TestBreakerConcurrentAllowRecord exercises Allow/Record/Open from many
// goroutines; run with -race it pins the breaker's thread safety.
func TestBreakerConcurrentAllowRecord(t *testing.T) {
	b := &Breaker{Threshold: 2}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow("d") {
					b.Record("d", (g+i)%3 == 0)
				}
				b.Open("d")
			}
		}(g)
	}
	wg.Wait()
}

// ---- pool accounting bugfixes ----

// TestJobResultWallPopulated: regression for Wall being documented but
// never measured — Pool.Run must stamp the job's wall-clock time.
func TestJobResultWallPopulated(t *testing.T) {
	c, input, _ := hedgeFixture(t, 10)
	pool := &Pool{Workers: 2}
	job, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk}
	}, []TaskSpec{
		{Name: "a", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}}},
		{Name: "b", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Wall.Total <= 0 {
		t.Fatalf("job.Wall.Total = %v, want > 0", job.Wall.Total)
	}
}

// TestPartialJobResultOnFailure: regression for Run returning a nil
// JobResult alongside the JobError — the successful tasks' outputs,
// stats, and the wall time must survive a partial failure.
func TestPartialJobResultOnFailure(t *testing.T) {
	c, input, want := hedgeFixture(t, 10)
	specs := make([]TaskSpec, 3)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "t", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
		}
	}
	specs[1].Faults = &faults.Plan{TransientFailures: 99}
	pool := &Pool{Workers: 1, MaxAttempts: 2}
	job, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk}
	}, specs)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %v", err)
	}
	if job == nil {
		t.Fatalf("partial JobResult is nil alongside the JobError")
	}
	if len(job.Outputs) != 2 {
		t.Fatalf("partial outputs = %d, want 2", len(job.Outputs))
	}
	for i, out := range job.Outputs {
		if !bytes.Equal(out, want) {
			t.Errorf("partial output %d differs from baseline", i)
		}
	}
	if job.Stats.Attempts == 0 {
		t.Errorf("partial job.Stats empty; failed attempts must stay accounted")
	}
	if job.Wall.Total <= 0 {
		t.Errorf("partial job.Wall.Total = %v, want > 0", job.Wall.Total)
	}
}
