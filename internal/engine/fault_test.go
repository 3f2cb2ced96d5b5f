package engine_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/heap"
)

// baselineOut runs the task once, fault-free, on the heap path — the
// ground truth every recovered run must match byte for byte.
func baselineOut(t *testing.T, c *Compiled, input []byte) []byte {
	t.Helper()
	e := &Executor{C: c, Mode: Baseline}
	res, err := e.RunTask(TaskSpec{
		Name: "baseline", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
	})
	if err != nil {
		t.Fatalf("fault-free baseline: %v", err)
	}
	return res.Out
}

// TestFaultInjectionDifferential injects every fault class into a
// Gerenuk task — at the first, a middle, and the last record where the
// fault is record-targeted — and asserts the recovered output is
// byte-identical to a pure fault-free baseline run.
func TestFaultInjectionDifferential(t *testing.T) {
	const records = 25
	cases := []struct {
		name string
		spec func(s *TaskSpec)
		// expectations on the job stats after recovery
		aborts  int64
		panics  int64
		retries int64
	}{
		{name: "panic-first-record",
			spec:   func(s *TaskSpec) { s.Faults = &faults.Plan{PanicAtRecord: 1} },
			aborts: 1, panics: 1},
		{name: "panic-mid-record",
			spec:   func(s *TaskSpec) { s.Faults = &faults.Plan{PanicAtRecord: 12} },
			aborts: 1, panics: 1},
		{name: "panic-last-record",
			spec:   func(s *TaskSpec) { s.Faults = &faults.Plan{PanicAtRecord: records} },
			aborts: 1, panics: 1},
		{name: "wild-read-first-record",
			spec:   func(s *TaskSpec) { s.Faults = &faults.Plan{WildReadAtRecord: 1} },
			aborts: 1, panics: 1},
		{name: "wild-read-mid-record",
			spec:   func(s *TaskSpec) { s.Faults = &faults.Plan{WildReadAtRecord: 13} },
			aborts: 1, panics: 1},
		{name: "cooperative-abort",
			spec:   func(s *TaskSpec) { s.AbortAfterRecords = 5 },
			aborts: 1},
		{name: "transient-twice-then-ok",
			spec:    func(s *TaskSpec) { s.Faults = &faults.Plan{TransientFailures: 2} },
			retries: 2},
		{name: "oom-once-then-escalated-ok",
			spec:    func(s *TaskSpec) { s.Faults = &faults.Plan{OOMFailures: 1} },
			retries: 1},
		{name: "slow-task",
			spec: func(s *TaskSpec) { s.Faults = &faults.Plan{Delay: time.Millisecond} }},
		{name: "transient-then-panic",
			spec: func(s *TaskSpec) {
				s.Faults = &faults.Plan{TransientFailures: 1, PanicAtRecord: 7}
			},
			aborts: 1, panics: 1, retries: 1},
	}

	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	want := baselineOut(t, c, encode(t, c, records))

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh input per case: some faults mutate buffers.
			input := encode(t, c, records)
			spec := TaskSpec{
				Name: tc.name, Driver: "incStage",
				Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
			}
			tc.spec(&spec)
			pool := &Pool{Workers: 1, MaxAttempts: 4}
			job, err := pool.Run(func() *Executor {
				return &Executor{C: c, Mode: Gerenuk, VerifyInputs: true}
			}, []TaskSpec{spec})
			if err != nil {
				t.Fatalf("task did not recover: %v", err)
			}
			if len(job.Outputs) != 1 || !bytes.Equal(job.Outputs[0], want) {
				t.Fatalf("recovered output differs from fault-free baseline")
			}
			s := job.Stats
			if s.Aborts != tc.aborts {
				t.Errorf("aborts = %d, want %d", s.Aborts, tc.aborts)
			}
			if s.PanicsContained != tc.panics {
				t.Errorf("panics contained = %d, want %d", s.PanicsContained, tc.panics)
			}
			if s.Retries != tc.retries {
				t.Errorf("retries = %d, want %d", s.Retries, tc.retries)
			}
			if s.Attempts != tc.retries+1 {
				t.Errorf("attempts = %d, want %d", s.Attempts, tc.retries+1)
			}
		})
	}
}

// TestInputMutationDetected flips one bit of the input buffer during the
// speculative attempt: the mutate-input canary must fail the task with a
// permanent, non-retried error instead of silently re-executing over
// corrupt bytes.
func TestInputMutationDetected(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	spec := TaskSpec{
		Name: "flip", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 10)}}},
		Faults:      &faults.Plan{FlipInputBit: true},
	}
	pool := &Pool{Workers: 1, MaxAttempts: 4}
	_, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk, VerifyInputs: true}
	}, []TaskSpec{spec})
	if err == nil {
		t.Fatal("mutated input went undetected")
	}
	if !errors.Is(err, ErrInputMutated) {
		t.Fatalf("error is not ErrInputMutated: %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("not a JobError: %v", err)
	}
	if len(je.Failures) != 1 || je.Failures[0].Attempts != 1 {
		t.Errorf("permanent fault was retried: %+v", je.Failures)
	}
}

// TestBreakerLimitsNativeAttempts runs 20 always-aborting tasks through
// a breaker with threshold 3 and probe cadence 8 on one worker: only the
// 3 opening aborts plus the half-open probes (tasks 11 and 19) may
// attempt the native path; the other 15 must skip straight to the heap.
func TestBreakerLimitsNativeAttempts(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	br := &Breaker{Threshold: 3}
	specs := make([]TaskSpec, 20)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "t", Driver: "incStage",
			Invocations:       []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 4)}}},
			AbortAfterRecords: 1,
		}
	}
	pool := &Pool{Workers: 1}
	job, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk, Breaker: br}
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Outputs) != 20 {
		t.Fatalf("outputs = %d", len(job.Outputs))
	}
	if job.Stats.Aborts != 5 {
		t.Errorf("native attempts (aborts) = %d, want 5 (threshold 3 + 2 probes)", job.Stats.Aborts)
	}
	if job.Stats.NativeSkips != 15 {
		t.Errorf("native skips = %d, want 15", job.Stats.NativeSkips)
	}
	if !br.Open("incStage") {
		t.Errorf("breaker should still be open after failed probes")
	}
}

// TestBreakerClosesOnSuccessfulProbe opens the breaker with aborting
// tasks, then feeds healthy tasks: the first probe that succeeds must
// close the breaker and re-enable speculation for everyone after it.
func TestBreakerClosesOnSuccessfulProbe(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	br := &Breaker{Threshold: 2}
	mkSpec := func(abort int64) TaskSpec {
		return TaskSpec{
			Name: "t", Driver: "incStage",
			Invocations:       []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 4)}}},
			AbortAfterRecords: abort,
		}
	}
	// 2 aborting tasks open it, then 12 healthy ones: tasks 3-9 skip
	// (seen=1..7), task 10 probes and succeeds -> closed; tasks 11-14 all
	// speculate successfully.
	specs := []TaskSpec{mkSpec(1), mkSpec(1)}
	for i := 0; i < 12; i++ {
		specs = append(specs, mkSpec(0))
	}
	pool := &Pool{Workers: 1}
	job, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk, Breaker: br}
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Open("incStage") {
		t.Errorf("breaker still open after successful probe")
	}
	if job.Stats.NativeSkips != 7 {
		t.Errorf("native skips = %d, want 7 (only the tasks before the probe)", job.Stats.NativeSkips)
	}
	if job.Stats.Aborts != 2 {
		t.Errorf("aborts = %d, want 2", job.Stats.Aborts)
	}
}

// TestJobErrorAggregatesAllFailures makes every task of a job fail and
// asserts the pool reports each one — no first-error-wins.
func TestJobErrorAggregatesAllFailures(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, 3)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "doomed", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 3)}}},
			Faults:      &faults.Plan{TransientFailures: 99},
		}
	}
	pool := &Pool{Workers: 2}
	_, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk}
	}, specs)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %v", err)
	}
	if je.Tasks != 3 || len(je.Failures) != 3 {
		t.Fatalf("failures = %d of %d, want 3 of 3", len(je.Failures), je.Tasks)
	}
	seen := map[int]bool{}
	for _, f := range je.Failures {
		seen[f.Index] = true
		if f.Attempts != 3 {
			t.Errorf("task %d: attempts = %d, want 3 (default retry budget)", f.Index, f.Attempts)
		}
		if Classify(f.Err) != FaultTransient {
			t.Errorf("task %d: class = %v", f.Index, Classify(f.Err))
		}
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Errorf("task %d missing from JobError", i)
		}
	}
}

// TestJobErrorPartialFailure mixes healthy and doomed tasks: the healthy
// ones must still run (their stats are accounted) and only the doomed
// ones appear in the JobError.
func TestJobErrorPartialFailure(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, 4)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "t", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 3)}}},
		}
	}
	specs[1].Faults = &faults.Plan{TransientFailures: 99}
	specs[3].Faults = &faults.Plan{TransientFailures: 99}
	pool := &Pool{Workers: 1, MaxAttempts: 2}
	_, err := pool.Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk}
	}, specs)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %v", err)
	}
	if len(je.Failures) != 2 {
		t.Fatalf("failures = %d, want 2", len(je.Failures))
	}
	if je.Failures[0].Index != 1 || je.Failures[1].Index != 3 {
		t.Errorf("failure indices = %d,%d, want 1,3", je.Failures[0].Index, je.Failures[1].Index)
	}
}

// TestPoolEmptySpecs: a job with no tasks must succeed without ever
// creating an executor.
func TestPoolEmptySpecs(t *testing.T) {
	pool := &Pool{Workers: 4}
	job, err := pool.Run(func() *Executor {
		t.Error("executor created for empty job")
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Outputs) != 0 {
		t.Errorf("outputs = %d", len(job.Outputs))
	}
}

// TestPoolMoreWorkersThanTasks: the pool must not spawn executors that
// could never receive a task.
func TestPoolMoreWorkersThanTasks(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	var created int32
	specs := make([]TaskSpec, 2)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "t", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 3)}}},
		}
	}
	pool := &Pool{Workers: 8}
	job, err := pool.Run(func() *Executor {
		atomic.AddInt32(&created, 1)
		return &Executor{C: c, Mode: Gerenuk}
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if created != 2 {
		t.Errorf("executors created = %d, want 2", created)
	}
	if len(job.Outputs) != 2 {
		t.Errorf("outputs = %d", len(job.Outputs))
	}
}

// TestOOMRetryEscalatesHeap injects an allocation failure and asserts
// the retry runs on an escalated heap configuration.
func TestOOMRetryEscalatesHeap(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	base := heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20}
	var execs []*Executor
	spec := TaskSpec{
		Name: "oom", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 5)}}},
		Faults:      &faults.Plan{OOMFailures: 1},
	}
	pool := &Pool{Workers: 1}
	job, err := pool.Run(func() *Executor {
		e := &Executor{C: c, Mode: Gerenuk, HeapCfg: base}
		execs = append(execs, e)
		return e
	}, []TaskSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(job.Outputs))
	}
	// The worker's executor ran attempt 1 (injected OOM); the retry built
	// a fresh executor whose heap the pool escalated 2x.
	if len(execs) != 2 {
		t.Fatalf("executors created = %d, want 2 (worker + OOM retry)", len(execs))
	}
	want := base.Escalate(2)
	if execs[1].HeapCfg != want {
		t.Errorf("retry heap = %+v, want escalated %+v", execs[1].HeapCfg, want)
	}
}
