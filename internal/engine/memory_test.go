package engine_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/metrics"
)

// TestPrefixInputsAreDistinct runs two invocations over a buffer and
// its own two-record prefix. The two share a first byte, so a native
// attempt that tells its input buffers apart by that alone iterates the
// whole buffer for the prefix and breaks byte equality with Baseline.
func TestPrefixInputsAreDistinct(t *testing.T) {
	c := Compile(pairProgram(t))
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	buf := encode(t, c, 4)
	prefix := buf[:RecordOffsets(buf)[2]]
	spec := TaskSpec{Name: "prefix", Driver: "incStage", Invocations: []map[string]Input{
		{"in": {Class: "Pair", Buf: buf}},
		{"in": {Class: "Pair", Buf: prefix}},
	}}
	var outs [][]byte
	for _, mode := range []Mode{Baseline, Gerenuk} {
		e := &Executor{C: c, Mode: mode}
		res, err := e.RunTask(spec)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if n := len(RecordOffsets(res.Out)); n != 6 {
			t.Errorf("%v: %d output records, want 6", mode, n)
		}
		outs = append(outs, res.Out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("native output differs from Baseline")
	}
}

// TestTaskBytesUnderYoungSize pins that a warm task attempt allocates no
// simulated heap of its own: after one warm-up, a native task and a
// Baseline task on a shared Compiled each allocate less Go memory than
// one nursery semispace — far less than the 2·YoungSize+OldSize a heap,
// or the quarter of it a control heap, costs to build.
func TestTaskBytesUnderYoungSize(t *testing.T) {
	c := Compile(pairProgram(t))
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	cfg := heap.Config{YoungSize: 256 << 10, OldSize: 1 << 20}
	spec := TaskSpec{Name: "t", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 25)}}}}
	for _, mode := range []Mode{Gerenuk, Baseline} {
		e := &Executor{C: c, Mode: mode, HeapCfg: cfg}
		if _, err := e.RunTask(spec); err != nil {
			t.Fatal(err)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := e.RunTask(spec); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(cfg.YoungSize) {
			t.Errorf("%v task: %d bytes allocated per task, want < %d", mode, per, cfg.YoungSize)
		}
	}
}

// counts keeps a breakdown's event counts and peaks, dropping the wall
// times that differ from run to run.
func counts(b metrics.Breakdown) metrics.Breakdown {
	b.Total, b.GC, b.Ser, b.Deser, b.GCAttributed = 0, 0, 0, 0, 0
	b.NativeTime, b.HeapTime, b.ShuffleWrite, b.ShuffleRead = 0, 0, 0, 0
	return b
}

// TestRecycledMemoryMatchesFresh runs a sequence of tasks on one
// Compiled, so each attempt runs over the heaps and arenas the attempts
// before it left behind — after an abort, a contained panic, a hedge
// that canceled its straggler, a hedged race and an OOM that escalated
// the heap through two retries — and compares every task with the same
// task on a freshly compiled program: identical output, and identical
// breakdown counts (GCs, allocations, peaks, attempts). The hedged race
// decides its winner by timing, so only its output is compared.
func TestRecycledMemoryMatchesFresh(t *testing.T) {
	shared := Compile(pairProgram(t))
	if err := shared.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	input := encode(t, shared, 25)
	small := heap.Config{YoungSize: 1 << 10, OldSize: 4 << 10}
	steps := []struct {
		name     string
		baseline bool
		backend  Backend
		cfg      heap.Config
		hedge    time.Duration
		spec     func(*TaskSpec)
		timed    bool // the outcome depends on timing: compare output only
		// what the step must have exercised, read off the fresh run
		exercised func(metrics.Breakdown) bool
	}{
		{name: "clean"},
		{name: "abort", spec: func(s *TaskSpec) { s.AbortAfterRecords = 5 },
			exercised: func(b metrics.Breakdown) bool { return b.Aborts == 1 }},
		{name: "panic", spec: func(s *TaskSpec) { s.Faults = &faults.Plan{PanicAtRecord: 7} },
			exercised: func(b metrics.Breakdown) bool { return b.PanicsContained == 1 }},
		{name: "hedge-cancels-straggler", hedge: time.Millisecond,
			spec:      func(s *TaskSpec) { s.Faults = &faults.Plan{NativeDelay: time.Minute} },
			exercised: func(b metrics.Breakdown) bool { return b.HedgeWins == 1 }},
		{name: "hedged-race", hedge: time.Nanosecond, timed: true},
		// Pair objects are 32 bytes: a 16-byte heap cannot hold one and a
		// 32-byte one cannot hold a record's input and output at once, so
		// the heap fallback OOMs twice and succeeds at 4x.
		{name: "oom-escalated-retry", cfg: heap.Config{YoungSize: 16, OldSize: 16},
			spec:      func(s *TaskSpec) { s.AbortAfterRecords = 1 },
			exercised: func(b metrics.Breakdown) bool { return b.Retries == 2 && b.MajorGCs > 0 }},
		{name: "interp-abort", backend: BackendInterp, spec: func(s *TaskSpec) { s.AbortAfterRecords = 5 },
			exercised: func(b metrics.Breakdown) bool { return b.Aborts == 1 }},
		{name: "clean-after"},
		{name: "clean-interp", backend: BackendInterp},
		{name: "clean-baseline", baseline: true,
			exercised: func(b metrics.Breakdown) bool { return b.MinorGCs > 0 }},
	}
	run := func(c *Compiled, i int) (*JobResult, error) {
		st := steps[i]
		spec := TaskSpec{Name: st.name, Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}}}
		if st.spec != nil {
			st.spec(&spec)
		}
		mode, cfg := Gerenuk, st.cfg
		if st.baseline {
			mode = Baseline
		}
		if cfg == (heap.Config{}) {
			cfg = small
		}
		pool := &Pool{Workers: 1, MaxAttempts: 3}
		return pool.Run(func() *Executor {
			return &Executor{C: c, Mode: mode, Backend: st.backend, HeapCfg: cfg, HedgeAfter: st.hedge}
		}, []TaskSpec{spec})
	}
	for i, st := range steps {
		got, err := run(shared, i)
		if err != nil {
			t.Fatalf("%s on the shared Compiled: %v", st.name, err)
		}
		fresh := Compile(pairProgram(t))
		if err := fresh.CompileDriver("incStage"); err != nil {
			t.Fatal(err)
		}
		want, err := run(fresh, i)
		if err != nil {
			t.Fatalf("%s on a fresh Compiled: %v", st.name, err)
		}
		if !bytes.Equal(got.Outputs[0], want.Outputs[0]) {
			t.Errorf("%s: output differs from a fresh Compiled's", st.name)
		}
		if st.exercised != nil && !st.exercised(want.Stats) {
			t.Fatalf("%s did not exercise its path: %#v", st.name, counts(want.Stats))
		}
		if st.timed {
			continue
		}
		if g, w := counts(got.Stats), counts(want.Stats); g != w {
			t.Errorf("%s: breakdown counts\n got %#v\nwant %#v", st.name, g, w)
		}
	}
}

// TestRecycledMemoryConcurrent shares one Compiled's free lists among
// four workers whose tasks also race hedged attempts, every third one
// after an abort: each output must still equal the Baseline output.
// Run it under -race.
func TestRecycledMemoryConcurrent(t *testing.T) {
	c := Compile(pairProgram(t))
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, 24)
	for i := range specs {
		specs[i] = TaskSpec{Name: "t", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 5+i)}}}}
		if i%3 == 0 {
			specs[i].AbortAfterRecords = 2
		}
	}
	cfg := heap.Config{YoungSize: 1 << 10, OldSize: 4 << 10}
	ref := Compile(pairProgram(t))
	if err := ref.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(specs))
	for i, s := range specs {
		res, err := (&Executor{C: ref, Mode: Baseline, HeapCfg: cfg}).RunTask(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Out
	}
	job, err := (&Pool{Workers: 4}).Run(func() *Executor {
		return &Executor{C: c, Mode: Gerenuk, HeapCfg: cfg, HedgeAfter: time.Nanosecond}
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !bytes.Equal(job.Outputs[i], want[i]) {
			t.Errorf("task %d: output differs from Baseline", i)
		}
	}
}
