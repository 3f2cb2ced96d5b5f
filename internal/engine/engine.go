// Package engine implements the Gerenuk runtime's execution layer: task
// executors that run SER drivers speculatively over native buffers and
// fall back to the untransformed heap path on abort (paper sections 3.6
// and 1, "third challenge").
//
// An executor is deliberately stateless across tasks: every task attempt
// takes an empty simulated heap and an empty arena from its job's free
// lists (memory.go) and hands them back when it ends, so aborting a task
// is exactly the paper's "terminate the current executor, launch a new
// one with the same input buffers" — the input wire bytes are owned by
// the caller and are immutable (enforced by the statically inserted
// mutate-input aborts), so re-execution always sees pristine input.
package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/arena"
	"repro/internal/compile"
	"repro/internal/dsa"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/trace"
	"repro/internal/transform"
)

// Mode selects baseline or Gerenuk execution for a job.
type Mode int

// Execution modes.
const (
	Baseline Mode = iota
	Gerenuk
)

func (m Mode) String() string {
	if m == Gerenuk {
		return "gerenuk"
	}
	return "baseline"
}

// Compiled is a program plus everything the Gerenuk compiler derived from
// it: inline layouts, the codec, and per-driver SER analyses and
// transformed functions.
//
// Concurrency contract: CompileDriver calls serialize under mu and are
// idempotent, so concurrent jobs may compile the same drivers freely.
// The SERs/Natives/XStats maps stay exported for the offline consumers
// (cmd/gerenukc, the figure drivers) that read them after compilation
// finishes single-threaded; concurrent executors must go through the
// locked accessors (CanRunNative, Closure) instead. Compiling a driver
// nobody has compiled yet mutates the shared IR program (resolution
// caches, transformed-function registration), so callers sharing one
// Compiled across concurrently running jobs must Precompile every
// driver before the first task launches — the per-job programs built by
// the bench/cluster layers do this implicitly by compiling at job start,
// before their pools spin up.
type Compiled struct {
	Prog    *ir.Program
	Layouts *dsa.Result
	Codec   *serde.Codec

	SERs    map[string]*analysis.SER
	Natives map[string]*ir.Func
	XStats  map[string]transform.Stats

	// mu guards the compilation maps above plus the closure cache and
	// the attempt-memory free lists below; all fill lazily, possibly from
	// concurrent jobs sharing this Compiled. closures memoizes closure
	// compilation per driver (nil value = declined, interpret forever).
	mu       sync.Mutex
	closures map[string]*compile.Prog
	// heaps and sinks are the idle attempt memory (memory.go): heaps by
	// configuration, and native sinks, each with its arena.
	heaps map[heap.Config][]*heap.Heap
	sinks []*nativeSink
}

// Compile runs the data structure analyzer over the program's top types
// and prepares the compiled container. Drivers are compiled on demand by
// CompileDriver.
func Compile(prog *ir.Program) *Compiled {
	layouts := dsa.Analyze(prog.Reg, prog.TopTypes)
	return &Compiled{
		Prog:    prog,
		Layouts: layouts,
		Codec:   serde.NewCodec(prog.Reg, layouts),
		SERs:    make(map[string]*analysis.SER),
		Natives: make(map[string]*ir.Func),
		XStats:  make(map[string]transform.Stats),
	}
}

// CompileDriver runs the SER analyzer and Algorithm 1 on one driver
// function, caching the result. Untransformable SERs are recorded (the
// job then stays on the heap path) rather than failing. Concurrent
// calls — jobs sharing one Compiled each compile their drivers at job
// start — serialize under the cache lock and are idempotent.
func (c *Compiled) CompileDriver(entry string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, done := c.SERs[entry]; done {
		return nil
	}
	ser, err := analysis.AnalyzeSER(c.Prog, c.Layouts, entry)
	if err != nil {
		return err
	}
	c.SERs[entry] = ser
	c.Prog.ResolveProgram(entry)
	if !ser.Transformable {
		return nil
	}
	out, err := transform.Transform(c.Prog, c.Layouts, ser)
	if err != nil {
		return err
	}
	c.Natives[entry] = out.Native
	c.XStats[entry] = out.Stats
	return nil
}

// Precompile compiles every listed driver, stopping at the first error.
// Call it before sharing this Compiled across concurrently running
// jobs: compilation mutates the shared IR program, so all of it must
// happen before the first concurrent task executes.
func (c *Compiled) Precompile(entries ...string) error {
	for _, e := range entries {
		if e == "" {
			continue
		}
		if err := c.CompileDriver(e); err != nil {
			return err
		}
	}
	return nil
}

// CanRunNative reports whether a compiled native version exists: false
// if the driver was not compiled or declined transformation. Safe
// against concurrent CompileDriver calls (executors resolve their driver
// per attempt while another job may still be compiling its own).
func (c *Compiled) CanRunNative(entry string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Natives[entry] != nil
}

// Input is one bound source of a binding: wire records in Buf. If Offs
// is non-nil it lists the record start offsets to read (e.g. the key
// groups of a shuffle partition); otherwise the whole buffer is scanned
// sequentially.
type Input struct {
	Class string
	Buf   []byte
	Offs  []int
	// Groups, when non-nil, cuts Offs into key groups: Groups[g] is the
	// end index in Offs of group g, which starts where group g-1 ends.
	// A binding runs its driver once per group, each run reading every
	// input's window for that group, so all inputs of a binding carry
	// the same group count; an input without Groups is one group.
	Groups []int
	// Owned marks Buf as freshly assembled for this task alone (e.g. a
	// shuffle fetch's concatenation) with ownership transferred to the
	// executor: the native attempt may adopt it into its arena zero-copy
	// instead of paying the transfer copy. Attempts only ever read input
	// buffers (the canary enforces it), so a hedged pair sharing one
	// owned buffer is still safe.
	Owned bool
}

// TaskSpec describes one task: a driver run over each binding (map
// tasks have a single binding over a split; a reduce task's binding runs
// the driver once per key group of its block).
type TaskSpec struct {
	Name   string
	Driver string
	// Invocations are the task's bindings of source names to inputs: one
	// driver run each, or one per group when the inputs carry Groups.
	Invocations []map[string]Input
	// ClosureBytes simulates shipping the serialized closure/task binary
	// to the executor; both modes pay it (the paper's residual serde).
	ClosureBytes int
	// EpochPerInvocation wraps each driver run in a Yak epoch
	// (PolicyRegion heaps only).
	EpochPerInvocation bool
	// AbortAfterRecords forces a speculative abort after N records of
	// one driver run, for the Figure 10(b) experiment.
	AbortAfterRecords int64
	// Faults, when non-nil, injects deterministic failures into this
	// task (see internal/faults). The plan carries the cross-attempt
	// counter, so retries of the same spec see successive attempts.
	Faults *faults.Plan
	// CheckpointEvery persists the partial fold output every N completed
	// driver runs (0 = off): a killed or faulted attempt then resumes
	// from the last checkpoint instead of record zero. Checkpoints cover
	// only completed runs — deterministic, byte-equal across the
	// native and heap paths — so a checkpoint saved by either path
	// soundly resumes the other. Requires Checkpoints.
	CheckpointEvery int
	// Checkpoints is the job-level store partial folds persist to; the
	// pool drops a task's entry once the task completes.
	Checkpoints *recovery.CheckpointStore
}

// TaskResult is the outcome of one task.
type TaskResult struct {
	Out   []byte // output wire records
	Stats metrics.Breakdown
}

// Executor runs tasks. Safe for use by one goroutine at a time; create
// one per worker. Breaker (shared across a pool's executors) and
// VerifyInputs are optional fault-tolerance knobs.
type Executor struct {
	C       *Compiled
	Mode    Mode
	HeapCfg heap.Config
	// Backend selects the native execution strategy: closure-compiled
	// func chains (zero value, the default) or the tree-walking
	// interpreter. See backend.go.
	Backend Backend
	// Breaker, when set, adaptively de-speculates drivers that keep
	// aborting (shared across the pool; nil = always speculate).
	Breaker *Breaker
	// HedgeAfter is the straggler hedge delay: a native attempt still
	// running after this long races a concurrently launched heap attempt
	// and the task takes the first finisher (see hedge.go). 0 disables
	// hedging (the paper's serial recovery).
	HedgeAfter time.Duration
	// VerifyInputs enables the input-checksum canary: input buffers are
	// checksummed before a speculative attempt and re-verified after it,
	// so a violated mutate-input guarantee fails the task loudly instead
	// of silently re-executing over corrupt bytes.
	VerifyInputs bool
	// Trace, when set, receives task/attempt/phase spans and
	// abort/fault/GC instants for every task this executor runs. nil
	// (the default) disables tracing; the hot path then pays only nil
	// checks.
	Trace *trace.Tracer
	// Tenant, when set, labels this executor's task-latency series in
	// the registry ({tenant="…"}), so a multi-tenant service can tell
	// whose tasks are slow. "" keeps the unlabeled series.
	Tenant string
}

// RunTask executes the task, speculatively when the executor is in
// Gerenuk mode and the driver has a native version. On abort — whether a
// cooperative abort instruction, a failed runtime guard, or a contained
// panic anywhere in the native path — the attempt's executor state is
// discarded and the original driver re-runs on the heap path over the
// same inputs. Failures are returned as *TaskError with a FaultClass the
// pool uses to decide on retries. Even on error the partial Stats are
// returned, so failed attempts stay visible in the job accounting.
func (e *Executor) RunTask(spec TaskSpec) (TaskResult, error) {
	t := taskRun{e: e, spec: &spec, start: time.Now()}
	if e.Trace != nil { // span arguments allocate even for a nil tracer
		t.span = e.Trace.StartSpan("task", spec.Name,
			trace.Str("driver", spec.Driver), trace.Str("mode", e.Mode.String()))
	}
	t.bd.Attempts++

	// Closure shipping: serialize on the "driver", deserialize here.
	serT, deserT := simulateClosure(spec.ClosureBytes)
	t.bd.Ser += serT
	t.bd.Deser += deserT

	// Attempt-level injected faults (slow task, lost attempt, OOM).
	if p := spec.Faults; p != nil {
		if p.Delay > 0 {
			time.Sleep(p.Delay)
		}
		attempt := p.TakeAttempt()
		if attempt <= int64(p.TransientFailures) {
			t.span.Instant("fault", "injected-transient", trace.I64("attempt", attempt))
			return t.fail(&TaskError{Task: spec.Name, Class: FaultTransient,
				Err: fmt.Errorf("injected transient failure (attempt %d)", attempt)})
		}
		if attempt <= int64(p.TransientFailures+p.OOMFailures) {
			t.span.Instant("fault", "injected-oom", trace.I64("attempt", attempt))
			return t.fail(&TaskError{Task: spec.Name, Class: FaultOOM,
				Err: fmt.Errorf("injected allocation failure (attempt %d): %w", attempt, heap.ErrOutOfMemory)})
		}
	}

	if e.VerifyInputs {
		t.sum = checksumInputs(spec)
	}

	if e.Mode == Gerenuk && e.C.CanRunNative(spec.Driver) {
		if e.Breaker.Allow(spec.Driver) {
			return t.speculate(func(native bool, att *trace.Span) racer {
				return e.launch(native, spec, att)
			})
		}
		// Open breaker: skip the doomed native attempt.
		t.bd.NativeSkips++
		t.span.Instant("breaker", "native-skip", trace.Str("driver", spec.Driver))
	}
	return t.heapOnly()
}

// taskRun is the state of one RunTask call: what every attempt of the
// task folds its cost into and what the task's outcome is reported
// through. It lives on RunTask's stack and holds the spec by pointer —
// at a thousand-odd tasks per streaming job a heap-allocated copy shows
// in the job's allocation volume.
type taskRun struct {
	e     *Executor
	spec  *TaskSpec
	span  *trace.Span
	start time.Time
	bd    metrics.Breakdown
	sum   uint64 // input checksum before any attempt ran (VerifyInputs)
}

// finish closes the task's record and publishes the registry series that
// mirror its fields: their one bump site, so the two always agree.
func (t *taskRun) finish(outcome string) {
	t.bd.Total = time.Since(t.start)
	if t.span != nil {
		t.span.End(trace.Str("outcome", outcome),
			trace.I64("attempts", t.bd.Attempts), trace.I64("aborts", t.bd.Aborts))
	}
	latency := "task_latency_ns"
	if t.e.Tenant != "" {
		latency = trace.Name(latency, "tenant", t.e.Tenant)
	}
	reg := t.e.Trace.Registry()
	reg.Histogram(latency, trace.LatencyBuckets()...).Observe(float64(t.bd.Total))
	reg.Counter("aborts_total").Add(t.bd.Aborts)
	reg.Counter("native_skips_total").Add(t.bd.NativeSkips)
	reg.Counter("hedges_total").Add(t.bd.Hedges)
	reg.Counter("hedge_wins_total").Add(t.bd.HedgeWins)
}

func (t *taskRun) ok(out []byte) (TaskResult, error) {
	t.finish("ok")
	return TaskResult{Out: out, Stats: t.bd}, nil
}

func (t *taskRun) fail(err error) (TaskResult, error) {
	t.span.Instant("fault", "task-error",
		trace.Str("class", Classify(err).String()), trace.Str("reason", err.Error()))
	t.finish("error")
	return TaskResult{Stats: t.bd}, taskErr(t.spec.Name, err)
}

// attemptOutcome is what one attempt hands back to its task: racing
// attempts send it over a channel, so the task goroutine aggregates
// stats without shared state.
type attemptOutcome struct {
	out []byte
	bd  metrics.Breakdown
	err error
	// compiled marks a native attempt that ran closure-compiled code: an
	// abort of it is a deoptimization, an abort of an interpreted attempt
	// is not.
	compiled bool
}

// attemptState is where a settled attempt ended up. The zero value is an
// attempt that never started.
type attemptState int

const (
	notRun    attemptState = iota
	succeeded              // ran to an answer
	aborted                // native only: failed speculation, recover on the heap path
	canceled               // stopped by the task after the other attempt won
	failed                 // native: a non-speculation error; heap: any error
)

// run executes one attempt of the task on the calling goroutine: the
// speculative native attempt or the untransformed heap one.
func (e *Executor) run(native bool, spec TaskSpec, att *trace.Span, cancel *canceler) attemptOutcome {
	if native {
		return e.runNativeAttempt(spec, att, cancel)
	}
	return e.runHeapAttempt(spec, att, cancel)
}

// settleNative is the one place a finished native attempt is accounted:
// its cost folds into the task, its span ends, the breaker learns how
// the speculation went, and a failed speculation is counted as an abort
// (and, when compiled code ran, a deoptimization). stopped says the task
// canceled the attempt because the hedge had already won.
func (t *taskRun) settleNative(att *trace.Span, o attemptOutcome, stopped bool) attemptState {
	t.bd.Add(o.bd)
	if o.err == nil {
		// Even an attempt that lost the race but completed is a successful
		// speculation for the breaker: both outputs are identical.
		att.End(trace.Str("outcome", "ok"))
		t.e.Breaker.Record(t.spec.Driver, false)
		return succeeded
	}
	if stopped && errors.Is(o.err, interp.ErrCanceled) {
		att.End(trace.Str("outcome", "canceled"))
		t.hedgeCancel("native")
		return canceled
	}
	class := Classify(o.err)
	if class != AbortSpeculation && class != FaultOOM {
		att.End(trace.Str("outcome", "error"))
		return failed
	}
	// Abort (or a native-side allocation failure, equally a failed
	// speculation): the attempt is discarded — its heap, arena and
	// partial output went back to the free lists unread — and the heap
	// path recovers over the pristine inputs.
	att.End(trace.Str("outcome", "abort"))
	t.e.Breaker.Record(t.spec.Driver, true)
	t.bd.Aborts++
	t.span.Instant("abort", "speculation-abort",
		trace.Str("class", class.String()), trace.Str("reason", o.err.Error()))
	if o.compiled {
		t.e.Trace.Registry().Counter("deopt_total").Add(1)
	}
	return aborted
}

// settleHeap accounts a finished heap attempt: cost folded, span ended.
// stopped says the task canceled it, whatever it then returned.
func (t *taskRun) settleHeap(att *trace.Span, o attemptOutcome, stopped bool) attemptState {
	t.bd.Add(o.bd)
	switch {
	case stopped:
		att.End(trace.Str("outcome", "canceled"))
		return canceled
	case o.err != nil:
		att.End(trace.Str("outcome", "error"))
		return failed
	}
	att.End(trace.Str("outcome", "ok"))
	return succeeded
}

// heapOnly runs the heap attempt on the caller's goroutine and takes its
// result as the task's: the primary execution in Baseline mode, and in
// Gerenuk mode the fallback after a failed speculation or an open breaker.
func (t *taskRun) heapOnly() (TaskResult, error) {
	att := t.span.Child("attempt", "heap-attempt")
	o := t.e.run(false, *t.spec, att, nil)
	if t.settleHeap(att, o, false) == failed {
		return t.fail(o.err)
	}
	return t.ok(o.out)
}

// speculate decides the task from its attempts under one rule: the heap
// attempt starts when the native attempt aborts or when the hedge delay
// expires, whichever comes first — and never if the native attempt
// succeeds or fails for good before either. Serial recovery (the
// paper's §3.6) is that rule with no timer: both attempts then run on
// the caller's goroutine with no goroutine, channel or timer. launch
// starts a concurrent attempt and is only called with hedging armed.
func (t *taskRun) speculate(launch func(native bool, att *trace.Span) racer) (TaskResult, error) {
	var nr, hr attemptOutcome
	var native, hedge attemptState
	natt := t.span.Child("attempt", "native-attempt")
	if delay := t.e.HedgeAfter; delay > 0 {
		nr, hr, native, hedge = t.race(natt, delay, launch)
	} else {
		nr = t.e.run(true, *t.spec, natt, nil)
		native = t.settleNative(natt, nr, false)
	}

	// The mutate-input canary: every attempt that ran has settled, and
	// nothing — the fallback below included — has read the inputs since.
	// A hedged race can therefore never mask a corrupted input.
	if t.e.VerifyInputs && checksumInputs(*t.spec) != t.sum {
		return t.fail(&TaskError{Task: t.spec.Name, Class: FaultPermanent, Err: ErrInputMutated})
	}
	switch {
	case native == failed:
		// A permanent native failure fails the task even when a hedge
		// produced an answer: hedging changes a task's latency, never its
		// outcome.
		return t.fail(nr.err)
	case hedge == succeeded:
		return t.ok(hr.out)
	case native == succeeded:
		return t.ok(nr.out)
	case hedge == failed:
		return t.fail(hr.err)
	}
	return t.heapOnly()
}

// bufID identifies an input buffer: a reduce task's key groups all
// point into one fetched block. Both the first byte and the length are
// needed — a buffer and its prefix share a first byte.
type bufID struct {
	first *byte
	n     int
}

// checksumInputs fingerprints the bytes speculation must not touch, for
// the mutate-input canary: FNV-1a over every distinct input buffer of
// the task, in invocation order and sorted source-name order. Buffers
// are deduplicated by bufID and each is hashed once — changing any byte
// of any input buffer still changes the sum.
func checksumInputs(spec TaskSpec) uint64 {
	h := fnv.New64a()
	seen := make(map[bufID]struct{}, 2)
	names := make([]string, 0, 4)
	for _, inv := range spec.Invocations {
		names = names[:0]
		for name := range inv {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			buf := inv[name].Buf
			if len(buf) == 0 {
				continue
			}
			id := bufID{&buf[0], len(buf)}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// runHeapAttempt executes the original driver over the simulated heap.
// A runtime panic here is contained (the process must survive a bad
// task) but classified permanent: the heap path is the ground truth, so
// a panic in it is a bug, not failed speculation.
func (e *Executor) runHeapAttempt(spec TaskSpec, att *trace.Span, cancel *canceler) (o attemptOutcome) {
	bd := &o.bd
	t0 := time.Now()
	defer func() { bd.HeapTime += time.Since(t0) }()
	defer func() {
		if r := recover(); r != nil {
			bd.PanicsContained++
			o.out = nil
			o.err = &TaskError{Task: spec.Name, Class: FaultPermanent,
				Err: fmt.Errorf("runtime panic in heap execution: %v", r)}
		}
	}()
	// In Gerenuk mode the heap attempt only runs after a failed
	// speculation (or an open breaker), so the phase is the fallback the
	// paper pays for aborts; in Baseline it is the primary execution.
	phaseName := "heap-execute"
	if e.Mode == Gerenuk {
		phaseName = "heap-fallback"
	}
	h := e.C.takeHeap(e.HeapCfg, att)
	defer e.C.putHeap(e.HeapCfg, h)
	sink := &collectSink{}
	fn := e.C.Prog.Fn(spec.Driver)
	hook := killHook(spec)

	// Resume from the last checkpoint, if one survives: the persisted
	// fold output seeds the sink (serialized heap state) and the walk
	// skips the driver runs it covers.
	resume := e.restoreCheckpoint(spec, att, func(seed []byte) {
		sink.out = append(sink.out, seed...)
	})
	records, err := e.walk(&spec, att, phaseName, resume, &sink.out, bd, func(inv map[string]Input) (*interp.Env, []*cursor, func() error) {
		sources := make(map[string]interp.Source, len(inv))
		curs := make([]*cursor, 0, len(inv))
		for name, in := range inv {
			s := &wireSource{cursor{in: in}}
			sources[name] = s
			curs = append(curs, &s.cursor)
		}
		env := &interp.Env{
			Mode: interp.ModeHeap, Prog: e.C.Prog, Heap: h, Codec: e.C.Codec,
			Layouts: e.C.Layouts, Sources: sources, Sink: sink,
			RecordHook: hook, Cancel: cancel.cancelFlag(),
		}
		ip := interp.New(env)
		return env, curs, func() error {
			if spec.EpochPerInvocation {
				h.EpochStart()
			}
			if _, err := ip.Run(fn); err != nil || !spec.EpochPerInvocation {
				return err
			}
			return h.EpochEnd()
		}
	})
	if o.err = err; err != nil {
		return o
	}
	foldHeapStats(bd, h.Stats())
	// The serialized shuffle-output buffer is process memory too (the
	// Gerenuk path's equivalent lives inside its arena regions and is
	// already counted there).
	if out := int64(len(sink.out)); out > bd.PeakNativeBytes {
		bd.PeakNativeBytes = out
	}
	bd.Records += records
	o.out = sink.out
	return o
}

// walk is both attempts' binding walk: it makes the task's driver runs
// from run from (a checkpoint's Seq) on. bind builds a binding's sources
// and Env once, with the function running the driver over them; each
// run reads its group's window on a rewound Env, then checkpoints out on
// the cadence. A binding is traced as one phase span whose end args sum
// its runs, so a task's event count does not grow with its records or
// key groups. It returns records read.
func (e *Executor) walk(spec *TaskSpec, att *trace.Span, phase string, from int, out *[]byte, bd *metrics.Breakdown,
	bind func(inv map[string]Input) (*interp.Env, []*cursor, func() error)) (records int64, err error) {
	done := 0 // driver runs before the current binding
	for _, inv := range spec.Invocations {
		n, err := runsOf(inv)
		if err != nil {
			return 0, &TaskError{Task: spec.Name, Class: FaultPermanent, Err: err}
		}
		g := max(from-done, 0)
		if g >= n {
			done += n
			continue
		}
		env, curs, run := bind(inv)
		ph := att.Child("phase", phase)
		var runs, recs, ser, deser int64
		for ; g < n && err == nil; g++ {
			for _, c := range curs {
				recs += c.window(g)
			}
			env.Rewind()
			err = run()
			runs++
			bd.Ser += env.SerTime
			bd.Deser += env.DeserTime
			ser, deser = ser+env.SerBytes, deser+env.DeserBytes
			if err == nil {
				e.maybeCheckpoint(*spec, att, done+g+1, *out)
			}
		}
		if ph != nil { // span arguments allocate even for a nil span
			ph.End(trace.I64("runs", runs), trace.I64("records", recs),
				trace.I64("ser_bytes", ser), trace.I64("deser_bytes", deser))
		}
		if err != nil {
			return 0, err
		}
		records += recs
		done += n
	}
	return records, nil
}

// runsOf returns how many driver runs binding inv makes: the group count
// its inputs share, each input's Groups cutting its Offs whole.
func runsOf(inv map[string]Input) (int, error) {
	n := -1
	for name, in := range inv {
		m, g := 1, in.Groups
		if g != nil {
			m = len(g)
			if m > 0 && (in.Offs == nil || g[0] < 0 || g[m-1] != len(in.Offs) || !slices.IsSorted(g)) {
				return 0, fmt.Errorf("engine: groups of input %q do not cut its %d offsets", name, len(in.Offs))
			}
		}
		if n >= 0 && m != n {
			return 0, fmt.Errorf("engine: binding inputs disagree on their group count (%d and %d)", n, m)
		}
		n = m
	}
	if n < 0 {
		return 1, nil // a binding of no inputs runs once
	}
	return n, nil
}

// foldHeapStats charges an attempt's simulated-heap activity — the data
// heap of a heap attempt, the control heap of a native one — to its cost.
func foldHeapStats(bd *metrics.Breakdown, st heap.Stats) {
	bd.GC += st.GCTime
	bd.MinorGCs += st.MinorGCs
	bd.MajorGCs += st.MajorGCs
	bd.AllocObjects += st.AllocObjects
	bd.AllocBytes += st.AllocBytes
	if st.PeakUsedBytes > bd.PeakHeapBytes {
		bd.PeakHeapBytes = st.PeakUsedBytes
	}
}

// runNativeAttempt executes the transformed driver over arena regions.
//
// The whole attempt runs under a recover barrier: any runtime panic —
// an arena.Fault access violation, an injected fault, or a plain bug in
// the speculative path — is converted into an AbortError, which RunTask
// treats exactly like a cooperative abort: terminate the attempt,
// discard its state, re-execute the untransformed driver over the same
// (immutable) input buffers. This is the paper's §3.6 recovery
// obligation extended from the one blessed abort instruction to every
// failure mode speculation can hit.
func (e *Executor) runNativeAttempt(spec TaskSpec, att *trace.Span, cancel *canceler) (o attemptOutcome) {
	bd := &o.bd
	t0 := time.Now()
	defer func() { bd.NativeTime += time.Since(t0) }()
	defer func() {
		if r := recover(); r != nil {
			bd.PanicsContained++
			o.out = nil
			if f, ok := r.(*arena.Fault); ok {
				o.err = &interp.AbortError{Reason: "native memory violation: " + f.Msg}
			} else {
				o.err = &interp.AbortError{Reason: fmt.Sprintf("runtime panic in speculative execution: %v", r)}
			}
		}
	}()
	// Injected straggle: stall only this speculative attempt (a hedged
	// heap attempt keeps running), honoring cooperative cancellation so
	// a canceled straggler dies mid-stall instead of sleeping it out.
	if p := spec.Faults; p != nil && p.NativeDelay > 0 {
		if cancel.sleep(p.NativeDelay) {
			o.err = interp.ErrCanceled
			return o
		}
	}
	// Resolve what this attempt runs, once: the transformed driver and,
	// under the compiled backend, its closure chain (compiled on first
	// use; nil = interpret the transformed IR). Resolution happens before
	// the attempt takes its memory, and decides whether it needs a control
	// heap.
	fn, cp := e.nativeCode(spec.Driver, att)
	o.compiled = cp != nil
	sink := e.C.takeSink(att)
	defer e.C.putSink(sink)
	a := sink.a
	// An interpreted attempt keeps a small control heap; data never
	// touches it. Compiled code cannot reach one — closure compilation
	// declines every heap statement — so a compiled attempt gets none.
	var h *heap.Heap
	if cp == nil {
		ctl := heap.Config{YoungSize: e.HeapCfg.YoungSize / 4, OldSize: e.HeapCfg.OldSize / 4}
		h = e.C.takeHeap(ctl, att)
		defer e.C.putHeap(ctl, h)
	}
	outRegion := a.NewRegion("task-out")
	hook := recordHook(spec, a)

	// Adopt each distinct input buffer once. Owned buffers (a shuffle
	// fetch's fresh concatenation) wrap zero-copy; shared ones pay the
	// transfer copy.
	regions := make(map[bufID]*arena.Region)
	regionFor := func(in Input) *arena.Region {
		buf := in.Buf
		if len(buf) == 0 {
			return a.NewRegion("empty")
		}
		key := bufID{&buf[0], len(buf)}
		if r, ok := regions[key]; ok {
			return r
		}
		var r *arena.Region
		if in.Owned {
			r = a.AdoptBytesOwned("task-in", buf)
		} else {
			r = a.AdoptBytes("task-in", buf)
		}
		regions[key] = r
		return r
	}

	// Resume from the last checkpoint, if one survives: the persisted
	// fold state is adopted into an arena region — restored fold output
	// lives in native memory, like the live output it prefixes — and
	// seeds the sink.
	resume := e.restoreCheckpoint(spec, att, func(seed []byte) {
		r := a.AdoptBytes("ckpt-restore", seed)
		sink.out = append(sink.out, a.Slice(r.AddrOf(0), r.Len())...)
	})
	records, err := e.walk(&spec, att, "native-execute", resume, &sink.out, bd, func(inv map[string]Input) (*interp.Env, []*cursor, func() error) {
		sources := make(map[string]interp.NativeSource, len(inv))
		curs := make([]*cursor, 0, len(inv))
		for name, in := range inv {
			s := &regionSource{cursor: cursor{in: in}, a: a, region: regionFor(in)}
			sources[name] = s
			curs = append(curs, &s.cursor)
		}
		env := &interp.Env{
			Mode: interp.ModeNative, Prog: e.C.Prog, Heap: h, Arena: a,
			Layouts: e.C.Layouts, Out: outRegion,
			NativeSources: sources, NativeSink: sink,
			AbortAfterRecords: spec.AbortAfterRecords,
			RecordHook:        hook,
			Cancel:            cancel.cancelFlag(),
		}
		if cp != nil {
			m := cp.Bind(env)
			return env, curs, func() error { _, err := m.Run(); return err }
		}
		ip := interp.New(env)
		return env, curs, func() error { _, err := ip.Run(fn); return err }
	})
	o.err = err
	if h != nil {
		foldHeapStats(bd, h.Stats())
	}
	if ast := a.Stats(); ast.PeakBytes > bd.PeakNativeBytes {
		bd.PeakNativeBytes = ast.PeakBytes
	}
	if o.err != nil {
		return o
	}
	bd.Records += records
	// Copy output bytes out — the only bytes that leave the attempt —
	// then free all regions wholesale (putSink), the region-based
	// reclamation the confinement guarantee enables.
	o.out = append([]byte(nil), sink.Bytes()...)
	return o
}

// recordHook builds the per-record fault hook for a native attempt, or
// nil when the spec injects no record-targeted faults. Record numbers
// are per driver run (1-based); the injected kill (killHook) instead
// counts cumulatively across runs.
func recordHook(spec TaskSpec, a *arena.Arena) func(int64) error {
	p := spec.Faults
	kill := killHook(spec)
	if p == nil || (p.PanicAtRecord == 0 && p.WildReadAtRecord == 0 && !p.FlipInputBit) {
		return kill
	}
	flipped := false
	return func(n int64) error {
		if kill != nil {
			if err := kill(n); err != nil {
				return err
			}
		}
		if p.FlipInputBit && !flipped {
			flipped = true
			flipInputBit(spec)
		}
		if n == p.PanicAtRecord {
			panic(fmt.Sprintf("faults: injected panic at record %d", n))
		}
		if n == p.WildReadAtRecord {
			// A wild address: region id far beyond anything allocated.
			a.ReadNative(int64(1)<<62, 0, 8)
		}
		return nil
	}
}

// flipInputBit corrupts one bit of the task's first non-empty input
// buffer — the injected violation of the input-immutability contract
// that the VerifyInputs canary must catch.
func flipInputBit(spec TaskSpec) {
	for _, inv := range spec.Invocations {
		names := make([]string, 0, len(inv))
		for name := range inv {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if buf := inv[name].Buf; len(buf) > 0 {
				buf[len(buf)/2] ^= 1
				return
			}
		}
	}
}

// simulateClosure models serializing and deserializing the task closure
// (lambda + captured state). It does real byte work so it shows up in
// measurements the way the paper's residual serde does.
func simulateClosure(n int) (ser, deser time.Duration) {
	if n <= 0 {
		return 0, 0
	}
	t0 := time.Now()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	h := fnv.New64a()
	h.Write(buf)
	ser = time.Since(t0)
	t1 := time.Now()
	var sum uint64
	for _, b := range buf {
		sum = sum*131 + uint64(b)
	}
	_ = sum
	deser = time.Since(t1)
	return ser, deser
}
