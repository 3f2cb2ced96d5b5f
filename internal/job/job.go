// Package job is the one job runtime under the three front-ends (spark,
// hadoop, stream). The paper's execution model has a single shape — a
// task is one SER from a deserialization point to a serialization
// point, run speculatively and re-executed on abort — so "run a stage
// of such tasks" and "move their output through an exchange" are
// implemented here exactly once. The front-ends keep only dataflow
// shape: which specs form a stage, what is shuffled by which key, when a
// window closes.
//
// Env is the run environment: every knob that is not dataflow shape,
// declared and documented once. spark.Context, hadoop.JobConf and
// bench.Config embed it; adding a knob touches Env and the flag binder
// in internal/bench, nothing else. Runtime binds an Env to a compiled
// program and owns the effectful steps — retry under the watchdog,
// checkpoint stamping, fetch, stats fold — which is where deoptimization
// bugs live and why there must be one copy of them.
package job

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/trace"
)

// Identity is what a scheduler hands one job: who it runs for, and its
// scoped views of the state a multi-tenant process shares. The cluster
// service fills all six; a standalone run leaves them zero. They travel
// as one value (cluster.JobContext embeds it, bench.ClusterJob assigns
// it whole).
type Identity struct {
	// Tenant labels the per-task latency series the job's executors emit
	// ({tenant="…"}); "" keeps the unlabeled series.
	Tenant string
	// JobID namespaces the job's durable recovery state: every checkpoint
	// and lineage key derived from a task or exchange name is scoped by
	// it, so concurrent jobs sharing the stores below — which reuse task
	// names like "reduce-3" and exchange names like "IUF-shuffle" — can
	// never serve each other's bytes.
	JobID string
	// Breaker adaptively de-speculates drivers that keep aborting; it is
	// shared by every executor of the job (the service passes each
	// tenant's Scoped view). nil keeps the paper's always-speculate
	// semantics (Figure 10).
	Breaker *engine.Breaker
	// Checkpoints and Lineage are the stores recovery state persists to,
	// scoped by JobID. nil keeps private per-job stores.
	Checkpoints *recovery.CheckpointStore
	Lineage     *recovery.Lineage
	// Canceled is polled before every stage and every fetch: once it is
	// closed the next one does not start and the job fails with
	// engine.ErrCanceled. In-flight tasks drain; cancellation is
	// cooperative, never mid-record.
	Canceled <-chan struct{}
}

// Env is the run environment of one job. The zero value runs Baseline
// mode on the compiled backend with 4 workers, no fault tolerance
// extras, no tracing and an unbounded in-memory exchange.
type Env struct {
	Identity

	Mode engine.Mode
	// Backend selects the native execution strategy of every executor:
	// closure-compiled chains (zero value) or the interpreter.
	Backend engine.Backend
	// Workers is the executor pool size of every stage and the bound on
	// the job's driver-side fan-out (<= 0 means 4; see WorkerCount).
	Workers int
	// HedgeAfter, when positive, races the untransformed heap attempt
	// against any native attempt that outlives this delay (straggler
	// mitigation); 0 keeps serial recovery.
	HedgeAfter time.Duration
	// CheckpointEvery persists each task's fold state every N completed
	// invocations, so a killed attempt resumes from its last checkpoint
	// instead of restarting (0 = off).
	CheckpointEvery int
	// StageDeadline runs every stage and every fetch under a watchdog: a
	// stage exceeding it is presumed hung, converted into a retryable
	// timeout and re-executed once — checkpointed tasks resume where they
	// were. A fetch has no second act (the exchange is terminal), so its
	// timeout surfaces as the job error. 0 = no watchdog.
	StageDeadline time.Duration
	// Injector, when set, derives a deterministic fault plan for every
	// task and fetch from its name (chaos testing). Injected faults make
	// first attempts fail by design, so it also arms the mutate-input
	// canary and widens the retry budget to chaosAttempts.
	Injector *faults.Injector
	// Trace, when set, receives stage spans from the runtime, shuffle
	// spans from every exchange and task/attempt/phase spans from every
	// executor. nil disables tracing.
	Trace *trace.Tracer
	// OnStage, when set, observes every stage boundary: it runs after the
	// stage's pool drains but before its stats fold into the job totals,
	// so the hook may enrich stats (the observability plane charges real
	// GC pause time here) and the enrichment lands in the totals. stats
	// is the stage's own breakdown, wall the time its pool ran.
	OnStage func(stage string, stats *metrics.Breakdown, wall time.Duration)
	// Shuffle configures every exchange: memory budget (spill threshold),
	// block compression and replication. Partitions, KeyOrder and Trace
	// are filled per exchange, Injector and Lineage when unset.
	Shuffle shuffle.Config
}

// WorkerCount resolves Workers: the size of every stage's pool and the
// bound on every driver-side fan-out (map writers, reducer grouping).
func (e *Env) WorkerCount() int {
	if e.Workers <= 0 {
		return 4
	}
	return e.Workers
}

const (
	// closureBytes is the simulated closure every task ships, in both
	// modes.
	closureBytes = 4 << 10
	// chaosAttempts bounds attempts per task when an Injector is set;
	// otherwise the pool default of 3 holds.
	chaosAttempts = 4
)

// Runtime binds an Env to a compiled program and accumulates what the
// job costs. One driver goroutine uses it; the pools and exchange
// writers it starts fan out underneath.
type Runtime struct {
	Env
	C *engine.Compiled

	// Stats is the job's one cost record, charged only by RunStage and
	// ShuffleBy under the rule metrics.Breakdown states; the front-ends
	// never write it. Wall sums the time stage pools ran; Stages and
	// Tasks count what ran.
	Stats  metrics.Breakdown
	Wall   time.Duration
	Stages int
	Tasks  int

	store   *shuffle.Store
	ckpts   *recovery.CheckpointStore
	lineage *recovery.Lineage
}

// CheckpointStore resolves the job's checkpoint store: the shared store
// when one was provided, else a private one, scoped by JobID either way.
func (rt *Runtime) CheckpointStore() *recovery.CheckpointStore {
	if rt.ckpts == nil {
		store := rt.Checkpoints
		if store == nil {
			store = recovery.NewCheckpointStore()
		}
		if rt.JobID != "" {
			store = store.Scope(rt.JobID)
		}
		rt.ckpts = store
	}
	return rt.ckpts
}

// lineageRegistry resolves the job's lineage registry like
// CheckpointStore. Exchange names repeat across jobs ("shuffle-1-…",
// "IUF-shuffle"), so an unscoped shared registry would alias producers.
func (rt *Runtime) lineageRegistry() *recovery.Lineage {
	if rt.lineage == nil {
		reg := rt.Lineage
		if reg == nil {
			reg = recovery.NewLineage()
		}
		if rt.JobID != "" {
			reg = reg.Scope(rt.JobID)
		}
		rt.lineage = reg
	}
	return rt.lineage
}

// LiveBlocks reports how many shuffle blocks the job's store still
// holds. Every exchange releases its blocks when it is fetched or
// abandoned, so between exchanges this is 0 — the leak tests assert it.
func (rt *Runtime) LiveBlocks() int {
	if rt.store == nil {
		return 0
	}
	return rt.store.Len()
}

// guard runs fn under the stage watchdog (a plain call when
// StageDeadline is 0).
func (rt *Runtime) guard(name string, fn func() (any, error)) (any, error) {
	return recovery.Watchdog{Deadline: rt.StageDeadline, Trace: rt.Trace}.Guard(name, fn)
}

// RunStage runs one stage — specs on a pool of executors with heap
// configuration hc — and returns the task outputs in spec order. The
// stage span is a child of parent, or a root span when parent is nil.
//
// Task names are the identity everything deterministic hangs off: the
// fault plan and the checkpoint key of a task derive from spec.Name
// alone, so the same name yields the same plan in every mode and
// front-end.
func (rt *Runtime) RunStage(name string, parent *trace.Span, hc heap.Config, specs []engine.TaskSpec) ([][]byte, error) {
	if err := engine.Canceled(rt.Canceled); err != nil {
		return nil, fmt.Errorf("stage %s: %w", name, err)
	}
	if len(specs) == 0 {
		return nil, nil
	}
	if err := rt.C.CompileDriver(specs[0].Driver); err != nil {
		return nil, fmt.Errorf("compiling %s: %w", specs[0].Driver, err)
	}
	for i := range specs {
		specs[i].ClosureBytes = closureBytes
		specs[i].Faults = rt.Injector.ForTask(specs[i].Name)
	}
	if rt.CheckpointEvery > 0 {
		store := rt.CheckpointStore()
		for i := range specs {
			specs[i].CheckpointEvery = rt.CheckpointEvery
			specs[i].Checkpoints = store
		}
	}
	// EnsureTrace is mutex-guarded: jobs sharing one breaker may reach
	// this line concurrently (a bare check-then-set here was a data race
	// under multi-tenant load).
	rt.Breaker.EnsureTrace(rt.Trace)
	tasks := trace.I64("tasks", int64(len(specs)))
	var span *trace.Span
	if parent != nil {
		span = parent.Child("stage", name, tasks)
	} else {
		span = rt.Trace.StartSpan("stage", name, trace.Str("mode", rt.Mode.String()), tasks)
	}

	chaos := rt.Injector != nil
	pool := &engine.Pool{Workers: rt.WorkerCount()}
	if chaos {
		pool.MaxAttempts = chaosAttempts
	}
	exec := func() *engine.Executor {
		return &engine.Executor{
			C: rt.C, Mode: rt.Mode, HeapCfg: hc, Backend: rt.Backend,
			Breaker: rt.Breaker, VerifyInputs: chaos,
			HedgeAfter: rt.HedgeAfter, Trace: rt.Trace, Tenant: rt.Tenant,
		}
	}
	run := func() (any, error) { return pool.Run(exec, specs) }
	start := time.Now()
	// A stage whose deadline expires is presumed hung, not wrong: it is
	// re-executed once from scratch, and checkpointed tasks resume from
	// their last persisted fold state instead of repeating finished work.
	res, err := rt.guard(name, run)
	if errors.Is(err, recovery.ErrStageTimeout) {
		res, err = rt.guard(name+"#retry", run)
	}
	wall := time.Since(start)
	// The pool returns partial results alongside a job error; fold them
	// in either way so a failed stage's completed tasks still show up in
	// the accounting.
	if job, _ := res.(*engine.JobResult); job != nil {
		rt.Wall += wall
		if rt.OnStage != nil {
			rt.OnStage(name, &job.Stats, wall)
		}
		rt.Stats.Add(job.Stats)
		rt.Stages++
		rt.Tasks += len(specs)
		if err == nil {
			span.End(trace.Str("outcome", "ok"))
			return job.Outputs, nil
		}
	}
	span.End(trace.Str("outcome", "error"))
	return nil, fmt.Errorf("stage %s: %w", name, err)
}

// ShuffleBy is the job's one exchange: map-side writers hash-partition
// records by canonical key bytes (budgeted buffering with sorted spills,
// optional compression) and a fetch pass assembles the reduce-side
// blocks, one per partition — merged into key order when keyOrder is
// set (the consumer folds key groups in key order), else concatenated
// in map-task order. parts[i] is everything map task i produced
// — every front-end hands an exchange its map outputs whole, a streaming
// window at close — and the writers fill and seal them on up to
// WorkerCount goroutines, so up to that many map outputs' buffers live
// at once. Writers hold views into parts, which must stay unchanged
// until ShuffleBy returns. In Baseline mode the exchange pays real serde
// per record crossing it; in Gerenuk mode native bytes cross untouched
// and the fetched blocks can be adopted zero-copy. The fetch is
// cancel-polled and watchdog-guarded. A finished exchange folds its
// stats into Stats, where callers read shuffle volume.
//
// Any error abandons the exchange: spill runs are deleted and published
// blocks released, so a failed job leaves nothing in SpillDir or the
// store. Lineage producers live from the last write to the end of the
// fetch, so a shared registry holds nothing for a finished exchange.
func (rt *Runtime) ShuffleBy(name, class, keyField string, partitions int, keyOrder bool, parts [][]byte) ([][]byte, error) {
	cfg := rt.Shuffle
	cfg.Partitions = partitions
	cfg.KeyOrder = keyOrder
	cfg.Trace = rt.Trace
	if cfg.Injector == nil {
		cfg.Injector = rt.Injector
	}
	if cfg.Lineage == nil {
		cfg.Lineage = rt.lineageRegistry()
	}
	var codec *serde.Codec
	if rt.Mode == engine.Baseline {
		codec = rt.C.Codec
	}
	if rt.store == nil {
		rt.store = shuffle.NewStore()
	}
	// The key field is validated up front, so a missing one errors even
	// when every partition turns out empty.
	ex, err := shuffle.NewExchange(rt.store, cfg, name, rt.C.Layouts, class, keyField, codec)
	if err != nil {
		return nil, err
	}
	fail := func(err error) ([][]byte, error) {
		ex.Discard()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := engine.ForEach(rt.WorkerCount(), len(parts), func(i int) error {
		return writeSealed(ex.Writer(i), parts[i])
	}); err != nil {
		return fail(err)
	}
	// Block lineage: losing every replica of a map task's output re-runs
	// exactly its write over the retained part, whose determinism makes
	// the rebuilt blocks byte-identical to the lost ones. The registry may
	// outlive the job, so the closure captures the exchange, not the
	// runtime; the exchange releases it when the fetch is over.
	for i, part := range parts {
		cfg.Lineage.Register(name, i, func() error { return writeSealed(ex.RecoveryWriter(i), part) })
	}
	if err := engine.Canceled(rt.Canceled); err != nil {
		return fail(err)
	}
	res, err := rt.guard(name+"/fetch", func() (any, error) { return ex.FetchAll() })
	if err != nil {
		return fail(err)
	}
	st := ex.Stats()
	st.AddTo(&rt.Stats)
	// Exactly what AddTo attributed: the exchange nets to zero in Compute.
	rt.Stats.Total += st.WriteTime + st.ReadTime + st.SerTime + st.DeserTime
	blocks, _ := res.([][]byte)
	return blocks, nil
}

// writeSealed feeds part through w in one Add and seals it. A failed Add
// abandons w, so its spill runs leave the disk; a failed Close deletes
// them itself.
func writeSealed(w *shuffle.Writer, part []byte) error {
	if err := w.Add(part); err != nil {
		w.Abandon()
		return err
	}
	return w.Close()
}
