// Package stream is the micro-batch streaming subsystem: it runs the
// existing SER pipelines (map stage, shuffle, per-key reduce fold)
// continuously over unbounded record sources instead of once over a
// fixed input.
//
// Records arrive on a deterministic simulated clock; the driver cuts
// them into micro-batches (by count or by time-slice), assigns each
// record to its tumbling or sliding window(s), runs the map driver over
// the batch, and appends the map output to each open window's per-slot
// bytes — the window's only live state, and what its checkpoints hold.
// When the watermark passes a window's end, the window closes: its bytes
// cross one job.Runtime.ShuffleBy exchange (the one Spark and Hadoop
// use), the reduce fold runs over the fetched blocks, and the window's
// canonical output bytes are emitted.
//
// Everything is deterministic given (seed, cut policy, window policy):
// a streamed run, a one-giant-batch run, and a resumed-after-crash run
// all produce byte-identical window outputs, in both execution modes
// and on both backends. That byte-equality is the paper's correctness
// contract carried over to streaming, and what the differential tests
// assert.
package stream

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/shuffle"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cut is the micro-batch cut policy: a batch closes when it holds Count
// records or spans Slice of simulated arrival time, whichever comes
// first (zero disables that trigger; both zero defaults to 32 records).
type Cut struct {
	Count int
	Slice time.Duration
}

// Window is the aggregation window policy on the simulated arrival
// clock. Slide == 0 (or == Size) is tumbling; Slide < Size is sliding,
// with each record folded into every window covering its arrival.
type Window struct {
	Size  time.Duration
	Slide time.Duration
}

// ErrCrashed is returned when the CrashAfterBatches test hook stops the
// run mid-window, leaving checkpointed state behind for a Resume run.
var ErrCrashed = errors.New("stream: crashed by test hook")

// Config configures one streaming run. The run-environment knobs (Mode
// through Canceled, minus the stream-shaped ones) mean exactly what the
// same-named job.Env fields document. They stay a flat list here, not an
// embedded job.Env, only because the repo benchmark builds this struct
// with a composite literal (perfbench/workloads.go) and a benchmark file
// may change only in a benchmark PR; env and WithEnv below are the one
// place that maps them, and embedding is the next benchmark PR's to do.
type Config struct {
	App     AppSpec
	Mode    engine.Mode
	Backend engine.Backend
	// Workers sizes the task pool; Reducers the number of shuffle
	// partitions (= reduce tasks) per window.
	Workers  int
	Reducers int
	HeapCfg  heap.Config

	// Seed drives the record source and the arrival jitter.
	Seed int64
	// Interval is the simulated mean inter-arrival gap.
	Interval time.Duration
	CutBy    Cut
	WindowBy Window
	// Windows is how many windows to run to completion.
	Windows int

	Breaker    *engine.Breaker
	HedgeAfter time.Duration
	// CheckpointEvery is the per-task resume knob; window-state
	// checkpointing is always on.
	CheckpointEvery int
	StageDeadline   time.Duration
	Injector        *faults.Injector
	Trace           *trace.Tracer
	Shuffle         shuffle.Config
	// Checkpoints is also where window state persists — pass a
	// disk-backed store to survive process restarts.
	Checkpoints *recovery.CheckpointStore
	Lineage     *recovery.Lineage
	JobID       string
	Tenant      string
	// Canceled is additionally polled at every batch boundary.
	Canceled <-chan struct{}

	// CrashAfterBatches > 0 stops the run with ErrCrashed after that
	// many batches, before closing any window the watermark has passed —
	// the kill-mid-window test hook. Resume picks checkpointed state
	// back up: already-closed windows are emitted from their saved
	// outputs and open windows are rebuilt from their slot checkpoints
	// (or recomputed from the source when a checkpoint is corrupt).
	CrashAfterBatches int
	Resume            bool
}

// env maps the flat run-environment fields onto the job runtime's value.
func (c Config) env() job.Env {
	return job.Env{
		Identity: job.Identity{
			Tenant: c.Tenant, JobID: c.JobID, Breaker: c.Breaker,
			Checkpoints: c.Checkpoints, Lineage: c.Lineage, Canceled: c.Canceled,
		},
		Mode: c.Mode, Backend: c.Backend, Workers: c.Workers, HedgeAfter: c.HedgeAfter,
		CheckpointEvery: c.CheckpointEvery, StageDeadline: c.StageDeadline, Injector: c.Injector,
		Trace: c.Trace, Shuffle: c.Shuffle,
	}
}

// WithEnv is env's inverse: c with its run-environment fields set from e
// (OnStage has no flat counterpart; streaming runs have no stage hook).
func (c Config) WithEnv(e job.Env) Config {
	c.Tenant, c.JobID, c.Breaker = e.Tenant, e.JobID, e.Breaker
	c.Checkpoints, c.Lineage, c.Canceled = e.Checkpoints, e.Lineage, e.Canceled
	c.Mode, c.Backend, c.Workers, c.HedgeAfter = e.Mode, e.Backend, e.Workers, e.HedgeAfter
	c.CheckpointEvery, c.StageDeadline, c.Injector = e.CheckpointEvery, e.StageDeadline, e.Injector
	c.Trace, c.Shuffle = e.Trace, e.Shuffle
	return c
}

// mapSlots is the number of live map writers (shuffle producers) per
// window; a record's slot is its index within the window mod mapSlots.
const mapSlots = 2

func (c Config) withDefaults() Config {
	if c.Reducers <= 0 {
		c.Reducers = 2
	}
	if c.HeapCfg.YoungSize == 0 {
		c.HeapCfg = heap.Config{YoungSize: 128 << 10, OldSize: 2 << 20}
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.CutBy.Count <= 0 && c.CutBy.Slice <= 0 {
		c.CutBy.Count = 32
	}
	if c.WindowBy.Size <= 0 {
		c.WindowBy.Size = 16 * c.Interval
	}
	if c.WindowBy.Slide <= 0 || c.WindowBy.Slide > c.WindowBy.Size {
		c.WindowBy.Slide = c.WindowBy.Size
	}
	if c.Windows <= 0 {
		c.Windows = 4
	}
	return c
}

// Result is the outcome of a streaming run.
type Result struct {
	// Windows holds each closed window's canonical output bytes, in
	// window order — the byte-equality surface.
	Windows [][]byte
	// Records/Batches count source records ingested and micro-batches
	// processed by this run (a resumed run counts only its own).
	Records int64
	Batches int64
	// Resumed counts windows restored from checkpointed state; Rebuilt
	// counts windows recomputed from the source after checkpoint loss.
	Resumed int64
	Rebuilt int64
	Wall    time.Duration
	Stats   metrics.Breakdown
	// ShuffleBytes is Stats.ShuffleBytesFetched: the window exchanges' volume.
	ShuffleBytes int64
	// BatchP50/BatchP99 are batch processing latency quantiles;
	// RecordsPerSec is sustained ingest throughput over the run's wall
	// time.
	BatchP50      time.Duration
	BatchP99      time.Duration
	RecordsPerSec float64
}

// windowState is one open window's live aggregation state: the per-slot
// accumulated map-output bytes, which are both the checkpoint payload and
// the parts the window's exchange shuffles at close.
type windowState struct {
	idx int
	acc [][]byte
	// records counts records folded into this window (drives the
	// round-robin slot assignment); flushes counts the batches that fed
	// it (the checkpoint sequence number); saved is flushes as of the
	// window's last checkpoint.
	records int64
	flushes int
	saved   int
}

type runner struct {
	cfg    Config
	rt     *job.Runtime
	src    *workload.Unbounded
	ckpts  *recovery.CheckpointStore
	res    *Result
	span   *trace.Span
	hist   *trace.Histogram
	open   map[int]*windowState
	cursor int64
	// closed is the number of windows emitted so far (windows close in
	// index order, so it is also the next window to close).
	closed int
	lats   []time.Duration
}

// Run executes one streaming run to completion (cfg.Windows windows).
func Run(cfg Config) (*Result, error) {
	r := newRunner(cfg)
	err := r.run()
	return r.res, err
}

func newRunner(cfg Config) *runner {
	cfg = cfg.withDefaults()
	rt := &job.Runtime{Env: cfg.env(), C: cfg.App.NewProgram()}
	return &runner{
		cfg: cfg, rt: rt, src: cfg.App.Source(cfg.Seed),
		ckpts: rt.CheckpointStore(), res: &Result{}, open: map[int]*windowState{},
	}
}

func (r *runner) run() error {
	cfg := r.cfg
	r.hist = cfg.Trace.Registry().Histogram(
		trace.Name("stream_batch_latency_ns", "app", cfg.App.Name, "mode", cfg.Mode.String()),
		trace.LatencyBuckets()...)
	r.span = cfg.Trace.StartSpan("stream", "run-"+cfg.App.Name,
		trace.Str("mode", cfg.Mode.String()), trace.I64("windows", int64(cfg.Windows)))

	start := time.Now()
	err := r.loop()
	r.res.Wall = time.Since(start)
	r.res.Stats = r.rt.Stats
	r.res.ShuffleBytes = r.rt.Stats.ShuffleBytesFetched
	r.finishStats()
	outcome := "ok"
	switch {
	case errors.Is(err, ErrCrashed):
		outcome = "crashed"
	case errors.Is(err, engine.ErrCanceled):
		outcome = "canceled"
	case err != nil:
		outcome = "error"
	}
	r.span.End(trace.Str("outcome", outcome))
	return err
}

// loop is the streaming driver: resume, then cut/process/checkpoint/
// close until cfg.Windows windows have been emitted.
func (r *runner) loop() error {
	if r.cfg.Resume {
		if err := r.resume(); err != nil {
			return err
		}
	}
	stopT := r.windowEnd(r.cfg.Windows - 1)
	crashed := 0
	for r.closed < r.cfg.Windows {
		if err := engine.Canceled(r.cfg.Canceled); err != nil {
			return fmt.Errorf("stream: %s: %w", r.cfg.App.Name, err)
		}
		lo, hi := r.cutBatch(stopT)
		if hi > lo {
			bspan := r.span.Child("stream", "batch", trace.I64("records", hi-lo))
			bstart := time.Now()
			if err := r.processBatch(bspan, lo, hi); err != nil {
				bspan.End(trace.Str("outcome", "error"))
				return err
			}
			r.cursor = hi
			r.res.Batches++
			r.res.Records += hi - lo
			r.checkpoint()
			lat := time.Since(bstart)
			r.lats = append(r.lats, lat)
			r.hist.Observe(float64(lat.Nanoseconds()))
			reg := r.cfg.Trace.Registry()
			reg.Counter("stream_batches_total").Add(1)
			reg.Counter("stream_records_total").Add(hi - lo)
			bspan.End(trace.Str("outcome", "ok"))
			crashed++
			if r.cfg.CrashAfterBatches > 0 && crashed >= r.cfg.CrashAfterBatches {
				return fmt.Errorf("stream: %s after %d batches: %w",
					r.cfg.App.Name, crashed, ErrCrashed)
			}
		}
		// Advance the watermark: the next record's arrival bounds every
		// earlier window; once the source is past the last requested
		// window, everything still open is complete.
		watermark := r.arrival(r.cursor)
		for r.closed < r.cfg.Windows &&
			(watermark >= stopT || r.windowEnd(r.closed) <= watermark) {
			if err := r.closeWindow(r.closed); err != nil {
				return err
			}
			r.closed++
		}
	}
	return nil
}

// arrival is the simulated arrival clock: record i lands at i*Interval
// plus deterministic jitter in [0, Interval/2) — strictly monotonic, so
// batch cuts and window assignment are total-order stable.
func (r *runner) arrival(i int64) time.Duration {
	base := time.Duration(i) * r.cfg.Interval
	half := r.cfg.Interval / 2
	if half <= 0 {
		return base
	}
	return base + time.Duration(workload.Hash(r.cfg.Seed, i)%uint64(half))
}

func (r *runner) windowEnd(w int) time.Duration {
	return time.Duration(w)*r.cfg.WindowBy.Slide + r.cfg.WindowBy.Size
}

// windowRange returns the inclusive [lo, hi] window indices covering
// arrival time t.
func (r *runner) windowRange(t time.Duration) (int, int) {
	hi := int(t / r.cfg.WindowBy.Slide)
	lo := 0
	if t >= r.cfg.WindowBy.Size {
		lo = int((t-r.cfg.WindowBy.Size)/r.cfg.WindowBy.Slide) + 1
	}
	return lo, hi
}

// cutBatch applies the cut policy from the current cursor: the batch
// [lo, hi) closes at Count records, at a Slice of arrival time, or when
// the source passes the last requested window's end.
func (r *runner) cutBatch(stopT time.Duration) (int64, int64) {
	lo := r.cursor
	first := r.arrival(lo)
	hi := lo
	for {
		t := r.arrival(hi)
		if t >= stopT {
			break
		}
		if r.cfg.CutBy.Count > 0 && hi-lo >= int64(r.cfg.CutBy.Count) {
			break
		}
		if r.cfg.CutBy.Slice > 0 && hi > lo && t-first >= r.cfg.CutBy.Slice {
			break
		}
		hi++
	}
	return lo, hi
}

// window returns (creating on first touch) window w's live state.
func (r *runner) window(w int) *windowState {
	st, ok := r.open[w]
	if !ok {
		st = &windowState{idx: w, acc: make([][]byte, mapSlots)}
		r.open[w] = st
	}
	return st
}

func (r *runner) exName(w int) string {
	return fmt.Sprintf("stream-%s-w%d", r.cfg.App.Name, w)
}

// ---- checkpoint keys ----

func (r *runner) cursorKey() string {
	return fmt.Sprintf("stream/%s/cursor", r.cfg.App.Name)
}
func (r *runner) slotKey(w, m int) string {
	return fmt.Sprintf("stream/%s/w%d/m%d", r.cfg.App.Name, w, m)
}
func (r *runner) metaKey(w int) string {
	return fmt.Sprintf("stream/%s/w%d/meta", r.cfg.App.Name, w)
}
func (r *runner) outKey(w int) string {
	return fmt.Sprintf("stream/%s/out/w%d", r.cfg.App.Name, w)
}

func u64le(v int64) []byte {
	b := make([]byte, 8)
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(v) >> (8 * k))
	}
	return b
}

func leU64(b []byte) int64 {
	var v uint64
	for k := 0; k < 8 && k < len(b); k++ {
		v |= uint64(b[k]) << (8 * k)
	}
	return int64(v)
}

// processBatch stages records [lo, hi) into their windows' per-slot
// input buffers, runs the map driver over every staged buffer in one
// pooled phase, and appends the outputs to each window's slot bytes.
func (r *runner) processBatch(span *trace.Span, lo, hi int64) error {
	staged := map[int][][]byte{}
	var order []int
	for i := lo; i < hi; i++ {
		wlo, whi := r.windowRange(r.arrival(i))
		obj := r.src.At(i)
		for w := wlo; w <= whi; w++ {
			// Windows past the requested horizon never close; don't
			// build state for them.
			if w >= r.cfg.Windows || w < r.closed {
				continue
			}
			st := r.window(w)
			bufs, ok := staged[w]
			if !ok {
				bufs = make([][]byte, mapSlots)
				staged[w] = bufs
				order = append(order, w)
			}
			slot := int(st.records % int64(mapSlots))
			var err error
			bufs[slot], err = r.rt.C.Codec.Encode(r.cfg.App.InClass, obj, bufs[slot])
			if err != nil {
				return fmt.Errorf("stream: encoding record %d: %w", i, err)
			}
			st.records++
		}
	}
	sort.Ints(order)

	var specs []engine.TaskSpec
	type target struct{ w, m int }
	var targets []target
	for _, w := range order {
		st := r.open[w]
		for m, buf := range staged[w] {
			if len(buf) == 0 {
				continue
			}
			specs = append(specs, r.mapSpec(
				fmt.Sprintf("stream-%s-w%d-b%d-m%d", r.cfg.App.Name, w, st.flushes, m), buf))
			targets = append(targets, target{w, m})
		}
	}
	if len(specs) == 0 {
		return nil
	}
	outs, err := r.rt.RunStage(fmt.Sprintf("stream-%s-map", r.cfg.App.Name), span, r.cfg.HeapCfg, specs)
	if err != nil {
		return fmt.Errorf("stream: map phase: %w", err)
	}
	for k, out := range outs {
		tg := targets[k]
		st := r.open[tg.w]
		st.acc[tg.m] = append(st.acc[tg.m], out...)
	}
	for _, w := range order {
		r.open[w].flushes++
	}
	return nil
}

// mapSpec is one map task over one staged slot buffer.
func (r *runner) mapSpec(name string, buf []byte) engine.TaskSpec {
	return engine.TaskSpec{
		Name:   name,
		Driver: r.cfg.App.MapDriver,
		Invocations: []map[string]engine.Input{
			{"in": {Class: r.cfg.App.InClass, Buf: buf}},
		},
	}
}

// checkpoint persists the cursor and the slot state of every window a
// batch fed since its last save (the others' stored state is current),
// so a killed run resumes mid-window instead of recomputing.
func (r *runner) checkpoint() {
	for w, st := range r.open {
		if st.flushes == st.saved {
			continue
		}
		st.saved = st.flushes
		for m := range st.acc {
			r.ckpts.Save(r.slotKey(w, m), st.flushes, st.acc[m])
		}
		r.ckpts.Save(r.metaKey(w), st.flushes, u64le(st.records))
	}
	r.ckpts.Save(r.cursorKey(), int(r.res.Batches), u64le(r.cursor))
}

// closeWindow finishes window w: its slot bytes are shuffled, the reduce
// fold runs over the fetched (key-merged) blocks, and the window's
// output is emitted and durably saved.
func (r *runner) closeWindow(w int) error {
	wspan := r.span.Child("stream", "window", trace.I64("idx", int64(w)))
	st := r.open[w]
	var out []byte
	if st != nil {
		var err error
		out, err = r.foldWindow(wspan, st)
		if err != nil {
			wspan.End(trace.Str("outcome", "error"))
			return fmt.Errorf("stream: window %d: %w", w, err)
		}
		delete(r.open, w)
	}
	// else: no record landed in this window — its output is empty.
	for m := 0; m < mapSlots; m++ {
		r.ckpts.Drop(r.slotKey(w, m))
	}
	r.ckpts.Drop(r.metaKey(w))
	r.ckpts.Save(r.outKey(w), w, out)
	r.res.Windows = append(r.res.Windows, out)
	r.cfg.Trace.Registry().Counter("stream_windows_total").Add(1)
	wspan.End(trace.Str("outcome", "ok"), trace.I64("bytes", int64(len(out))))
	return nil
}

// foldWindow shuffles a window's slot bytes — one map task per slot —
// and folds each key group. A slot's bytes are everything it was fed, in
// arrival order, so one Add reproduces the shuffle sequence numbers, and
// with them the block bytes, of any batching.
func (r *runner) foldWindow(span *trace.Span, st *windowState) ([]byte, error) {
	app := r.cfg.App
	// Canonical reduce order: each fetched block arrives merged into key
	// order, same-key records in (map slot, seq) order, so fold order is
	// deterministic.
	blocks, err := r.rt.ShuffleBy(r.exName(st.idx), app.MapOutClass, app.KeyField, r.cfg.Reducers, true, st.acc)
	if err != nil {
		return nil, fmt.Errorf("shuffle: %w", err)
	}
	specs, _, err := engine.FoldSpecs(r.rt.WorkerCount(), r.rt.C.Layouts, app.ReduceDriver, app.MapOutClass, app.KeyField, blocks, true,
		func(i int) string { return fmt.Sprintf("stream-%s-w%d-red%d", app.Name, st.idx, i) })
	if err != nil {
		return nil, fmt.Errorf("grouping: %w", err)
	}
	results, err := r.rt.RunStage(fmt.Sprintf("stream-%s-w%d-reduce", app.Name, st.idx), span, r.cfg.HeapCfg, specs)
	if err != nil {
		return nil, fmt.Errorf("reduce phase: %w", err)
	}
	// Specs, hence results, are in reducer order.
	var out []byte
	for _, o := range results {
		out = append(out, o...)
	}
	return out, nil
}

// resume restores a prior run's progress from the checkpoint store:
// the ingest cursor, every already-closed window's saved output, and
// every open window's slot bytes. A corrupt or missing
// slot checkpoint falls back to recomputing that window from the
// deterministic source — slower, never wrong.
func (r *runner) resume() error {
	ck, ok, _ := r.ckpts.Load(r.cursorKey())
	if !ok {
		return nil
	}
	r.cursor = leU64(ck.Data)
	// Closed windows are a prefix: emit their saved outputs verbatim.
	for r.closed < r.cfg.Windows {
		oc, ok, _ := r.ckpts.Load(r.outKey(r.closed))
		if !ok {
			break
		}
		r.res.Windows = append(r.res.Windows, oc.Data)
		r.closed++
	}
	if r.cursor == 0 {
		return nil
	}
	maxW := r.cfg.Windows
	if _, hi := r.windowRange(r.arrival(r.cursor - 1)); hi+1 < maxW {
		maxW = hi + 1
	}
	reg := r.cfg.Trace.Registry()
	for w := r.closed; w < maxW; w++ {
		meta, ok, _ := r.ckpts.Load(r.metaKey(w))
		if !ok {
			// Never checkpointed: either untouched (fine — empty) or its
			// meta rotted; a source scan below decides which.
			if r.sourceTouches(w) {
				if err := r.rebuildFromSource(w); err != nil {
					return err
				}
			}
			continue
		}
		st := r.window(w)
		st.records = leU64(meta.Data)
		st.flushes = meta.Seq
		st.saved = meta.Seq
		intact := true
		for m := 0; m < mapSlots; m++ {
			sc, ok, corrupt := r.ckpts.Load(r.slotKey(w, m))
			if corrupt || (!ok && r.slotExpected(st, m)) {
				intact = false
				break
			}
			if ok && len(sc.Data) > 0 {
				st.acc[m] = sc.Data
			}
		}
		if !intact {
			// Drop the half-restored state and recompute.
			delete(r.open, w)
			if err := r.rebuildFromSource(w); err != nil {
				return err
			}
			continue
		}
		r.res.Resumed++
		reg.Counter("stream_window_resumes_total").Add(1)
		r.cfg.Trace.Instant("stream", "window-resume",
			trace.I64("idx", int64(w)), trace.I64("records", st.records))
	}
	return nil
}

// slotExpected reports whether round-robin assignment has placed at
// least one record in slot m of a window holding st.records records.
func (r *runner) slotExpected(st *windowState, m int) bool {
	return st.records > int64(m)
}

// sourceTouches reports whether any ingested record maps into window w.
func (r *runner) sourceTouches(w int) bool {
	for i := int64(0); i < r.cursor; i++ {
		lo, hi := r.windowRange(r.arrival(i))
		if lo <= w && w <= hi {
			return true
		}
	}
	return false
}

// rebuildFromSource recomputes window w's state by replaying the
// deterministic source over the already-ingested prefix — the fallback
// when a window checkpoint is lost or corrupt. The map phase re-runs
// (with fault injection live) over records in the original order, so
// the recovered slot bytes stay byte-identical.
func (r *runner) rebuildFromSource(w int) error {
	st := r.window(w)
	bufs := make([][]byte, mapSlots)
	for i := int64(0); i < r.cursor; i++ {
		lo, hi := r.windowRange(r.arrival(i))
		if w < lo || hi < w {
			continue
		}
		slot := int(st.records % int64(mapSlots))
		var err error
		bufs[slot], err = r.rt.C.Codec.Encode(r.cfg.App.InClass, r.src.At(i), bufs[slot])
		if err != nil {
			return fmt.Errorf("stream: rebuild window %d: %w", w, err)
		}
		st.records++
	}
	var specs []engine.TaskSpec
	var slots []int
	for m, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		specs = append(specs, r.mapSpec(fmt.Sprintf("stream-%s-w%d-rb-m%d", r.cfg.App.Name, w, m), buf))
		slots = append(slots, m)
	}
	outs, err := r.rt.RunStage(fmt.Sprintf("stream-%s-w%d-rebuild", r.cfg.App.Name, w), r.span, r.cfg.HeapCfg, specs)
	if err != nil {
		return fmt.Errorf("stream: rebuild window %d: %w", w, err)
	}
	for k, out := range outs {
		st.acc[slots[k]] = out
	}
	st.flushes = 1
	r.res.Rebuilt++
	r.cfg.Trace.Registry().Counter("stream_window_rebuilds_total").Add(1)
	r.cfg.Trace.Instant("stream", "window-rebuild",
		trace.I64("idx", int64(w)), trace.I64("records", st.records))
	return nil
}

// finishStats computes throughput and batch latency quantiles.
func (r *runner) finishStats() {
	if r.res.Wall > 0 {
		r.res.RecordsPerSec = float64(r.res.Records) / r.res.Wall.Seconds()
	}
	if len(r.lats) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), r.lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	r.res.BatchP50 = q(0.5)
	r.res.BatchP99 = q(0.99)
}
