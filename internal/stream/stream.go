// Package stream is the micro-batch streaming subsystem: it runs the
// existing SER pipelines (map stage, shuffle, per-key reduce fold)
// continuously over unbounded record sources instead of once over a
// fixed input.
//
// Records arrive on a deterministic simulated clock; the driver cuts
// them into micro-batches (by count or by time-slice). One feed puts a
// batch into windows: it assigns each record to its tumbling or sliding
// window(s), runs the map driver over the batch, and appends each map
// slot's output to its window as that batch's segment — the window's
// only live state. The feed checkpoints exactly the segments it added
// and the window's meta; a rebuild after a lost checkpoint replays the
// run's own batches through the same feed. When the watermark passes a
// window's end, the window closes: each slot's segments, joined once,
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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	// many batches, once the last batch's cursor is saved and before
	// closing any window the watermark has passed — the kill-mid-window
	// test hook. Resume picks checkpointed state back up: already-closed
	// windows are emitted from their saved outputs and open windows are
	// restored from their saved segments. A window whose checkpoint is
	// missing, corrupt, of another format, or ahead of the saved cursor
	// (a kill between a batch's window saves and its cursor save) is
	// rebuilt by replaying the run's batches up to the cursor.
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

// windowState is one open window's live aggregation state: segs[m][b]
// is map slot m's output from the b-th batch that fed the window (empty
// when that batch put no record in the slot). Each segment is saved
// once, by the feed that made it; joined per slot, they are the parts
// the window's exchange shuffles at close.
type windowState struct {
	idx  int
	segs [][][]byte
	// records counts records folded into this window (drives the
	// round-robin slot assignment).
	records int64
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
	stage := fmt.Sprintf("stream-%s-map", r.cfg.App.Name)
	crashed := 0
	for r.closed < r.cfg.Windows {
		if err := engine.Canceled(r.cfg.Canceled); err != nil {
			return fmt.Errorf("stream: %s: %w", r.cfg.App.Name, err)
		}
		lo := r.cursor
		hi := r.cutBatch(lo)
		if hi > lo {
			bspan := r.span.Child("stream", "batch", trace.I64("records", hi-lo))
			bstart := time.Now()
			if err := r.feed(bspan, stage, lo, hi, -1); err != nil {
				bspan.End(trace.Str("outcome", "error"))
				return err
			}
			r.cursor = hi
			r.res.Batches++
			r.res.Records += hi - lo
			r.ckpts.Save(r.cursorKey(), int(r.res.Batches), binary.LittleEndian.AppendUint64(nil, uint64(hi)))
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

// cutBatch applies the cut policy from record lo and returns the batch's
// end: the batch [lo, hi) closes at Count records, at a Slice of arrival
// time, or when the source passes the last requested window's end.
func (r *runner) cutBatch(lo int64) int64 {
	stopT := r.windowEnd(r.cfg.Windows - 1)
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
	return hi
}

func (r *runner) exName(w int) string {
	return fmt.Sprintf("stream-%s-w%d", r.cfg.App.Name, w)
}

// ---- checkpoint keys ----

func (r *runner) cursorKey() string {
	return fmt.Sprintf("stream/%s/cursor", r.cfg.App.Name)
}

// windowKey prefixes every key of window w's open state; closing the
// window drops them all.
func (r *runner) windowKey(w int) string {
	return fmt.Sprintf("stream/%s/w%d/", r.cfg.App.Name, w)
}
func (r *runner) segKey(w, m, b int) string {
	return r.windowKey(w) + fmt.Sprintf("m%d/b%d", m, b)
}
func (r *runner) metaKey(w int) string {
	return r.windowKey(w) + "meta"
}
func (r *runner) outKey(w int) string {
	return fmt.Sprintf("stream/%s/out/w%d", r.cfg.App.Name, w)
}

// feed is the one way records reach a window. It stages records
// [lo, hi) into the slots of the open windows they fall in (only window
// only, when only >= 0), runs the map driver over every staged slot in
// one stage named stage, and appends each slot's output to its window as
// this batch's segment. It then saves exactly those segments and, after
// them, the window's meta: the segment count (as Seq), the record count
// and hi, which lets resume tell a window saved past the cursor.
func (r *runner) feed(span *trace.Span, stage string, lo, hi int64, only int) error {
	staged := map[int][][]byte{}
	var order []int
	for i := lo; i < hi; i++ {
		wlo, whi := r.windowRange(r.arrival(i))
		// Windows past the requested horizon never close; don't build
		// state for them.
		wlo, whi = max(wlo, r.closed), min(whi, r.cfg.Windows-1)
		if only >= 0 {
			wlo, whi = max(wlo, only), min(whi, only)
		}
		if wlo > whi {
			continue
		}
		obj := r.src.At(i)
		for w := wlo; w <= whi; w++ {
			st := r.open[w]
			if st == nil {
				st = &windowState{idx: w, segs: make([][][]byte, mapSlots)}
				r.open[w] = st
			}
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
	for _, w := range order {
		b := len(r.open[w].segs[0])
		for m, buf := range staged[w] {
			if len(buf) > 0 {
				specs = append(specs, engine.TaskSpec{
					Name:        fmt.Sprintf("stream-%s-w%d-b%d-m%d", r.cfg.App.Name, w, b, m),
					Driver:      r.cfg.App.MapDriver,
					Invocations: []map[string]engine.Input{{"in": {Class: r.cfg.App.InClass, Buf: buf}}},
				})
			}
		}
	}
	outs, err := r.rt.RunStage(stage, span, r.cfg.HeapCfg, specs)
	if err != nil {
		return fmt.Errorf("stream: map phase: %w", err)
	}
	for _, w := range order {
		st := r.open[w]
		b := len(st.segs[0])
		for m, buf := range staged[w] {
			var seg []byte
			if len(buf) > 0 {
				seg, outs = outs[0], outs[1:]
			}
			st.segs[m] = append(st.segs[m], seg)
			r.ckpts.Save(r.segKey(w, m, b), b, seg)
		}
		meta := binary.LittleEndian.AppendUint64(nil, uint64(st.records))
		r.ckpts.Save(r.metaKey(w), b+1, binary.LittleEndian.AppendUint64(meta, uint64(hi)))
	}
	return nil
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
	r.ckpts.DropPrefix(r.windowKey(w))
	r.ckpts.Save(r.outKey(w), w, out)
	r.res.Windows = append(r.res.Windows, out)
	r.cfg.Trace.Registry().Counter("stream_windows_total").Add(1)
	wspan.End(trace.Str("outcome", "ok"), trace.I64("bytes", int64(len(out))))
	return nil
}

// foldWindow shuffles a window's slot bytes — one map task per slot —
// and folds each key group. A slot's bytes are its segments joined: all
// it was fed, in arrival order, so one Add reproduces the shuffle
// sequence numbers, and with them the block bytes, of any batching.
func (r *runner) foldWindow(span *trace.Span, st *windowState) ([]byte, error) {
	app := r.cfg.App
	parts := make([][]byte, mapSlots)
	for m, segs := range st.segs {
		parts[m] = slices.Concat(segs...)
	}
	// Canonical reduce order: each fetched block arrives merged into key
	// order, same-key records in (map slot, seq) order, so fold order is
	// deterministic.
	blocks, err := r.rt.ShuffleBy(r.exName(st.idx), app.MapOutClass, app.KeyField, r.cfg.Reducers, true, parts)
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
// every open window's segments. A cursor of the wrong size counts as no
// checkpoint (a fresh start); an open window that restore refuses is
// rebuilt from the deterministic source — slower, never wrong.
func (r *runner) resume() error {
	ck, ok, _ := r.ckpts.Load(r.cursorKey())
	if !ok || len(ck.Data) != 8 {
		return nil
	}
	r.cursor = int64(binary.LittleEndian.Uint64(ck.Data))
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
	for w := r.closed; w < maxW; w++ {
		if !r.restore(w) {
			if err := r.rebuild(w); err != nil {
				return err
			}
			continue
		}
		r.res.Resumed++
		r.cfg.Trace.Registry().Counter("stream_window_resumes_total").Add(1)
		r.cfg.Trace.Instant("stream", "window-resume",
			trace.I64("idx", int64(w)), trace.I64("records", r.open[w].records))
	}
	return nil
}

// restore loads window w's segments, every one its meta counts. It
// refuses — leaving w unopened — when the meta is missing, corrupt or
// not 16 bytes (a checkpoint of another format), when the meta was
// saved by a batch past the cursor (a kill between that batch's window
// saves and its cursor save), or when a counted segment is missing or
// corrupt.
func (r *runner) restore(w int) bool {
	meta, ok, _ := r.ckpts.Load(r.metaKey(w))
	if !ok || len(meta.Data) != 16 || int64(binary.LittleEndian.Uint64(meta.Data[8:])) > r.cursor {
		return false
	}
	st := &windowState{idx: w, segs: make([][][]byte, mapSlots),
		records: int64(binary.LittleEndian.Uint64(meta.Data))}
	for m := range st.segs {
		for b := 0; b < meta.Seq; b++ {
			sc, ok, _ := r.ckpts.Load(r.segKey(w, m, b))
			if !ok {
				return false
			}
			st.segs[m] = append(st.segs[m], sc.Data)
		}
	}
	r.open[w] = st
	return true
}

// rebuild recomputes window w after its checkpoint is lost by replaying
// the run's own cuts from record 0 up to the cursor through feed: the
// map stages re-run (fault injection live) over the same batches, so
// the segments it re-saves are the ones the lost checkpoint held.
func (r *runner) rebuild(w int) error {
	stage := fmt.Sprintf("stream-%s-w%d-rebuild", r.cfg.App.Name, w)
	for lo := int64(0); lo < r.cursor; {
		hi := min(r.cutBatch(lo), r.cursor)
		if hi == lo {
			break
		}
		if err := r.feed(r.span, stage, lo, hi, w); err != nil {
			return fmt.Errorf("stream: rebuild window %d: %w", w, err)
		}
		lo = hi
	}
	st := r.open[w]
	if st == nil {
		// No ingested record falls in w: there was nothing to lose.
		return nil
	}
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
