package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/dsa"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/trace"
)

// cursor is a source's read position in one driver run: offs is the
// run's window of its input's offsets (nil scans the whole buffer) and
// pos how far into the window, or into the buffer, the run has read.
type cursor struct {
	in   Input
	offs []int
	pos  int
}

// window points the cursor at group g of its input, from the start —
// Offs[Groups[g-1]:Groups[g]], or all of Offs without Groups — and
// returns how many records the window holds.
func (c *cursor) window(g int) int64 {
	c.offs, c.pos = c.in.Offs, 0
	if gs := c.in.Groups; gs != nil {
		lo := 0
		if g > 0 {
			lo = gs[g-1]
		}
		c.offs = c.in.Offs[lo:gs[g]]
	}
	if c.offs == nil {
		return int64(recordCount(c.in.Buf))
	}
	return int64(len(c.offs))
}

// wireSource iterates size-prefixed records in a byte buffer, optionally
// restricted to explicit record offsets (one shuffle key group).
type wireSource struct{ cursor }

func (s *wireSource) NextWire() ([]byte, int, bool) {
	if s.offs != nil {
		if s.pos >= len(s.offs) {
			return nil, 0, false
		}
		off := s.offs[s.pos]
		s.pos++
		return s.in.Buf, off, true
	}
	if s.pos >= len(s.in.Buf) {
		return nil, 0, false
	}
	off := s.pos
	s.pos += serde.RecordSize(s.in.Buf, s.pos)
	return s.in.Buf, off, true
}

func (s *wireSource) Class() string { return s.in.Class }

// regionSource iterates the same records as native addresses within an
// adopted region.
type regionSource struct {
	cursor
	a      *arena.Arena
	region *arena.Region
}

func (s *regionSource) NextAddr() (int64, bool) {
	if s.offs != nil {
		if s.pos >= len(s.offs) {
			return 0, false
		}
		addr := s.region.AddrOf(s.offs[s.pos] + serde.SizePrefixBytes)
		s.pos++
		return addr, true
	}
	if s.pos >= s.region.Len() {
		return 0, false
	}
	size := s.a.ReadNative(s.region.AddrOf(s.pos), 0, 4)
	addr := s.region.AddrOf(s.pos + serde.SizePrefixBytes)
	s.pos += serde.SizePrefixBytes + int(size)
	return addr, true
}

func (s *regionSource) Class() string { return s.in.Class }

// collectSink accumulates output wire records (heap mode).
type collectSink struct{ out []byte }

func (s *collectSink) WriteWire(rec []byte, class string) error {
	s.out = append(s.out, rec...)
	return nil
}

// nativeSink accumulates sealed native records as wire bytes by
// referencing their region storage (prefix included).
type nativeSink struct {
	a   *arena.Arena
	out []byte
}

func (s *nativeSink) WriteRecord(addr int64, size int, class string) error {
	s.out = append(s.out, s.a.Slice(addr-serde.SizePrefixBytes, serde.SizePrefixBytes+size)...)
	return nil
}

func (s *nativeSink) Bytes() []byte { return s.out }

// ---- record/key utilities over wire bytes ----

// lenReader adapts a record payload (no prefix) to expr.NativeReader,
// base being an offset into it. Layout expressions read only 4-byte
// length slots; a read outside the payload returns 0 and marks the
// reader bad, which Next reports as an error.
type lenReader struct {
	b   []byte
	bad bool
}

func (r *lenReader) ReadNative(base, off int64, sz int) int64 {
	at := base + off
	if r.bad = r.bad || sz != 4 || at < 0 || at > int64(len(r.b))-4; r.bad {
		return 0
	}
	return int64(int32(binary.LittleEndian.Uint32(r.b[at:])))
}

// KeyReader extracts the canonical key bytes of one field from wire
// records of one class. The field is resolved against the class layout
// once, when the reader is built; Key then costs one offset evaluation
// per record. Both execution modes use it, mirroring how shuffle
// partitioning operates on serialized data in real systems; the inlined
// format makes key bytes canonical. A KeyReader is immutable and safe
// for concurrent use.
type KeyReader struct {
	// off is the field offset within the payload, nil when it is a
	// compile-time constant (konst): evaluating an Expr boxes the payload
	// as an expr.NativeReader, one allocation per record.
	off   *expr.Expr
	konst int64
	width int64 // byte width of a primitive key; 0 selects a string key
}

// NewKeyReader resolves field of class against layouts. The field must
// exist and be a primitive or a string.
func NewKeyReader(layouts *dsa.Result, class, field string) (*KeyReader, error) {
	l := layouts.Layout(class)
	if l == nil {
		return nil, fmt.Errorf("engine: no layout for %s", class)
	}
	fOff, ok := l.FieldOff[field]
	if !ok {
		return nil, fmt.Errorf("engine: no field %s.%s", class, field)
	}
	k := &KeyReader{off: fOff}
	if fOff.IsConst() {
		k.off, k.konst = nil, fOff.ConstValue()
	}
	f, _ := l.Class.Field(field)
	switch {
	case !f.Type.IsRef():
		k.width = int64(f.Type.Kind.Size())
	case f.Type.Class == model.StringClassName:
	default:
		return nil, fmt.Errorf("engine: key field %s.%s has unsupported type %s", class, field, f.Type)
	}
	return k, nil
}

// Key returns the key bytes of the record whose size prefix starts at
// buf[off:]. The result aliases buf. Key checks nothing: buf must hold
// records Next accepted or this process encoded.
func (k *KeyReader) Key(buf []byte, off int) []byte {
	payload := buf[off+serde.SizePrefixBytes:]
	fo := k.konst
	if k.off != nil {
		fo = k.off.Eval(&lenReader{b: payload}, 0)
	}
	n := k.width
	if n == 0 {
		n = 4 + 2*int64(int32(binary.LittleEndian.Uint32(payload[fo:])))
	}
	return payload[fo : fo+n : fo+n]
}

// Next is Key checked, the one decision that record bytes are well
// formed: the size prefix and its frame lie inside buf, and the key
// field inside the payload. It returns the key and the record's size,
// prefix included. A constant key offset allocates nothing.
func (k *KeyReader) Next(buf []byte, off int) (key []byte, size int, err error) {
	if len(buf)-off >= serde.SizePrefixBytes {
		size = serde.RecordSize(buf, off)
	}
	if size == 0 || size > len(buf)-off {
		return nil, 0, fmt.Errorf("engine: record at offset %d overruns its %d-byte buffer", off, len(buf))
	}
	p := buf[off+serde.SizePrefixBytes : off+size]
	fo, n, bad := k.konst, k.width, false
	if k.off != nil {
		r := &lenReader{b: p}
		fo = k.off.Eval(r, 0)
		bad = r.bad
	}
	if n == 0 { // a string key: [len:4][len*2]
		r := lenReader{b: p}
		l := r.ReadNative(fo, 0, 4)
		n, bad = 4+2*l, bad || r.bad || l < 0
	}
	if bad || fo < 0 || fo > int64(len(p))-n {
		return nil, 0, fmt.Errorf("engine: key field of the record at offset %d overruns its %d-byte payload", off, len(p))
	}
	return p[fo : fo+n : fo+n], size, nil
}

// Validate checks that buf is whole records Next accepts.
func (k *KeyReader) Validate(buf []byte) (err error) {
	for off, size := 0, 0; off < len(buf) && err == nil; off += size {
		_, size, err = k.Next(buf, off)
	}
	return err
}

// HashKey hashes canonical key bytes (FNV-1a).
func HashKey(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// RecordOffsets lists the start offsets of all records in a buffer.
func RecordOffsets(buf []byte) []int {
	var offs []int
	for off := 0; off < len(buf); off += serde.RecordSize(buf, off) {
		offs = append(offs, off)
	}
	return offs
}

// recordCount counts the records of a buffer, so callers can size their
// per-record slices once.
func recordCount(buf []byte) int {
	n := 0
	for off := 0; off < len(buf); off += serde.RecordSize(buf, off) {
		n++
	}
	return n
}

// GroupByKey partitions the records of buf into groups keyed by the
// canonical bytes of the key field, preserving first-seen key order and,
// within a group, record order. This is the engine-side shuffle-read
// grouping; it never deserializes. The keys alias buf, and the groups
// share one offset slice.
func GroupByKey(layouts *dsa.Result, class, field string, buf []byte) (keys [][]byte, groups [][]int, err error) {
	k, err := NewKeyReader(layouts, class, field)
	if err != nil {
		return nil, nil, err
	}
	keys, offs, ends := k.group(buf)
	groups = make([][]int, len(ends))
	start := 0
	for g, end := range ends {
		groups[g] = offs[start:end:end]
		start = end
	}
	return keys, groups, nil
}

// group is GroupByKey over a resolved key, in the form Input.Groups
// takes: offs lists every record's offset, group by group, and ends[g]
// is the end index of group g in offs. A fetched reducer buffer is
// key-ordered, or a concatenation of key-ordered map blocks, so a record
// whose key repeats its predecessor's joins that group without a map
// lookup. A first pass assigns every record its group and counts group
// sizes, a second fills the offsets in.
func (k *KeyReader) group(buf []byte) (keys [][]byte, offs, ends []int) {
	n := recordCount(buf)
	if n == 0 {
		return nil, nil, nil
	}
	gid := make([]int, n)
	var counts []int
	index := make(map[string]int)
	var prev []byte
	cur := -1
	i := 0
	for off := 0; off < len(buf); off += serde.RecordSize(buf, off) {
		key := k.Key(buf, off)
		if cur < 0 || !bytes.Equal(key, prev) {
			g, seen := index[string(key)]
			if !seen {
				g = len(keys)
				index[string(key)] = g
				keys = append(keys, key)
				counts = append(counts, 0)
			}
			cur, prev = g, key
		}
		gid[i] = cur
		counts[cur]++
		i++
	}
	// counts becomes each group's fill position: its start in offs.
	ends = make([]int, len(counts))
	end := 0
	for g, c := range counts {
		counts[g] = end
		end += c
		ends[g] = end
	}
	offs = make([]int, n)
	i = 0
	for off := 0; off < len(buf); off += serde.RecordSize(buf, off) {
		offs[counts[gid[i]]] = off
		counts[gid[i]]++
		i++
	}
	return keys, offs, ends
}

// FoldSpecs builds the reduce-side stage over shuffled blocks: one task
// per non-empty block, whose one binding runs driver once per key group
// of the block (source "in"). The blocks are grouped on up to workers
// goroutines; specs stay in block order. name(i) names block i's task
// and blockOf maps each spec back to its block. owned marks the blocks
// as freshly assembled for their task alone, letting the native attempt
// adopt them zero-copy.
func FoldSpecs(workers int, layouts *dsa.Result, driver, class, field string, blocks [][]byte,
	owned bool, name func(block int) string) (specs []TaskSpec, blockOf []int, err error) {
	k, err := NewKeyReader(layouts, class, field)
	if err != nil {
		return nil, nil, err
	}
	bindings := make([]map[string]Input, len(blocks))
	ForEach(workers, len(blocks), func(i int) error {
		if _, offs, ends := k.group(blocks[i]); len(ends) > 0 {
			bindings[i] = map[string]Input{
				"in": {Class: class, Buf: blocks[i], Offs: offs, Groups: ends, Owned: owned},
			}
		}
		return nil
	})
	for i, b := range bindings {
		if b == nil {
			continue
		}
		specs = append(specs, TaskSpec{Name: name(i), Driver: driver, Invocations: bindings[i : i+1 : i+1]})
		blockOf = append(blockOf, i)
	}
	return specs, blockOf, nil
}

// Partition splits records of buf into n hash partitions by key field.
func Partition(layouts *dsa.Result, class, field string, buf []byte, n int) ([][]byte, error) {
	k, err := NewKeyReader(layouts, class, field)
	if err != nil {
		return nil, err
	}
	parts := make([][]byte, n)
	for off := 0; off < len(buf); {
		size := serde.RecordSize(buf, off)
		p := int(HashKey(k.Key(buf, off)) % uint64(n))
		parts[p] = append(parts[p], buf[off:off+size]...)
		off += size
	}
	return parts, nil
}

// ---- worker pool ----

// Pool runs tasks across a fixed set of worker executors, mirroring the
// multi-executor worker nodes of the paper's cluster. MaxAttempts
// configures the task retry policy: transient faults retry at once on a
// fresh executor, OOM faults retry on a fresh executor with an escalated
// heap configuration, and everything else fails fast.
type Pool struct {
	Workers int
	// MaxAttempts bounds attempts per task for retryable faults
	// (default 3; 1 disables retries).
	MaxAttempts int
}

// ForEach runs fn(0), …, fn(n-1) on at most workers goroutines, the
// caller's among them (<= 1 runs them in order on the caller's alone),
// and returns the error of the lowest index that failed, so error
// reporting does not depend on scheduling. Indices are claimed in
// ascending order and every claimed index runs, so every index below a
// failed one has run; once a failure is seen no further index is
// claimed. This is the one fan-out the front-ends' driver-side work (map
// writers, reducer fetches, key grouping, sorts) goes through, sized by
// the same Workers knob as a stage's Pool.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// JobResult aggregates a set of task results.
type JobResult struct {
	Outputs [][]byte
	Stats   metrics.Breakdown // summed across tasks; peaks summed across workers
	Wall    metrics.Breakdown // wall-clock Total only, measured around the whole Run
}

// Run executes all tasks on w workers, each task attempt on a fresh
// executor state. Task outputs are returned in task order. Every task
// runs regardless of other tasks' failures; when any fail, Run returns
// a *JobError listing all of them (first-error-wins is gone — a lost
// task no longer hides the rest of the job's outcome) ALONGSIDE the
// partial JobResult: the successful tasks' outputs and the aggregated
// Stats survive, so callers can surface partial accounting instead of
// discarding everything a mostly-healthy job computed.
func (p *Pool) Run(exec func() *Executor, specs []TaskSpec) (*JobResult, error) {
	start := time.Now()
	if len(specs) == 0 {
		return &JobResult{}, nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(specs) {
		// Never spawn executors that could not receive a task.
		workers = len(specs)
	}
	type outcome struct {
		res TaskResult
		err error
	}
	results := make([]outcome, len(specs))
	var wg sync.WaitGroup
	// Workers claim task indices from one counter, as ForEach does.
	var next atomic.Int64
	workerPeaks := make([]metrics.Breakdown, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := exec()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				res, err := p.runWithRetry(e, exec, specs[i])
				results[i] = outcome{res, err}
				if res.Stats.PeakHeapBytes > workerPeaks[w].PeakHeapBytes {
					workerPeaks[w].PeakHeapBytes = res.Stats.PeakHeapBytes
				}
				if res.Stats.PeakNativeBytes > workerPeaks[w].PeakNativeBytes {
					workerPeaks[w].PeakNativeBytes = res.Stats.PeakNativeBytes
				}
			}
		}(w)
	}
	wg.Wait()

	job := &JobResult{}
	var failures []TaskFailure
	for i, o := range results {
		s := o.res.Stats
		// Peaks are handled below per worker; zero them for the sum.
		s.PeakHeapBytes, s.PeakNativeBytes = 0, 0
		job.Stats.Add(s)
		if o.err != nil {
			attempts := 1
			var te *TaskError
			if errors.As(o.err, &te) && te.Attempts > 0 {
				attempts = te.Attempts
			}
			failures = append(failures, TaskFailure{
				Index: i, Name: specs[i].Name, Attempts: attempts, Err: o.err,
			})
			continue
		}
		job.Outputs = append(job.Outputs, o.res.Out)
	}
	// Process-level peak: concurrent workers' peaks coexist.
	for _, wp := range workerPeaks {
		job.Stats.PeakHeapBytes += wp.PeakHeapBytes
		job.Stats.PeakNativeBytes += wp.PeakNativeBytes
	}
	job.Wall.Total = time.Since(start)
	if failures != nil {
		return job, &JobError{Tasks: len(specs), Failures: failures}
	}
	return job, nil
}

// runWithRetry drives one task through the pool's retry policy. The
// first attempt reuses the worker's executor (stateless across tasks);
// every retry builds a fresh one from the factory — the paper's
// "terminate the executor, relaunch over the same buffers" — and OOM
// retries escalate its heap configuration so a task that genuinely
// needs more memory eventually gets it instead of dying in a retry
// loop. Stats accumulate across attempts so failed attempts stay
// visible in the job accounting.
func (p *Pool) runWithRetry(worker *Executor, exec func() *Executor, spec TaskSpec) (TaskResult, error) {
	maxAttempts := p.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	var agg metrics.Breakdown
	// The task's retries are published once, from its aggregated record.
	defer func() { worker.Trace.Registry().Counter("retries_total").Add(agg.Retries) }()
	oomRetries := 0
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		e := worker
		if attempt > 1 {
			e = exec()
			if oomRetries > 0 {
				e.HeapCfg = e.HeapCfg.Escalate(1 << oomRetries)
			}
			e.Trace.Instant("retry", "task-retry",
				trace.Str("task", spec.Name), trace.I64("attempt", int64(attempt)),
				trace.Str("cause", Classify(lastErr).String()),
				trace.I64("heap_escalations", int64(oomRetries)))
		}
		res, err := e.RunTask(spec)
		if attempt > 1 {
			res.Stats.Retries++
		}
		agg.Add(res.Stats)
		if err == nil {
			res.Stats = agg
			// A finished task's checkpoint can never be resumed (the
			// name may recur in a later iteration's stage); drop it.
			spec.Checkpoints.Drop(spec.Name)
			return res, nil
		}
		lastErr = err
		class := Classify(err)
		if !class.Retryable() {
			break
		}
		if class == FaultOOM {
			oomRetries++
		}
	}
	te := taskErr(spec.Name, lastErr)
	te.Attempts = int(agg.Attempts)
	return TaskResult{Stats: agg}, te
}
