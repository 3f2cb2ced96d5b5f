package shuffle

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/serde"
	"repro/internal/trace"
)

// entry is one record staged for the exchange: its canonical key bytes,
// its arrival sequence within the writer (the tiebreak that makes the
// per-reducer order total, and with it the output bytes independent of
// budget and compression), and the wire record itself.
type entry struct {
	key []byte
	seq uint64
	rec []byte
}

func entryCompare(a, b entry) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Writer stages one map task's output: records are hash-partitioned by
// key into per-reducer buffers; when the buffered bytes exceed the
// memory budget everything spills to disk as one sorted run, and Close
// merges the runs back into per-reducer blocks registered in the store.
// A writer is not safe for concurrent use, but the writers of distinct
// map tasks run concurrently.
type Writer struct {
	ex      *Exchange
	mapTask int
	span    *trace.Span

	buf      [][]entry // per-reducer staged entries
	bufBytes int64
	seq      uint64
	dir      string   // this writer's spill directory, made at its first spill
	runs     []string // sorted spill run files, merge order
	st       Stats
	closed   bool
	rebuild  bool // lineage re-execution: re-register blocks, not the map ID
}

// Writer opens the map-side writer for one map task.
func (ex *Exchange) Writer(mapTask int) *Writer {
	return &Writer{
		ex: ex, mapTask: mapTask,
		buf: make([][]entry, ex.cfg.Partitions),
		span: ex.span.Child("shuffle", "shuffle-write",
			trace.I64("map_task", int64(mapTask))),
	}
}

// RecoveryWriter opens a writer that re-runs an already-registered map
// task from lineage: Close re-registers the rebuilt blocks (restoring
// the full replica count) but does not re-add the map ID, so the fetch
// assembly order is unchanged. The writer is deterministic, so the
// rebuilt blocks are byte-identical to the lost ones.
func (ex *Exchange) RecoveryWriter(mapTask int) *Writer {
	return &Writer{
		ex: ex, mapTask: mapTask, rebuild: true,
		buf: make([][]entry, ex.cfg.Partitions),
		span: ex.span.Child("recovery", "rebuild-write",
			trace.I64("map_task", int64(mapTask))),
	}
}

// discardRuns removes any spill run files still on disk, and the
// writer's spill directory — the cleanup that also keeps a failed merge
// or close from leaking temp files.
func (w *Writer) discardRuns() {
	for _, path := range w.runs {
		os.Remove(path)
	}
	w.runs = nil
	if w.dir != "" {
		os.Remove(w.dir)
		w.dir = ""
	}
}

// Add stages every size-prefixed record in buf. In Baseline mode each
// record pays a real decode + canonical re-encode here — the map-side
// serialization point of a conventional runtime; in Gerenuk mode the
// native bytes are staged untouched and uncopied: staged entries alias
// buf (keys do in both modes), so buf must stay unchanged until Close,
// which copies every record into its block.
func (w *Writer) Add(buf []byte) error {
	if w.closed {
		return fmt.Errorf("shuffle: add on closed writer for map task %d", w.mapTask)
	}
	t0 := time.Now()
	var serT time.Duration
	defer func() {
		w.st.WriteTime += time.Since(t0) - serT
		w.st.SerTime += serT
	}()
	ex := w.ex
	encodes := ex.reg().Counter("shuffle_write_encodes_total")
	for off := 0; off < len(buf); {
		if off+serde.SizePrefixBytes > len(buf) {
			return fmt.Errorf("shuffle: corrupt record at offset %d of map task %d", off, w.mapTask)
		}
		sz := serde.RecordSize(buf, off)
		if off+sz > len(buf) {
			return fmt.Errorf("shuffle: corrupt record at offset %d of map task %d", off, w.mapTask)
		}
		rec := buf[off : off+sz]
		key := ex.keys.Key(buf, off)
		if ex.codec != nil {
			ts := time.Now()
			v, _, err := ex.codec.Decode(ex.class, buf, off)
			if err != nil {
				return fmt.Errorf("shuffle: map task %d: serialize: %w", w.mapTask, err)
			}
			obj, ok := v.(serde.Obj)
			if !ok {
				return fmt.Errorf("shuffle: map task %d: record decoded to %T, want object", w.mapTask, v)
			}
			enc, err := ex.codec.Encode(ex.class, obj, nil)
			if err != nil {
				return fmt.Errorf("shuffle: map task %d: serialize: %w", w.mapTask, err)
			}
			rec = enc // canonical: byte-identical to the input record
			serT += time.Since(ts)
			encodes.Add(1)
		}
		reducer := int(engine.HashKey(key) % uint64(ex.cfg.Partitions))
		w.buf[reducer] = append(w.buf[reducer], entry{key: key, seq: w.seq, rec: rec})
		w.seq++
		w.bufBytes += int64(len(key) + len(rec))
		off += sz
		if ex.cfg.MemoryBudget > 0 && w.bufBytes > ex.cfg.MemoryBudget {
			if err := w.spill(); err != nil {
				return err
			}
		}
	}
	return nil
}

// spill sorts the staged entries and writes them to disk as one run:
// per-reducer groups in ascending reducer order, each group's entries in
// (key, seq) order — exactly the order Close's merge consumes.
func (w *Writer) spill() error {
	sp := w.span.Child("shuffle", "spill",
		trace.I64("map_task", int64(w.mapTask)), trace.I64("bytes", w.bufBytes))
	if w.dir == "" {
		// Each writer spills into a directory of its own: writers run
		// concurrently, and run files created and unlinked in one shared
		// directory contend on that directory in the kernel.
		dir, err := os.MkdirTemp(w.ex.cfg.SpillDir, "shuffle-*")
		if err != nil {
			return fmt.Errorf("shuffle: spill: %w", err)
		}
		w.dir = dir
	}
	f, err := os.CreateTemp(w.dir, "shuffle-*.run")
	if err != nil {
		return fmt.Errorf("shuffle: spill: %w", err)
	}
	// The run is built in one buffer sized up front: 8 header bytes per
	// reducer group, 16 bytes of framing per entry, plus the payloads.
	size := 0
	for _, es := range w.buf {
		size += 8
		for _, e := range es {
			size += 16 + len(e.key) + len(e.rec)
		}
	}
	run := make([]byte, 0, size)
	w.sortBuf()
	for r, es := range w.buf {
		if len(es) == 0 {
			continue
		}
		run = binary.LittleEndian.AppendUint32(run, uint32(r))
		run = binary.LittleEndian.AppendUint32(run, uint32(len(es)))
		for _, e := range es {
			run = binary.LittleEndian.AppendUint32(run, uint32(len(e.key)))
			run = append(run, e.key...)
			run = binary.LittleEndian.AppendUint64(run, e.seq)
			run = binary.LittleEndian.AppendUint32(run, uint32(len(e.rec)))
			run = append(run, e.rec...)
		}
	}
	n, err := f.Write(run)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("shuffle: spill: %w", err)
	}
	w.runs = append(w.runs, f.Name())
	w.st.Spills++
	w.st.BytesSpilled += int64(n)
	for r := range w.buf {
		w.buf[r] = w.buf[r][:0] // the run holds the entries; reuse the slices
	}
	w.bufBytes = 0
	sp.End(trace.I64("run_bytes", int64(n)))
	return nil
}

// sortBuf orders each reducer's staged entries: the exchange's one sort.
func (w *Writer) sortBuf() {
	for _, es := range w.buf {
		slices.SortFunc(es, entryCompare)
	}
}

// readRun loads one spill run back as per-reducer entry groups, each
// already in (key, seq) order.
func readRun(path string, partitions int) ([][]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shuffle: merge: %w", err)
	}
	groups := make([][]entry, partitions)
	p := 0
	need := func(n int) error {
		if p+n > len(data) {
			return fmt.Errorf("shuffle: merge: truncated run %s at offset %d", path, p)
		}
		return nil
	}
	for p < len(data) {
		if err := need(8); err != nil {
			return nil, err
		}
		r := int(binary.LittleEndian.Uint32(data[p:]))
		count := int(binary.LittleEndian.Uint32(data[p+4:]))
		p += 8
		if r < 0 || r >= partitions {
			return nil, fmt.Errorf("shuffle: merge: run %s names reducer %d of %d", path, r, partitions)
		}
		es := make([]entry, 0, count)
		for i := 0; i < count; i++ {
			if err := need(4); err != nil {
				return nil, err
			}
			kl := int(binary.LittleEndian.Uint32(data[p:]))
			p += 4
			if err := need(kl + 12); err != nil {
				return nil, err
			}
			key := data[p : p+kl : p+kl]
			p += kl
			seq := binary.LittleEndian.Uint64(data[p:])
			p += 8
			rl := int(binary.LittleEndian.Uint32(data[p:]))
			p += 4
			if err := need(rl); err != nil {
				return nil, err
			}
			rec := data[p : p+rl : p+rl]
			p += rl
			es = append(es, entry{key: key, seq: seq, rec: rec})
		}
		groups[r] = append(groups[r], es...)
	}
	return groups, nil
}

// mergeRuns k-way merges per-reducer sorted runs by (key, seq). Every
// seq is unique within the writer, so the merge order equals the global
// sort order the in-memory path produces. A lone run is already merged
// and is returned as is.
func mergeRuns(runs [][]entry) []entry {
	if len(runs) == 1 {
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]entry, 0, total)
	cur := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if cur[i] >= len(r) {
				continue
			}
			if best < 0 || entryCompare(r[cur[i]], runs[best][cur[best]]) < 0 {
				best = i
			}
		}
		out = append(out, runs[best][cur[best]])
		cur[best]++
	}
	return out
}

// assemble merges every spill run on disk and the still-buffered
// entries into one (key, seq)-ordered slice per reducer, consuming both
// (the runs are deleted). Both sources are sorted by entryCompare and every
// seq is unique within the writer, so the k-way merge yields exactly the
// order an in-memory sort would — the spill path is byte-identical by
// construction.
func (w *Writer) assemble() ([][]entry, error) {
	ex := w.ex
	perReducer := make([][][]entry, ex.cfg.Partitions)
	if len(w.runs) > 0 && w.bufBytes > 0 {
		// Flush the tail so the merge sees every record as a sorted run.
		if err := w.spill(); err != nil {
			return nil, err
		}
	}
	for _, path := range w.runs {
		groups, err := readRun(path, ex.cfg.Partitions)
		if err != nil {
			return nil, err
		}
		for r, g := range groups {
			if len(g) > 0 {
				perReducer[r] = append(perReducer[r], g)
			}
		}
	}
	w.sortBuf()
	for r, es := range w.buf {
		if len(es) > 0 {
			perReducer[r] = append(perReducer[r], es)
		}
	}

	var mergeSpan *trace.Span
	if len(w.runs) > 0 {
		mergeSpan = w.span.Child("shuffle", "merge",
			trace.I64("map_task", int64(w.mapTask)), trace.I64("runs", int64(len(w.runs))))
	}
	merged := make([][]entry, ex.cfg.Partitions)
	var records int64
	for r := range perReducer {
		merged[r] = mergeRuns(perReducer[r])
		records += int64(len(merged[r]))
	}
	mergeSpan.End(trace.I64("records", records))
	w.discardRuns()
	for r := range w.buf {
		w.buf[r] = nil
	}
	w.bufBytes = 0
	return merged, nil
}

// publish compresses each non-empty reducer's merged entries and
// registers the block in the store with the configured replica count.
// put replaces the whole replica slice, so a lineage rebuild's publish
// restores every replica the lost block had.
func (w *Writer) publish(merged [][]entry) (written, records int64, err error) {
	ex := w.ex
	for r, es := range merged {
		if len(es) == 0 {
			continue
		}
		size := 0
		for _, e := range es {
			size += len(e.rec)
		}
		raw := make([]byte, 0, size)
		for _, e := range es {
			raw = append(raw, e.rec...)
		}
		payload, err := compressBlock(ex.cfg.Compression, raw)
		if err != nil {
			return written, records, err
		}
		ex.store.put(blockID{ex.name, w.mapTask, r}, &Block{
			Payload: payload, RawLen: len(raw), Records: len(es), Codec: ex.cfg.Compression,
		}, ex.cfg.Replicas)
		written += int64(len(raw))
		records += int64(len(es))
	}
	return written, records, nil
}

// Abandon discards the writer without publishing — the cleanup of a
// failed Add: spill runs are deleted from disk and buffered entries are
// dropped. Abandoning a closed or already-abandoned writer is a no-op,
// as is closing an abandoned one.
func (w *Writer) Abandon() {
	if w.closed {
		return
	}
	w.closed = true
	w.discardRuns()
	w.buf = nil
	w.bufBytes = 0
	w.span.End(trace.Str("outcome", "abandoned"))
}

// Close seals the map output: spilled runs are merged with any
// still-buffered entries, each reducer's records are concatenated in
// (key, seq) order, compressed per the exchange config, and registered
// in the block store with the configured replica count. The spill files are deleted — on the error
// paths too. Closing an already-closed writer is a no-op.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	t0 := time.Now()
	ex := w.ex

	merged, err := w.assemble()
	if err != nil {
		w.discardRuns()
		return err
	}
	written, records, err := w.publish(merged)
	if err != nil {
		return err
	}
	w.buf = nil
	w.st.BytesWritten += written
	w.st.WriteTime += time.Since(t0)
	if !w.rebuild {
		ex.addMap(w.mapTask)
		ex.addStats(w.st)
	}
	w.span.End(trace.I64("bytes", written), trace.I64("records", records),
		trace.I64("spills", w.st.Spills))
	return nil
}
