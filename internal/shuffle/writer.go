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
// memory budget everything spills to disk as one run of sorted
// per-reducer blocks, and Close merges the runs and the buffered tail
// into the per-reducer blocks it registers in the store.
// A writer is not safe for concurrent use, but the writers of distinct
// map tasks run concurrently.
type Writer struct {
	ex      *Exchange
	mapTask int
	span    *trace.Span

	buf      [][]entry // per-reducer staged entries
	bufBytes int64
	seq      uint64
	records  []int    // per-reducer records added, spilled ones included
	dir      string   // this writer's spill directory, made at its first spill
	runs     []string // sorted spill run files, merge order
	st       Stats
	closed   bool
	rebuild  bool // lineage re-execution: re-register blocks, not the map ID
}

// Writer opens the map-side writer for one map task.
func (ex *Exchange) Writer(mapTask int) *Writer {
	return ex.newWriter(mapTask, false, ex.span.Child("shuffle", "shuffle-write",
		trace.I64("map_task", int64(mapTask))))
}

// RecoveryWriter opens a writer that re-runs an already-registered map
// task from lineage: Close re-registers the rebuilt blocks (restoring
// the full replica count) but does not re-add the map ID, so the fetch
// assembly order is unchanged. The writer is deterministic, so the
// rebuilt blocks are byte-identical to the lost ones.
func (ex *Exchange) RecoveryWriter(mapTask int) *Writer {
	return ex.newWriter(mapTask, true, ex.span.Child("recovery", "rebuild-write",
		trace.I64("map_task", int64(mapTask))))
}

func (ex *Exchange) newWriter(mapTask int, rebuild bool, span *trace.Span) *Writer {
	return &Writer{ex: ex, mapTask: mapTask, rebuild: rebuild, span: span,
		buf: make([][]entry, ex.cfg.Partitions), records: make([]int, ex.cfg.Partitions)}
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

// Add stages every size-prefixed record in buf, each checked by
// engine.KeyReader.Next: a record whose frame or key field overruns its
// bytes fails Add there, the records before it staged (perhaps spilled).
// In Baseline mode each record pays a real decode + canonical re-encode
// here — the map-side serialization point of a conventional runtime; in
// Gerenuk mode the native bytes are staged untouched and uncopied:
// staged entries alias buf (keys do in both modes), so buf must stay
// unchanged until Close, which copies every record into its block.
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
		key, sz, err := ex.keys.Next(buf, off)
		if err != nil {
			return fmt.Errorf("shuffle: map task %d: %w", w.mapTask, err)
		}
		rec := buf[off : off+sz]
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
		w.records[reducer]++
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

// spill writes the staged entries to disk as one run (seal).
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
	run, _ := w.seal()
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

// runHeaderBytes frames each reducer's group in a spill run: the
// reducer id and the group's byte length, both uint32.
const runHeaderBytes = 8

// seal orders each reducer's staged entries by (key, seq) — the
// exchange's one sort — and lays them out as one spill run: for each
// non-empty reducer in ascending order, a [reducer][bytes] header and
// then its block, the entries' wire records in that order. blocks holds
// each reducer's block (nil when empty), aliasing run: the blocks Close
// publishes or merges, and exactly what decodeRun returns for run.
func (w *Writer) seal() (run []byte, blocks [][]byte) {
	size := runHeaderBytes * len(w.buf) // a header per reducer bounds the framing
	for _, es := range w.buf {
		slices.SortFunc(es, entryCompare)
		for _, e := range es {
			size += len(e.rec)
		}
	}
	run, blocks = make([]byte, 0, size), make([][]byte, len(w.buf))
	for r, es := range w.buf {
		if len(es) == 0 {
			continue
		}
		h := len(run) + runHeaderBytes
		run = binary.LittleEndian.AppendUint32(run, uint32(r))
		run = binary.LittleEndian.AppendUint32(run, 0)
		for _, e := range es {
			run = append(run, e.rec...)
		}
		binary.LittleEndian.PutUint32(run[h-4:], uint32(len(run)-h))
		blocks[r] = run[h:len(run):len(run)]
	}
	return run, blocks
}

// readRun loads one spill run back as per-reducer blocks.
func readRun(path string, keys *engine.KeyReader, partitions int) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shuffle: merge: %w", err)
	}
	blocks, err := decodeRun(data, keys, partitions)
	if err != nil {
		return nil, fmt.Errorf("shuffle: merge: run %s: %w", path, err)
	}
	return blocks, nil
}

// decodeRun splits a spill run into its per-reducer blocks, indexed by
// reducer (nil where the run holds none) and aliasing data. A run is
// read back from disk, so it is the second place record bytes enter the
// exchange: the format is canonical — groups in strictly ascending
// reducer order, none empty, each whole records keys.Validate accepts —
// so a damaged run is an error, never a block the merge would misread.
func decodeRun(data []byte, keys *engine.KeyReader, partitions int) ([][]byte, error) {
	blocks := make([][]byte, partitions)
	for p, last := 0, -1; p < len(data); {
		if len(data)-p < runHeaderBytes {
			return nil, fmt.Errorf("truncated group header at offset %d", p)
		}
		r := int(binary.LittleEndian.Uint32(data[p:]))
		n := int(binary.LittleEndian.Uint32(data[p+4:]))
		p += runHeaderBytes
		switch {
		case r <= last || r >= partitions:
			return nil, fmt.Errorf("group of reducer %d of %d follows reducer %d", r, partitions, last)
		case n == 0:
			return nil, fmt.Errorf("empty group of reducer %d", r)
		case n > len(data)-p:
			return nil, fmt.Errorf("reducer %d's %d-byte group overruns the run at offset %d", r, n, p)
		}
		b := data[p : p+n : p+n]
		if err := keys.Validate(b); err != nil {
			return nil, fmt.Errorf("reducer %d's group at offset %d: %w", r, p, err)
		}
		blocks[r], last, p = b, r, p+n
	}
	return blocks, nil
}

// assemble returns each reducer's block in (key, seq) order, consuming
// the tail and the spill runs (they are deleted): the sealed tail's
// block alone, or the reducer's run blocks and then its tail block
// merged by mergeByKey. Ties go to the earlier block, whose seqs all
// come first, so the spill path is byte-identical to the in-memory one.
func (w *Writer) assemble() ([][]byte, error) {
	ex := w.ex
	defer w.discardRuns()
	_, merged := w.seal()
	w.buf = nil
	if len(w.runs) == 0 {
		return merged, nil
	}
	blocks := make([][][]byte, ex.cfg.Partitions)
	for _, path := range w.runs {
		run, err := readRun(path, ex.keys, ex.cfg.Partitions)
		if err != nil {
			return nil, err
		}
		for r, b := range run {
			if b != nil {
				blocks[r] = append(blocks[r], b)
			}
		}
	}
	sp := w.span.Child("shuffle", "merge",
		trace.I64("map_task", int64(w.mapTask)), trace.I64("runs", int64(len(w.runs))))
	var records int64
	for r, bs := range blocks {
		if len(bs) == 0 {
			continue // the tail block alone
		}
		if merged[r] != nil {
			bs = append(bs, merged[r])
		}
		size := 0
		for _, b := range bs {
			size += len(b)
		}
		merged[r] = mergeByKey(ex.keys, make([]byte, 0, size), bs)
		records += int64(w.records[r])
	}
	sp.End(trace.I64("records", records))
	return merged, nil
}

// publish compresses each non-empty reducer's block and registers it in
// the store with the configured replica count. put replaces the whole
// replica slice, so a lineage rebuild's publish restores every replica
// the lost block had.
func (w *Writer) publish(merged [][]byte) (written, records int64, err error) {
	ex := w.ex
	for r, raw := range merged {
		if len(raw) == 0 {
			continue
		}
		payload, err := compressBlock(ex.cfg.Compression, raw)
		if err != nil {
			return written, records, err
		}
		ex.store.put(blockID{ex.name, w.mapTask, r}, &Block{
			Payload: payload, RawLen: len(raw), Records: w.records[r], Codec: ex.cfg.Compression,
		}, ex.cfg.Replicas)
		written += int64(len(raw))
		records += int64(w.records[r])
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
	w.span.End(trace.Str("outcome", "abandoned"))
}

// Close seals the map output: each reducer's records, in (key, seq)
// order (assemble), make one block, compressed per the exchange config
// and registered in the block store with the configured replica count.
// The spill files are deleted — on the error paths too. Closing an
// already-closed writer is a no-op.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	t0 := time.Now()
	ex := w.ex

	merged, err := w.assemble()
	if err != nil {
		return err
	}
	written, records, err := w.publish(merged)
	if err != nil {
		return err
	}
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
