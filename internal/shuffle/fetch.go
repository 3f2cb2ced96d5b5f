package shuffle

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/serde"
	"repro/internal/trace"
)

// FetchAll runs the reduce-side fetch: for every reducer it pulls that
// reducer's block from each registered map output (immediate retries
// over injected fetch faults, then replica failover and lineage
// re-execution), decompresses, and assembles the raw record bytes:
// concatenated in ascending map-task order, or with Config.KeyOrder
// merged into key order (mergeByKey). In Baseline mode every assembled
// record then pays a real serde decode — the reduce-side
// deserialization point; in Gerenuk mode the assembled native bytes are
// returned untouched for zero-copy adoption into the task arena. Up to
// fetchConcurrency reducers assemble at once; the error reported is the
// lowest failing reducer's.
//
// The returned slice is indexed by reducer; a reducer nothing hashed to
// gets an empty buffer. The exchange's blocks and lineage producers are
// released afterwards, and the exchange span closes: FetchAll is
// terminal.
func (ex *Exchange) FetchAll() ([][]byte, error) {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return nil, fmt.Errorf("shuffle: exchange %s fetched twice", ex.name)
	}
	ex.closed = true
	ex.mu.Unlock()
	defer ex.release()

	maps := ex.mapIDs()
	out := make([][]byte, ex.cfg.Partitions)
	err := engine.ForEach(fetchConcurrency, ex.cfg.Partitions, func(r int) (err error) {
		out[r], err = ex.fetchReducer(r, maps)
		return err
	})
	if err != nil {
		ex.span.End(trace.Str("error", err.Error()))
		return nil, err
	}
	st := ex.Stats()
	ex.span.End(trace.I64("bytes_written", st.BytesWritten),
		trace.I64("bytes_fetched", st.BytesFetched),
		trace.I64("spills", st.Spills), trace.I64("fetch_retries", st.FetchRetries))
	return out, nil
}

// fetchReducer assembles one reducer's input. Blocks are fetched in
// ascending map-task order, so the result — and the order the reducer's
// fault plan is consumed in — is deterministic.
func (ex *Exchange) fetchReducer(reducer int, maps []int) ([]byte, error) {
	t0 := time.Now()
	sp := ex.span.Child("shuffle", "fetch", trace.I64("reducer", int64(reducer)))
	var plan *faults.Plan
	if ex.cfg.Injector != nil {
		plan = ex.cfg.Injector.ForTask(fmt.Sprintf("%s/r%d", ex.name, reducer))
	}
	if k, ok := plan.TakeReplicaLoss(); ok {
		// Injected replica loss: the dying "node" takes k replicas of
		// this reducer's first live block with it.
		for _, mapTask := range maps {
			if dropped := ex.store.Drop(ex.name, mapTask, reducer, k); dropped > 0 {
				sp.Instant("recovery", "replica-loss", trace.I64("map_task", int64(mapTask)),
					trace.I64("replicas_lost", int64(dropped)))
				break
			}
		}
	}

	var st Stats
	raws := make([][]byte, 0, len(maps))
	size := 0
	for _, mapTask := range maps {
		id := blockID{ex.name, mapTask, reducer}
		if !ex.store.has(id) {
			continue // this map task produced nothing for this reducer
		}
		raw, bst, err := ex.fetchBlock(sp, id, plan)
		st.add(bst)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
		size += len(raw)
	}
	var buf []byte
	if size > 0 {
		buf = make([]byte, 0, size)
	}
	if ex.cfg.KeyOrder {
		buf = mergeByKey(ex.keys, buf, raws)
	} else {
		for _, raw := range raws {
			buf = append(buf, raw...)
		}
	}
	var decodes int64
	if ex.codec != nil && len(buf) > 0 {
		// Baseline reduce-side deserialization: one real decode per record.
		td := time.Now()
		for off := 0; off < len(buf); {
			if _, _, err := ex.codec.Decode(ex.class, buf, off); err != nil {
				return nil, fmt.Errorf("shuffle: reducer %d: deserialize: %w", reducer, err)
			}
			decodes++
			off += serde.RecordSize(buf, off)
		}
		st.DeserTime = time.Since(td)
		ex.reg().Counter("shuffle_read_decodes_total").Add(decodes)
	}
	// ReadTime is the fetch/assembly wall excluding the serde cost, which
	// Stats.AddTo reports under Deser instead.
	st.ReadTime = time.Since(t0) - st.DeserTime
	ex.addStats(st)
	sp.End(trace.I64("bytes", int64(len(buf))), trace.I64("blocks", int64(len(maps))),
		trace.I64("decodes", decodes))
	return buf, nil
}

// mergeByKey appends the records of raws, each block already in key
// order, to buf in (key, block, position) order — exactly a stable key
// sort of the blocks' concatenation. It is the exchange's one merge: the
// fetch merges a reducer's map blocks with it, and Writer.Close a
// reducer's spill-run blocks and its tail. Each block is its own cursor
// (raws is consumed) with one current key: the lowest block holding the
// least key appends its whole run of that key at once, as every other
// block holding the key comes later. A lone block is appended as is.
func mergeByKey(kr *engine.KeyReader, buf []byte, raws [][]byte) []byte {
	if len(raws) == 1 {
		return append(buf, raws[0]...)
	}
	keys := make([][]byte, len(raws))
	for i, raw := range raws {
		keys[i] = kr.Key(raw, 0)
	}
	for {
		best := -1
		for i, k := range keys {
			if len(raws[i]) > 0 && (best < 0 || bytes.Compare(k, keys[best]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return buf
		}
		raw, n := raws[best], 0
		for n < len(raw) {
			if k := kr.Key(raw, n); !bytes.Equal(k, keys[best]) {
				keys[best] = k
				break
			}
			n += serde.RecordSize(raw, n)
		}
		buf, raws[best] = append(buf, raw[:n]...), raw[n:]
	}
}

// fetchBlock pulls one block, failing over replica by replica and — when
// every replica is lost or exhausted — re-executing the producing map
// task from lineage and fetching the rebuilt block. Lineage is the last
// line of defense: it is tried exactly once per block.
func (ex *Exchange) fetchBlock(parent *trace.Span, id blockID, plan *faults.Plan) ([]byte, Stats, error) {
	raw, st, err := ex.fetchReplicas(parent, id, plan, 0)
	if err == nil || ex.cfg.Lineage == nil {
		return raw, st, err
	}
	rb := parent.Child("recovery", "lineage-reexec",
		trace.I64("map_task", int64(id.mapTask)), trace.Str("cause", err.Error()))
	rerr := ex.cfg.Lineage.Rebuild(ex.name, id.mapTask)
	rb.End()
	if rerr != nil {
		return nil, st, fmt.Errorf("%w (lineage rebuild: %v)", err, rerr)
	}
	ex.reg().Counter("recovery_reexec_total").Add(1)
	raw, st2, err2 := ex.fetchReplicas(parent, id, plan, st.FetchRetries)
	st.add(st2)
	return raw, st, err2
}

// fetchReplicas walks the block's live replicas in slot order, fetching
// each until one succeeds; a read of any slot after the first — past a
// lost replica or a failed one — is a failover. prior is the attempt
// count already consumed for this block (so retry accounting stays
// "attempts beyond the block's first" across a lineage rebuild).
func (ex *Exchange) fetchReplicas(parent *trace.Span, id blockID, plan *faults.Plan, prior int64) ([]byte, Stats, error) {
	var st Stats
	reps, ok := ex.store.replicas(id)
	if !ok {
		return nil, st, fmt.Errorf("shuffle: block %s/map-%d/r%d vanished", id.exchange, id.mapTask, id.reducer)
	}
	src := fmt.Sprintf("%s/map-%d", id.exchange, id.mapTask)

	attempts := prior
	var lastErr error
	for ri, b := range reps {
		if b == nil {
			continue // lost replica
		}
		if ri > 0 {
			ex.reg().Counter("recovery_replica_failover_total").Add(1)
			parent.Instant("recovery", "replica-failover", trace.Str("source", src),
				trace.I64("replica", int64(ri)))
		}
		raw, rst, err := ex.fetchReplica(parent, id, b, plan, &attempts)
		st.add(rst)
		if err == nil {
			return raw, st, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shuffle: all %d replicas of %s/r%d lost", len(reps), src, id.reducer)
	}
	return nil, st, lastErr
}

// fetchReplica pulls one replica, retrying injected fetch faults at once
// up to maxFetchRetries attempts.
func (ex *Exchange) fetchReplica(parent *trace.Span, id blockID, b *Block,
	plan *faults.Plan, attempts *int64) ([]byte, Stats, error) {
	var st Stats
	src := fmt.Sprintf("%s/map-%d", id.exchange, id.mapTask)
	latHist := ex.reg().Histogram("shuffle_fetch_latency_ns", trace.LatencyBuckets()...)

	var lastErr error
	for attempt := 1; attempt <= maxFetchRetries; attempt++ {
		if *attempts++; *attempts > 1 {
			st.FetchRetries++
		}
		t0 := time.Now()
		if plan != nil && plan.TakeFetchAttempt() {
			lastErr = fmt.Errorf("shuffle: injected fetch failure from %s (attempt %d)", src, attempt)
			parent.Instant("shuffle", "fetch-fault", trace.Str("source", src),
				trace.I64("attempt", int64(attempt)))
			continue
		}
		latHist.Observe(float64(time.Since(t0).Nanoseconds()))
		lastErr = nil
		break
	}
	if lastErr != nil {
		return nil, st, fmt.Errorf("shuffle: fetch of %s/r%d failed after %d attempts: %w",
			src, id.reducer, maxFetchRetries, lastErr)
	}

	raw := b.Payload
	if b.Codec != None {
		ds := parent.Child("shuffle", "decompress", trace.Str("codec", b.Codec.String()),
			trace.I64("wire_bytes", int64(len(b.Payload))), trace.I64("raw_bytes", int64(b.RawLen)))
		var err error
		raw, err = decompressBlock(b.Codec, b.Payload, b.RawLen)
		ds.End()
		if err != nil {
			return nil, st, err
		}
	} else if len(raw) != b.RawLen {
		return nil, st, fmt.Errorf("shuffle: raw block is %d bytes, header says %d", len(raw), b.RawLen)
	}
	st.WireBytesFetched += int64(len(b.Payload))
	st.BytesFetched += int64(len(raw))
	st.Records += int64(b.Records)
	ex.reg().Counter("shuffle_blocks_fetched_total").Add(1)
	return raw, st, nil
}
