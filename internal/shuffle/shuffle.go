// Package shuffle is the exchange every front-end (spark, hadoop,
// stream) routes its wide operations through: a map-side Writer that
// hash-partitions wire records into per-reducer blocks under a bounded
// memory budget — spilling sorted runs to disk and merging them on close
// — a Store registering every sealed block, and a reduce-side fetch path
// that pulls blocks with bounded concurrency, undoes optional block
// compression, and retries injected fetch faults before failing over to
// a replica or the block's lineage. Key order is decided here alone.
//
// The exchange is where the paper's S/D elimination becomes measurable
// per phase. In Baseline mode the exchange pays real serde per record:
// the writer decodes and re-encodes every record crossing it (the
// map-side serialization point) and the fetch path decodes every record
// again (the reduce-side deserialization point) — the codec is canonical,
// so the bytes are unchanged and only the cost is modeled. In Gerenuk
// mode records cross the exchange as inlined native bytes untouched, and
// the fetched block is adopted into the reduce task's arena zero-copy
// (engine.Input.Owned → arena.AdoptBytesOwned): no decode spans, no
// transfer copy.
//
// Determinism contract: for a fixed input, every storage configuration —
// unbounded in-memory, any spill budget, any compression or replica
// count — produces byte-identical per-reducer blocks and fetches. Writers
// order each reducer's records by (canonical key bytes, arrival
// sequence): the in-memory path sorts once at close; a spill run holds
// the sorted blocks of the records staged before it, and Close merges a
// reducer's run blocks and its sorted tail with the fetch's key merge,
// ties to the earlier block — whose sequences all come first — so both
// agree. A fetch concatenates a reducer's blocks in map-task order or,
// with KeyOrder, merges them: a stable key sort of that concatenation.
// The gerenukbench shuffle pass pins this in both modes.
//
// Record bytes are checked once, where they enter the exchange from
// outside its own memory: Writer.Add takes every record through
// engine.KeyReader.Next, and a spill run read back from disk passes
// KeyReader.Validate (decodeRun). A frame or key field overrunning its
// bytes is an error there, not a panic later. Every block in the store
// was published by a Close whose bytes passed one of the two, so the
// fetch, mergeByKey and the reduce side's grouping walk them unchecked.
package shuffle

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dsa"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/trace"
)

// Fetch policy: at most fetchConcurrency reducers assemble at once, each
// fetching its blocks in map-task order, and each replica of a block
// gets maxFetchRetries attempts (retried at once) before the fetch path
// fails over.
const (
	fetchConcurrency = 4
	maxFetchRetries  = 3
)

// Config configures one exchange. The zero value is an unbounded
// in-memory exchange: no spilling, no compression, no fault injection.
type Config struct {
	// Partitions is the reducer count (filled by the driver).
	Partitions int
	// KeyOrder (filled by the driver) merges each reducer's fetched
	// blocks into key order, ties in map-task order; false concatenates
	// them in map-task order.
	KeyOrder bool
	// MemoryBudget bounds each writer's buffered bytes; once exceeded the
	// buffered entries spill to disk as one sorted run. 0 = unbounded.
	// The bound is per writer: with writers running concurrently, up to
	// (concurrent writers) × MemoryBudget is buffered at once.
	MemoryBudget int64
	// SpillDir is where spill runs are written (default os.TempDir()),
	// each writer's into a directory of its own that it removes when it
	// closes or is abandoned.
	SpillDir string
	// Compression is the per-block codec applied when a writer seals a
	// block and undone by the fetch path.
	Compression Compression
	// Replicas is how many copies of each sealed block the writer
	// registers (default 1). The fetch path fails over replica by
	// replica before declaring the block lost.
	Replicas int
	// Lineage, when set, is the last line of defense: when every replica
	// of a block is lost or exhausted, the fetch path re-runs the
	// producing map task from its recorded lineage and fetches again.
	Lineage *recovery.Lineage
	// Injector, when set, derives a deterministic fetch fault plan per
	// reducer (faults.Plan.FetchFailures).
	Injector *faults.Injector
	// Trace receives shuffle-write/spill/merge/fetch/decompress spans and
	// the shuffle metrics (byte counters, fetch-latency histogram).
	Trace *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// Stats is one exchange's accounting, folded into the job's cost
// breakdown by the driver.
type Stats struct {
	BytesWritten     int64 // raw record bytes written into blocks
	BytesSpilled     int64 // bytes written to spill runs on disk
	BytesFetched     int64 // raw record bytes fetched (post-decompression)
	WireBytesFetched int64 // block payload bytes fetched (pre-decompression)
	Spills           int64 // spill runs written
	FetchRetries     int64 // block fetch attempts beyond each block's first
	Records          int64 // records fetched

	// WriteTime and ReadTime are busy time summed across writers and
	// across reducers — like task time, not the exchange's wall — with
	// serde excluded.
	WriteTime time.Duration // map side
	ReadTime  time.Duration // reduce side
	SerTime   time.Duration // baseline per-record encode cost (map side)
	DeserTime time.Duration // baseline per-record decode cost (reduce side)
}

func (s *Stats) add(o Stats) {
	s.BytesWritten += o.BytesWritten
	s.BytesSpilled += o.BytesSpilled
	s.BytesFetched += o.BytesFetched
	s.WireBytesFetched += o.WireBytesFetched
	s.Spills += o.Spills
	s.FetchRetries += o.FetchRetries
	s.Records += o.Records
	s.WriteTime += o.WriteTime
	s.ReadTime += o.ReadTime
	s.SerTime += o.SerTime
	s.DeserTime += o.DeserTime
}

// AddTo folds the exchange accounting into a job cost breakdown: shuffle
// busy time into the ShuffleWrite/ShuffleRead attribution buckets, the
// exchange serde into Ser/Deser (it is real serialization cost, the very
// cost Gerenuk eliminates), and the volume counters.
func (s Stats) AddTo(bd *metrics.Breakdown) {
	bd.ShuffleWrite += s.WriteTime
	bd.ShuffleRead += s.ReadTime
	bd.Ser += s.SerTime
	bd.Deser += s.DeserTime
	bd.Spills += s.Spills
	bd.ShuffleBytesWritten += s.BytesWritten
	bd.ShuffleBytesSpilled += s.BytesSpilled
	bd.ShuffleBytesFetched += s.BytesFetched
	bd.ShuffleFetchRetries += s.FetchRetries
}

// Block is one sealed map output for one reducer: records ordered by
// (key, arrival), possibly compressed.
type Block struct {
	Payload []byte // wire form (compressed when Codec != None)
	RawLen  int    // uncompressed length
	Records int
	Codec   Compression
}

type blockID struct {
	exchange string
	mapTask  int
	reducer  int
}

// Store is the registry of sealed shuffle blocks — the simulated shuffle
// service mappers publish to and reducers fetch from. Each block is held
// as a slice of replica slots; a nil slot is a lost replica, and an entry
// whose every slot is nil is a fully lost block only lineage can bring
// back. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	blocks map[blockID][]*Block
}

// NewStore returns an empty block store.
func NewStore() *Store { return &Store{blocks: make(map[blockID][]*Block)} }

func (s *Store) put(id blockID, b *Block, replicas int) {
	if replicas < 1 {
		replicas = 1
	}
	reps := make([]*Block, replicas)
	for i := range reps {
		reps[i] = b
	}
	s.mu.Lock()
	s.blocks[id] = reps
	s.mu.Unlock()
}

// replicas returns a snapshot of the block's replica slots (nil slots
// are lost replicas); the second result is false when the block was
// never registered.
func (s *Store) replicas(id blockID) ([]*Block, bool) {
	s.mu.Lock()
	reps, ok := s.blocks[id]
	out := append([]*Block(nil), reps...)
	s.mu.Unlock()
	return out, ok
}

func (s *Store) has(id blockID) bool {
	s.mu.Lock()
	_, ok := s.blocks[id]
	s.mu.Unlock()
	return ok
}

// Drop marks up to k live replicas of one block as lost and returns how
// many it actually dropped. This is the injection point for replica-loss
// chaos (and the test hook); a block whose every replica is dropped stays
// registered so the fetch path sees "lost", not "never written".
func (s *Store) Drop(exchange string, mapTask, reducer, k int) int {
	id := blockID{exchange, mapTask, reducer}
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for i, b := range s.blocks[id] {
		if dropped == k {
			break
		}
		if b != nil {
			s.blocks[id][i] = nil
			dropped++
		}
	}
	return dropped
}

// release drops every block of one exchange, bounding the store to the
// exchanges still in flight.
func (s *Store) release(exchange string) {
	s.mu.Lock()
	for id := range s.blocks {
		if id.exchange == exchange {
			delete(s.blocks, id)
		}
	}
	s.mu.Unlock()
}

// Len returns the number of registered blocks with at least one live
// replica.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, reps := range s.blocks {
		for _, b := range reps {
			if b != nil {
				n++
				break
			}
		}
	}
	return n
}

// Exchange is one shuffle: a set of map-side writers publishing into a
// store and a reduce-side fetch pass consuming them. Writers of distinct
// map tasks may run concurrently; FetchAll assembles reducers
// concurrently.
type Exchange struct {
	store *Store
	cfg   Config
	name  string
	class string
	keys  *engine.KeyReader
	// codec non-nil selects the baseline exchange: every record crossing
	// pays a decode+encode on the write side and a decode on the fetch
	// side. nil is the Gerenuk exchange: bytes cross untouched.
	codec *serde.Codec

	span *trace.Span

	mu     sync.Mutex
	maps   []int
	stats  Stats
	closed bool
}

// NewExchange resolves the key field against the class layout once, for
// every writer — even an exchange whose every partition turns out empty
// must reject a missing key field loudly — and opens the exchange span.
func NewExchange(store *Store, cfg Config, name string, layouts *dsa.Result,
	class, keyField string, codec *serde.Codec) (*Exchange, error) {
	keys, err := engine.NewKeyReader(layouts, class, keyField)
	if err != nil {
		return nil, fmt.Errorf("shuffle: %w", err)
	}
	if store == nil {
		store = NewStore()
	}
	cfg = cfg.withDefaults()
	ex := &Exchange{
		store: store, cfg: cfg, name: name,
		class: class, keys: keys, codec: codec,
	}
	ex.span = cfg.Trace.StartSpan("shuffle", name,
		trace.Str("class", class), trace.Str("key", keyField),
		trace.I64("partitions", int64(cfg.Partitions)),
		trace.Str("compression", cfg.Compression.String()))
	return ex, nil
}

// Discard abandons the exchange without fetching: every block published
// into the store under this exchange's name is released, as is every
// lineage producer registered for it, and the exchange is closed (a
// later FetchAll or Discard errors/no-ops). This is the cleanup path of
// an exchange that fails before its fetch — a writer that could not be
// filled or sealed, a canceled job — so neither the store nor a shared
// lineage registry holds orphaned state.
func (ex *Exchange) Discard() {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return
	}
	ex.closed = true
	ex.mu.Unlock()
	ex.release()
	ex.span.End(trace.Str("outcome", "discarded"))
}

// release drops the exchange's blocks from the store and its producers
// from the lineage registry. Lineage is only consulted during the fetch,
// so once the fetch is over (or will never happen) a rebuild closure —
// which retains its map output — is dead weight.
func (ex *Exchange) release() {
	ex.store.release(ex.name)
	ex.cfg.Lineage.Release(ex.name)
}

// Stats returns the exchange accounting so far.
func (ex *Exchange) Stats() Stats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.stats
}

// addStats folds a writer's or reducer's accounting into the exchange and
// publishes the series that mirror its fields, their one bump site. A
// lineage-rebuild writer folds nothing, so no series counts a rewrite.
func (ex *Exchange) addStats(o Stats) {
	ex.mu.Lock()
	ex.stats.add(o)
	ex.mu.Unlock()
	reg := ex.reg()
	reg.Counter("shuffle_spills_total").Add(o.Spills)
	reg.Counter("shuffle_bytes_spilled_total").Add(o.BytesSpilled)
	reg.Counter("shuffle_bytes_written_total").Add(o.BytesWritten)
	reg.Counter("shuffle_bytes_fetched_total").Add(o.BytesFetched)
	reg.Counter("shuffle_fetch_retries_total").Add(o.FetchRetries)
	reg.Counter("shuffle_records_fetched_total").Add(o.Records)
}

func (ex *Exchange) addMap(mapTask int) {
	ex.mu.Lock()
	ex.maps = append(ex.maps, mapTask)
	ex.mu.Unlock()
}

// mapIDs returns the registered map task ids in ascending order, the
// deterministic assembly order of every reducer's fetch.
func (ex *Exchange) mapIDs() []int {
	ex.mu.Lock()
	ids := append([]int(nil), ex.maps...)
	ex.mu.Unlock()
	sort.Ints(ids)
	return ids
}

func (ex *Exchange) reg() *trace.Registry { return ex.cfg.Trace.Registry() }
