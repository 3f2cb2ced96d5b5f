package shuffle_test

import (
	"bytes"
	"os"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
	. "repro/internal/shuffle"
	"repro/internal/trace"
)

// pairCompiled compiles the two record classes the tests shuffle: Pair,
// keyed by a long at a constant offset, and Named, whose long key lies
// after a string, at a symbolic offset.
func pairCompiled(t testing.TB) *engine.Compiled {
	t.Helper()
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "Pair", Fields: []model.FieldDef{
		{Name: "key", Type: model.Prim(model.KindLong)},
		{Name: "value", Type: model.Prim(model.KindDouble)},
	}})
	reg.Define(model.ClassDef{Name: "Named", Fields: []model.FieldDef{
		{Name: "name", Type: model.Object(model.StringClassName)},
		{Name: "key", Type: model.Prim(model.KindLong)},
	}})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Pair", "Named"}
	return engine.Compile(prog)
}

// keyReader resolves class's "key" field against c's layouts.
func keyReader(t testing.TB, c *engine.Compiled, class string) *engine.KeyReader {
	t.Helper()
	keys, err := engine.NewKeyReader(c.Layouts, class, "key")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// encodeParts builds nParts map-side partitions of n records each, keys
// cycling mod keyMod so every reducer sees multi-record key groups.
func encodeParts(t *testing.T, c *engine.Compiled, nParts, n, keyMod int) [][]byte {
	t.Helper()
	parts := make([][]byte, nParts)
	var err error
	for p := 0; p < nParts; p++ {
		for i := 0; i < n; i++ {
			parts[p], err = c.Codec.Encode("Pair",
				serde.Obj{"key": int64((p*n + i) % keyMod), "value": float64(p*n + i)}, parts[p])
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return parts
}

// writeAll fills and seals one writer per part, the writers running
// concurrently the way the job runtime runs them.
func writeAll(t *testing.T, ex *Exchange, parts [][]byte) {
	t.Helper()
	if err := engine.ForEach(4, len(parts), func(i int) error {
		w := ex.Writer(i)
		if err := w.Add(parts[i]); err != nil {
			return err
		}
		return w.Close()
	}); err != nil {
		t.Fatal(err)
	}
}

// runExchange pushes parts through one exchange and returns the fetched
// reducer blocks plus the accounting.
func runExchange(t *testing.T, c *engine.Compiled, cfg Config, codec *serde.Codec, parts [][]byte) ([][]byte, Stats) {
	t.Helper()
	cfg.SpillDir = t.TempDir()
	ex, err := NewExchange(nil, cfg, "test", c.Layouts, "Pair", "key", codec)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, ex, parts)
	blocks, err := ex.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	return blocks, ex.Stats()
}

func countRecords(blocks [][]byte) int {
	n := 0
	for _, b := range blocks {
		for off := 0; off < len(b); off += serde.RecordSize(b, off) {
			n++
		}
	}
	return n
}

// The determinism contract: unbounded in-memory, tiny spill budgets, and
// every compression codec must produce byte-identical reducer blocks, in
// both the baseline (serde-paying) and gerenuk (native bytes) exchanges,
// with the writers and the reducers' fetches running concurrently.
func TestExchangeDeterministicAcrossConfigs(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 6, 40, 17)

	for _, mode := range []string{"gerenuk", "baseline"} {
		var codec *serde.Codec
		if mode == "baseline" {
			codec = c.Codec
		}
		ref, refStats := runExchange(t, c, Config{Partitions: 4}, codec, parts)
		if refStats.Spills != 0 {
			t.Fatalf("%s: unbounded config spilled %d times", mode, refStats.Spills)
		}
		if got := countRecords(ref); got != 240 {
			t.Fatalf("%s: fetched %d records, want 240", mode, got)
		}
		cases := []struct {
			name string
			cfg  Config
		}{
			{"spill-1b", Config{Partitions: 4, MemoryBudget: 1}},
			{"spill-256b", Config{Partitions: 4, MemoryBudget: 256}},
			// A writer stages 40 records of 28 B (key + record); 300 B
			// spills runs of 11 and leaves a 7-record tail for Close to
			// merge after them. The other budgets divide 40 evenly.
			{"spill-300b", Config{Partitions: 4, MemoryBudget: 300}},
			{"spill-lz4", Config{Partitions: 4, MemoryBudget: 128, Compression: LZ4}},
			{"inmem-lz4", Config{Partitions: 4, Compression: LZ4}},
		}
		for _, tc := range cases {
			blocks, st := runExchange(t, c, tc.cfg, codec, parts)
			if len(blocks) != len(ref) {
				t.Fatalf("%s/%s: %d blocks, want %d", mode, tc.name, len(blocks), len(ref))
			}
			for r := range blocks {
				if !bytes.Equal(blocks[r], ref[r]) {
					t.Errorf("%s/%s: reducer %d diverged from in-memory reference", mode, tc.name, r)
				}
			}
			if tc.cfg.MemoryBudget > 0 && st.Spills < int64(len(parts)) {
				t.Errorf("%s/%s: %d spills, want >= one per map task (%d)", mode, tc.name, st.Spills, len(parts))
			}
			if st.BytesFetched != refStats.BytesFetched {
				t.Errorf("%s/%s: fetched %d bytes, reference fetched %d", mode, tc.name, st.BytesFetched, refStats.BytesFetched)
			}
		}
	}
}

// stableKeySort is the naive reference for a key-ordered fetch: buf's
// records stably sorted by canonical key bytes.
func stableKeySort(keys *engine.KeyReader, buf []byte) []byte {
	var offs []int
	for off := 0; off < len(buf); off += serde.RecordSize(buf, off) {
		offs = append(offs, off)
	}
	sort.SliceStable(offs, func(i, j int) bool {
		return bytes.Compare(keys.Key(buf, offs[i]), keys.Key(buf, offs[j])) < 0
	})
	out := make([]byte, 0, len(buf))
	for _, off := range offs {
		out = append(out, buf[off:off+serde.RecordSize(buf, off)]...)
	}
	return out
}

// The two fetch orders, in both modes and under every storage
// configuration: an arrival-order fetch is the plain concatenation of
// each reducer's per-map blocks in map-task order (a lone map task's
// exchange fetches exactly its blocks), and a key-ordered fetch is that
// concatenation stably sorted by key, byte for byte.
func TestKeyOrderedFetchIsStableKeySort(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 6, 40, 17)
	keys, err := engine.NewKeyReader(c.Layouts, "Pair", "key")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"gerenuk", "baseline"} {
		var codec *serde.Codec
		if mode == "baseline" {
			codec = c.Codec
		}
		concat := make([][]byte, 4)
		for _, p := range parts {
			blocks, _ := runExchange(t, c, Config{Partitions: 4}, codec, [][]byte{p})
			for r, b := range blocks {
				concat[r] = append(concat[r], b...)
			}
		}
		for _, budget := range []int64{0, 512} {
			for _, comp := range []Compression{None, LZ4} {
				for _, replicas := range []int{1, 2} {
					cfg := Config{Partitions: 4, MemoryBudget: budget, Compression: comp, Replicas: replicas}
					arrival, _ := runExchange(t, c, cfg, codec, parts)
					cfg.KeyOrder = true
					merged, _ := runExchange(t, c, cfg, codec, parts)
					for r := range concat {
						if !bytes.Equal(arrival[r], concat[r]) {
							t.Errorf("%s/budget=%d/%v/replicas=%d: reducer %d: arrival-order fetch is not the blocks' concatenation",
								mode, budget, comp, replicas, r)
						}
						if !bytes.Equal(merged[r], stableKeySort(keys, concat[r])) {
							t.Errorf("%s/budget=%d/%v/replicas=%d: reducer %d: key-ordered fetch is not a stable key sort",
								mode, budget, comp, replicas, r)
						}
					}
				}
			}
		}
	}
}

// The merge allocates its per-block keys and nothing per record.
func TestMergeByKeyAllocsConstant(t *testing.T) {
	c := pairCompiled(t)
	keys, err := engine.NewKeyReader(c.Layouts, "Pair", "key")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		var raws [][]byte
		size := 0
		for _, p := range encodeParts(t, c, 4, n/4, n/8) {
			blocks, _ := runExchange(t, c, Config{Partitions: 1}, nil, [][]byte{p})
			raws = append(raws, blocks[0])
			size += len(blocks[0])
		}
		buf, cursors := make([]byte, 0, size), make([][]byte, len(raws))
		return testing.AllocsPerRun(20, func() {
			copy(cursors, raws) // the merge consumes its cursors
			if got := MergeByKey(keys, buf, cursors); len(got) != size {
				t.Fatalf("merged %d bytes of %d", len(got), size)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	if large != small || large > 1 {
		t.Errorf("merge allocs: %.0f at 64 records, %.0f at 4096; want equal and <= 1", small, large)
	}
}

// An in-memory Close seals every reducer's sorted entries into one
// buffer whose slices are the published blocks; a 4-reducer writer's
// Close may allocate at most 21 objects.
func TestInMemoryCloseAllocs(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 40, 17)
	const runs = 20
	ws := make([]*Writer, runs+1) // AllocsPerRun closes one more to warm up
	for i := range ws {
		ex, err := NewExchange(nil, Config{Partitions: 4}, "allocs", c.Layouts, "Pair", "key", nil)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = ex.Writer(0)
		if err := ws[i].Add(parts[0]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ws[i].Close(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 21 {
		t.Errorf("in-memory Close: %.0f allocations, want <= 21", allocs)
	}
}

// Satellite fix: a missing key field must error at exchange creation,
// before any record is seen — even a shuffle whose partitions are all
// empty rejects it.
func TestMissingKeyFieldErrorsBeforeAnyRecord(t *testing.T) {
	c := pairCompiled(t)
	if _, err := NewExchange(nil, Config{Partitions: 2}, "t", c.Layouts, "Pair", "nope", nil); err == nil {
		t.Fatal("missing key field accepted")
	}
	if _, err := NewExchange(nil, Config{Partitions: 2}, "t", c.Layouts, "NoSuch", "key", nil); err == nil {
		t.Fatal("missing class accepted")
	}
	// A valid exchange with zero input still works and yields empty blocks.
	ex, err := NewExchange(nil, Config{Partitions: 2}, "t", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := ex.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || len(blocks[0]) != 0 || len(blocks[1]) != 0 {
		t.Fatalf("empty exchange produced non-empty blocks: %v", blocks)
	}
}

func TestFetchRetryRecoversInjectedFaults(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 30, 7)
	ref, _ := runExchange(t, c, Config{Partitions: 3}, nil, parts)

	inj := &faults.Injector{Seed: 42, FetchFailRate: 1, FetchFails: 2}
	blocks, st := runExchange(t, c, Config{Partitions: 3, Injector: inj}, nil, parts)
	for r := range blocks {
		if !bytes.Equal(blocks[r], ref[r]) {
			t.Errorf("reducer %d diverged under fetch faults", r)
		}
	}
	if st.FetchRetries < 2 {
		t.Errorf("fetch retries = %d, want >= 2 (2 injected failures per reducer)", st.FetchRetries)
	}
}

func TestFetchRetryExhaustionFailsTheJob(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 10, 3)
	inj := &faults.Injector{Seed: 7, FetchFailRate: 1, FetchFails: 100}
	cfg := Config{Partitions: 1, Injector: inj, SpillDir: t.TempDir()}
	ex, err := NewExchange(nil, cfg, "t", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := ex.Writer(0)
	if err := w.Add(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.FetchAll(); err == nil {
		t.Fatal("exhausted retries still succeeded")
	}
}

// The acceptance criterion made unit-sized: the baseline exchange decodes
// every fetched record (the decode counter and the fetch spans' decodes
// args each sum to the records fetched); the gerenuk exchange decodes
// none.
func TestBaselineDecodesPerRecordGerenukZero(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 25, 9)
	const total = 50

	for _, mode := range []string{"baseline", "gerenuk"} {
		tr := trace.New()
		var codec *serde.Codec
		if mode == "baseline" {
			codec = c.Codec
		}
		cfg := Config{Partitions: 3, MemoryBudget: 200, Compression: LZ4, Trace: tr}
		cfg.SpillDir = t.TempDir()
		ex, err := NewExchange(nil, cfg, "t", c.Layouts, "Pair", "key", codec)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			w := ex.Writer(i)
			if err := w.Add(p); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.FetchAll(); err != nil {
			t.Fatal(err)
		}
		decodes := tr.Registry().Counter("shuffle_read_decodes_total").Value()
		var spanDecodes int64
		for _, e := range tr.Events() {
			if e.Name == "fetch" {
				spanDecodes += e.Args["decodes"].(int64)
			}
		}
		want := int64(0)
		if mode == "baseline" {
			want = total
		}
		if decodes != want || spanDecodes != want {
			t.Errorf("%s: decode counter = %d, fetch spans' decodes = %d, want %d",
				mode, decodes, spanDecodes, want)
		}
		if got := tr.Registry().Counter("shuffle_records_fetched_total").Value(); got != total {
			t.Errorf("%s: records fetched counter = %d, want %d", mode, got, total)
		}
	}
}

// Double-Close is an idempotent no-op (defer-friendly); a second
// FetchAll is still an error — the exchange is gone after the first.
func TestWriterDoubleCloseIdempotentFetchTwiceRejected(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 5, 3)
	store := NewStore()
	ex, err := NewExchange(store, Config{Partitions: 1}, "t", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := ex.Writer(0)
	if err := w.Add(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close not idempotent: %v", err)
	}
	if got := store.Len(); got != 1 {
		t.Errorf("double close left %d blocks, want 1", got)
	}
	if _, err := ex.FetchAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.FetchAll(); err == nil {
		t.Error("second FetchAll accepted")
	}
}

func TestStoreReleasedAfterFetch(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 10, 4)
	store := NewStore()
	ex, err := NewExchange(store, Config{Partitions: 2}, "t", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		w := ex.Writer(i)
		if err := w.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() == 0 {
		t.Fatal("no blocks registered")
	}
	if _, err := ex.FetchAll(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Errorf("store still holds %d blocks after fetch", store.Len())
	}
}

// An abandoned writer — records staged, spill runs on disk — must delete
// every spill run, stay abandoned across double-Abandon and late Close,
// and, once the exchange is discarded, leave none of its sibling
// writers' published blocks behind.
func TestAbandonedWriterLeaksNothing(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 60, 11)
	spillDir := t.TempDir()
	store := NewStore()
	cfg := Config{Partitions: 3, MemoryBudget: 64, SpillDir: spillDir}
	ex, err := NewExchange(store, cfg, "abandoned", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	sealed := ex.Writer(0)
	if err := sealed.Add(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := sealed.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("sealed writer published no blocks")
	}
	w := ex.Writer(1)
	if err := w.Add(parts[1]); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(spillDir); err != nil || len(ents) == 0 {
		t.Fatalf("no live spill runs before Abandon (err %v)", err)
	}
	w.Abandon()
	w.Abandon() // idempotent
	if err := w.Close(); err != nil {
		t.Errorf("Close after Abandon: %v", err)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("abandoned writer left %d spill runs on disk", len(ents))
	}
	if err := w.Add(parts[1]); err != nil {
		t.Log("Add after Abandon errored (acceptable):", err)
	}
	ex.Discard()
	ex.Discard() // idempotent
	if got := store.Len(); got != 0 {
		t.Errorf("discarded exchange left %d blocks in the store", got)
	}
	if _, err := ex.FetchAll(); err == nil {
		t.Error("FetchAll after Discard accepted")
	}
}
