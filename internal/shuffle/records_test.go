package shuffle_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/serde"
	. "repro/internal/shuffle"
)

// A record whose frame is intact but whose payload is shorter than its
// key field is an error at both places record bytes enter the exchange —
// Add, and a spill run read back at Close — and leaves no spill file.
func TestShortPayloadIsAnError(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 10, 3)
	open := func(t *testing.T, dir string) *Writer {
		// One reducer and a 64-byte budget: every run and the tail hold
		// a block of reducer 0, so Close merges them.
		ex, err := NewExchange(nil, Config{Partitions: 1, MemoryBudget: 64, SpillDir: dir},
			"short", c.Layouts, "Pair", "key", nil)
		if err != nil {
			t.Fatal(err)
		}
		w := ex.Writer(0)
		if err := w.Add(parts[0]); err != nil {
			t.Fatal(err)
		}
		return w
	}
	leftIn := func(t *testing.T, dir string) {
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%d entries left in SpillDir, first %s", len(left), left[0].Name())
		}
	}
	t.Run("add", func(t *testing.T) {
		dir := t.TempDir()
		w := open(t, dir)
		if err := w.Add(frame(0)); err == nil {
			t.Fatal("Add accepted a record with an empty payload")
		}
		w.Abandon()
		leftIn(t, dir)
	})
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		w := open(t, dir)
		runs, err := filepath.Glob(filepath.Join(dir, "shuffle-*", "shuffle-*.run"))
		if err != nil || len(runs) < 2 {
			t.Fatalf("%d spill runs on disk, want at least 2 (err=%v)", len(runs), err)
		}
		// A live run rewritten as one group of two empty-payload records:
		// its frames are intact, its key fields are not.
		if err := os.WriteFile(runs[0], appendGroup(nil, 0, append(frame(0), frame(0)...)), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close merged a run of empty-payload records")
		}
		leftIn(t, dir)
	})
}

// A Baseline exchange decodes every record Add is handed. A Pair whose
// frame and key field are intact but whose 8-byte payload stops short of
// its value field, last in its buffer, is an error there, not a read
// past the buffer's end.
func TestBaselineShortPayloadIsAnError(t *testing.T) {
	c := pairCompiled(t)
	buf := append(encodeParts(t, c, 1, 2, 2)[0], frame(8)...)
	if err := keyReader(t, c, "Pair").Validate(buf); err != nil {
		t.Fatalf("the key check rejects the record: %v", err)
	}
	ex, err := NewExchange(nil, Config{Partitions: 2}, "short-baseline", c.Layouts, "Pair", "key", c.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Discard()
	w := ex.Writer(0)
	if err := w.Add(buf); err == nil || !strings.Contains(err.Error(), "overruns the record's end") {
		t.Fatalf("Add = %v, want the decode's overrun error", err)
	}
	w.Abandon()
}

// FuzzRecordBuffer feeds arbitrary bytes, as records of a class keyed at
// a constant offset (Pair) or at a symbolic one (Named), to the check
// where record bytes enter the exchange and to the unchecked walks
// behind it. Validate and Writer.Add must agree on every input; on a
// valid one no walk may panic — GroupByKey, Partition, FoldSpecs,
// MergeByKey over the buffer split into one block per record, and a
// spilling, key-ordered Gerenuk exchange's Add, Close and FetchAll — and
// the merge and the fetch must keep every byte. serde's Decode must
// never panic on the bytes, and a Baseline Pair exchange, which decodes
// every record, must fail Add exactly when Validate or a record's Decode
// fails.
func FuzzRecordBuffer(f *testing.F) {
	c := pairCompiled(f)
	if c.Layouts.Layout("Named").FieldOff["key"].IsConst() {
		f.Fatal("Named's key offset is constant; the fuzz target needs a symbolic one")
	}
	classes := []string{"Pair", "Named"}
	for i, class := range classes {
		var valid []byte
		for k := 0; k < 8; k++ {
			obj := serde.Obj{"key": int64(k % 3), "value": float64(k)}
			if class == "Named" {
				obj = serde.Obj{"name": strings.Repeat("n", k), "key": int64(k % 3)}
			}
			var err error
			if valid, err = c.Codec.Encode(class, obj, valid); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(valid, uint8(i))
		f.Add(valid[:len(valid)-1], uint8(i))
		f.Add(frame(0), uint8(i))
		f.Add(frame(6), uint8(i))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, buf []byte, class uint8) {
		cls := classes[int(class)%len(classes)]
		keys := keyReader(t, c, cls)
		cfg := Config{Partitions: 3, KeyOrder: true, MemoryBudget: 64, SpillDir: dir}
		ex, err := NewExchange(nil, cfg, "fuzz", c.Layouts, cls, "key", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Discard()
		w := ex.Writer(0)
		verr, aerr := keys.Validate(buf), w.Add(buf)
		if (verr == nil) != (aerr == nil) {
			t.Fatalf("Validate says %v, Add says %v", verr, aerr)
		}
		c.Codec.Decode(cls, buf, 0)
		if cls == "Pair" {
			derr := verr
			for off := 0; derr == nil && off < len(buf); off += serde.RecordSize(buf, off) {
				_, _, derr = c.Codec.Decode(cls, buf, off)
			}
			bex, err := NewExchange(nil, Config{Partitions: 3}, "fuzz-baseline", c.Layouts, cls, "key", c.Codec)
			if err != nil {
				t.Fatal(err)
			}
			bw := bex.Writer(0)
			if berr := bw.Add(buf); (derr == nil) != (berr == nil) {
				t.Fatalf("Validate and Decode say %v, Baseline Add says %v", derr, berr)
			}
			bw.Abandon()
			bex.Discard()
		}
		if verr != nil {
			w.Abandon()
			return
		}
		if _, _, err := engine.GroupByKey(c.Layouts, cls, "key", buf); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Partition(c.Layouts, cls, "key", buf, 3); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.FoldSpecs(1, c.Layouts, "reduce", cls, "key", [][]byte{buf}, false,
			func(int) string { return "fold" }); err != nil {
			t.Fatal(err)
		}
		offs := append(engine.RecordOffsets(buf), len(buf))
		blocks := make([][]byte, len(offs)-1)
		for i := range blocks {
			blocks[i] = buf[offs[i]:offs[i+1]]
		}
		if len(blocks) > 0 {
			if got := MergeByKey(keys, nil, blocks); len(got) != len(buf) {
				t.Fatalf("merged %d bytes of %d", len(got), len(buf))
			}
		}
		// A second map task adding the same records makes the fetch merge
		// two blocks per reducer.
		w2 := ex.Writer(1)
		if err := w2.Add(buf); err != nil {
			t.Fatal(err)
		}
		for _, w := range []*Writer{w, w2} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		fetched, err := ex.FetchAll()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range fetched {
			n += len(b)
		}
		if n != 2*len(buf) {
			t.Fatalf("fetched %d bytes of %d", n, 2*len(buf))
		}
	})
}
