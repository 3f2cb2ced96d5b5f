package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	. "repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/spark"
)

func pairProgram(t *testing.T) *ir.Program {
	t.Helper()
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "Pair", Fields: []model.FieldDef{
		{Name: "key", Type: model.Prim(model.KindLong)},
		{Name: "value", Type: model.Prim(model.KindDouble)},
	}})
	reg.Define(model.ClassDef{Name: "Tagged", Fields: []model.FieldDef{
		{Name: "name", Type: model.Object(model.StringClassName)},
		{Name: "n", Type: model.Prim(model.KindLong)},
	}})
	reg.Define(model.ClassDef{Name: "Labeled", Fields: []model.FieldDef{
		{Name: "label", Type: model.Object(model.StringClassName)},
		{Name: "name", Type: model.Object(model.StringClassName)},
		{Name: "n", Type: model.Prim(model.KindLong)},
	}})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Pair", "Tagged", "Labeled"}

	b := ir.NewFuncBuilder(prog, "incUDF", model.Type{})
	rec := b.Param("rec", model.Object("Pair"))
	k := b.Load(rec, "key")
	v := b.Load(rec, "value")
	one := b.FConst(1)
	v1 := b.Bin(ir.OpAdd, v, one)
	out := b.New("Pair")
	b.Store(out, "key", k)
	b.Store(out, "value", v1)
	b.EmitRecord(out)
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "incStage", "incUDF", "Pair")
	return prog
}

func encode(t *testing.T, c *Compiled, n int) []byte {
	t.Helper()
	var buf []byte
	var err error
	for i := 0; i < n; i++ {
		buf, err = c.Codec.Encode("Pair", serde.Obj{"key": int64(i), "value": float64(i)}, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestExecutorModesAgree(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	input := encode(t, c, 25)
	spec := TaskSpec{
		Name: "t", Driver: "incStage",
		Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
	}
	var outs [][]byte
	for _, mode := range []Mode{Baseline, Gerenuk} {
		e := &Executor{C: c, Mode: mode, HeapCfg: heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20}}
		res, err := e.RunTask(spec)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		outs = append(outs, res.Out)
		if res.Stats.Records != 25 {
			t.Errorf("%v: records = %d", mode, res.Stats.Records)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("modes disagree")
	}
}

func TestInputImmutabilityAcrossAttempts(t *testing.T) {
	// The input buffer must be byte-identical after a Gerenuk run —
	// the invariant that makes slow-path re-execution possible.
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	input := encode(t, c, 10)
	canary := append([]byte(nil), input...)
	e := &Executor{C: c, Mode: Gerenuk}
	if _, err := e.RunTask(TaskSpec{
		Name: "t", Driver: "incStage",
		Invocations:       []map[string]Input{{"in": {Class: "Pair", Buf: input}}},
		AbortAfterRecords: 3, // force the abort+slow-path sequence too
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(input, canary) {
		t.Fatalf("input buffer mutated by execution")
	}
}

func TestOffsRestrictedInvocation(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	input := encode(t, c, 6)
	offs := RecordOffsets(input)
	if len(offs) != 6 {
		t.Fatalf("offsets = %d", len(offs))
	}
	spec := TaskSpec{
		Name: "t", Driver: "incStage",
		Invocations: []map[string]Input{
			{"in": {Class: "Pair", Buf: input, Offs: offs[2:4]}},
		},
	}
	for _, mode := range []Mode{Baseline, Gerenuk} {
		e := &Executor{C: c, Mode: mode}
		res, err := e.RunTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := len(RecordOffsets(res.Out))
		if n != 2 {
			t.Errorf("%v: processed %d records, want 2", mode, n)
		}
	}
}

func TestKeyReaderPrimAndString(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	var buf []byte
	var err error
	buf, err = c.Codec.Encode("Tagged", serde.Obj{"name": "abc", "n": int64(7)}, buf)
	if err != nil {
		t.Fatal(err)
	}
	names, err := NewKeyReader(c.Layouts, "Tagged", "name")
	if err != nil {
		t.Fatal(err)
	}
	// [len=3][a][b][c] as UTF-16LE chars.
	want := []byte{3, 0, 0, 0, 'a', 0, 'b', 0, 'c', 0}
	if key := names.Key(buf, 0); !bytes.Equal(key, want) {
		t.Errorf("string key = %x, want %x", key, want)
	}
	ns, err := NewKeyReader(c.Layouts, "Tagged", "n")
	if err != nil {
		t.Fatal(err)
	}
	if nkey := ns.Key(buf, 0); len(nkey) != 8 || nkey[0] != 7 {
		t.Errorf("prim key = %x", nkey)
	}
	if _, err := NewKeyReader(c.Layouts, "Tagged", "missing"); err == nil {
		t.Errorf("missing field accepted")
	}
	if _, err := NewKeyReader(c.Layouts, "NoSuch", "n"); err == nil {
		t.Errorf("missing class accepted")
	}
	// The missing field errors at every entry point, even over no records.
	if _, _, err := GroupByKey(c.Layouts, "Tagged", "missing", nil); err == nil {
		t.Errorf("GroupByKey accepted a missing field")
	}
	if _, err := Partition(c.Layouts, "Tagged", "missing", nil, 2); err == nil {
		t.Errorf("Partition accepted a missing field")
	}
}

// Next decides record validity: every way a frame or its key field can
// overrun its bytes is an error, for a constant and a symbolic key
// offset alike, and a valid buffer validates with Next's keys equal to
// Key's.
func TestKeyReaderNextRejectsDamage(t *testing.T) {
	c := Compile(pairProgram(t))
	reader := func(class, field string) *KeyReader {
		k, err := NewKeyReader(c.Layouts, class, field)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// pairs' key is at a constant offset, names' is a string, ns' lies
	// after a string (a symbolic offset) and labeled's after two (an
	// offset read at a symbolic offset).
	pairs, names, ns := reader("Pair", "key"), reader("Tagged", "name"), reader("Tagged", "n")
	labeledN := reader("Labeled", "n")
	pair := encode(t, c, 2)
	tagged, err := c.Codec.Encode("Tagged", serde.Obj{"name": "abc", "n": int64(7)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := c.Codec.Encode("Labeled", serde.Obj{"label": "ab", "name": "c", "n": int64(7)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k   *KeyReader
		buf []byte
	}{{pairs, pair}, {names, tagged}, {ns, tagged}, {labeledN, labeled}} {
		if err := tc.k.Validate(tc.buf); err != nil {
			t.Fatalf("valid buffer rejected: %v", err)
		}
		for _, off := range RecordOffsets(tc.buf) {
			if key, _, _ := tc.k.Next(tc.buf, off); !bytes.Equal(key, tc.k.Key(tc.buf, off)) {
				t.Errorf("Next's key %x differs from Key's %x", key, tc.k.Key(tc.buf, off))
			}
		}
	}
	frame := func(payload ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	// withLen is rec with its first string's length field set to n.
	withLen := func(rec []byte, n int32) []byte {
		b := slices.Clone(rec)
		binary.LittleEndian.PutUint32(b[serde.SizePrefixBytes:], uint32(n))
		return b
	}
	for _, tc := range []struct {
		name string
		k    *KeyReader
		buf  []byte
	}{
		{"size prefix cut", pairs, pair[:len(pair)/2+3]},
		{"frame overruns the buffer", pairs, pair[:len(pair)-1]},
		{"empty payload", pairs, frame()},
		{"payload shorter than the key field", pairs, frame(0, 0, 0, 0)},
		{"string length field cut", names, frame(1, 0)},
		{"negative string length", names, withLen(tagged, -1)},
		{"string overruns the payload", names, withLen(tagged, 100)},
		{"symbolic offset reads past the payload", ns, frame(1, 0)},
		{"symbolic offset past the payload", ns, withLen(tagged, 100)},
		{"negative symbolic offset", ns, withLen(tagged, -3)},
		// The label's length puts the name's length slot at offset -2;
		// read as 0, it would leave the key in range.
		{"symbolic offset reads before the payload", labeledN, withLen(labeled, -3)},
	} {
		if err := tc.k.Validate(tc.buf); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// The checked step costs no allocation over a constant key offset, a
// primitive key's or a string key's.
func TestValidateAllocs(t *testing.T) {
	c := Compile(pairProgram(t))
	pairs, tagged := encode(t, c, 10000), []byte(nil)
	for i := 0; i < 10000; i++ {
		var err error
		if tagged, err = c.Codec.Encode("Tagged", serde.Obj{"name": "abc", "n": int64(i)}, tagged); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		class, field string
		buf          []byte
	}{{"Pair", "key", pairs}, {"Tagged", "name", tagged}} {
		k, err := NewKeyReader(c.Layouts, tc.class, tc.field)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if err := k.Validate(tc.buf); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Validate over 10000 %s records keyed by %s: %.0f allocations, want 0", tc.class, tc.field, got)
		}
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	input := encode(t, c, 40)
	parts, err := Partition(c.Layouts, "Pair", "key", input, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(RecordOffsets(p))
	}
	if total != 40 {
		t.Fatalf("partitioning lost records: %d", total)
	}
	// Same key must always land in the same partition.
	again, err := Partition(c.Layouts, "Pair", "key", input, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if !bytes.Equal(parts[i], again[i]) {
			t.Errorf("partitioning not deterministic")
		}
	}
}

// encodeRuns builds the shape of a fetched reducer buffer: runs
// key-sorted runs concatenated, keys drawn from [0, distinct) so that
// keys repeat within a run and recur across runs.
func encodeRuns(t *testing.T, c *Compiled, runs, perRun, distinct int) []byte {
	t.Helper()
	var buf []byte
	var err error
	for r := 0; r < runs; r++ {
		keys := make([]int64, perRun)
		for i := range keys {
			keys[i] = int64((i*7 + r*3) % distinct)
		}
		slices.Sort(keys)
		for i, k := range keys {
			buf, err = c.Codec.Encode("Pair", serde.Obj{"key": k, "value": float64(r*perRun + i)}, buf)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf
}

// GroupByKey over the exchange's real shape agrees with a naive map
// grouping over decoded records: the same keys in first-seen order, and
// every group's offsets in record order.
func TestGroupByKeyGroupsAllRecords(t *testing.T) {
	c := Compile(pairProgram(t))
	for _, tc := range []struct{ runs, perRun, distinct int }{
		{1, 30, 5}, {4, 25, 9}, {3, 40, 40}, {5, 12, 1},
	} {
		buf := encodeRuns(t, c, tc.runs, tc.perRun, tc.distinct)
		var order []int64
		ref := map[int64][]int{}
		for off := 0; off < len(buf); off += serde.RecordSize(buf, off) {
			v, _, err := c.Codec.Decode("Pair", buf, off)
			if err != nil {
				t.Fatal(err)
			}
			k := v.(serde.Obj)["key"].(int64)
			if _, seen := ref[k]; !seen {
				order = append(order, k)
			}
			ref[k] = append(ref[k], off)
		}
		keys, groups, err := GroupByKey(c.Layouts, "Pair", "key", buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(order) || len(groups) != len(order) {
			t.Fatalf("%+v: %d keys, %d groups, want %d", tc, len(keys), len(groups), len(order))
		}
		for i, k := range order {
			if got := int64(binary.LittleEndian.Uint64(keys[i])); got != k {
				t.Errorf("%+v: key %d = %d, want %d (first-seen order)", tc, i, got, k)
			}
			if !slices.Equal(groups[i], ref[k]) {
				t.Errorf("%+v: group of key %d = %v, want %v", tc, k, groups[i], ref[k])
			}
		}
	}
}

// GroupByKey allocates per distinct key (its index entry), not per
// record: groups share one flat offset slice.
func TestGroupByKeyAllocsPerDistinctKey(t *testing.T) {
	const slack = 64
	c := Compile(pairProgram(t))
	for _, distinct := range []int{1, 16, 1000} {
		buf := encodeRuns(t, c, 4, 1000, distinct)
		got := testing.AllocsPerRun(20, func() {
			if _, _, err := GroupByKey(c.Layouts, "Pair", "key", buf); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(distinct+slack) {
			t.Errorf("GroupByKey over 4000 records, %d keys: %.0f allocs, want <= %d", distinct, got, distinct+slack)
		}
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		var ran atomic.Int64
		err := ForEach(workers, 50, func(i int) error {
			ran.Add(1)
			if i == 17 || i == 31 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 17" {
			t.Errorf("workers=%d: err = %v, want item 17", workers, err)
		}
		if n := ran.Load(); n < 18 {
			t.Errorf("workers=%d: %d items ran, want every item up to the failure", workers, n)
		}
		seen := make([]atomic.Bool, 40)
		var inFlight, peak atomic.Int64
		if err := ForEach(workers, len(seen), func(i int) error {
			if n := inFlight.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			defer inFlight.Add(-1)
			if seen[i].Swap(true) {
				t.Errorf("workers=%d: item %d ran twice", workers, i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if !seen[i].Load() {
				t.Errorf("workers=%d: item %d never ran", workers, i)
			}
		}
		if p := peak.Load(); p > int64(max(workers, 1)) {
			t.Errorf("workers=%d: %d items in flight", workers, p)
		}
	}
}

func TestPoolRunsAllTasksAcrossWorkers(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	var created int32
	pool := &Pool{Workers: 3}
	specs := make([]TaskSpec, 9)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "t", Driver: "incStage",
			Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: encode(t, c, 3)}}},
		}
	}
	job, err := pool.Run(func() *Executor {
		atomic.AddInt32(&created, 1)
		return &Executor{C: c, Mode: Gerenuk}
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if created != 3 {
		t.Errorf("executors created = %d, want 3", created)
	}
	if len(job.Outputs) != 9 {
		t.Errorf("outputs = %d", len(job.Outputs))
	}
	if job.Stats.Records != 27 {
		t.Errorf("records = %d, want 27", job.Stats.Records)
	}
}

func TestHashKeyStable(t *testing.T) {
	a := HashKey([]byte{1, 2, 3})
	b := HashKey([]byte{1, 2, 3})
	c := HashKey([]byte{1, 2, 4})
	if a != b {
		t.Errorf("hash not deterministic")
	}
	if a == c {
		t.Errorf("trivial collision")
	}
}

func TestOwnedInputMatchesCopiedInput(t *testing.T) {
	// An Owned input (zero-copy adoption of a freshly assembled buffer,
	// e.g. a fetched shuffle block) must behave exactly like the default
	// copy-in path: same output in both modes, and since attempts only
	// read the input, the caller's buffer stays byte-identical.
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Baseline, Gerenuk} {
		var outs [][]byte
		for _, owned := range []bool{false, true} {
			input := encode(t, c, 20)
			canary := append([]byte(nil), input...)
			e := &Executor{C: c, Mode: mode}
			res, err := e.RunTask(TaskSpec{
				Name: "t", Driver: "incStage",
				Invocations: []map[string]Input{
					{"in": {Class: "Pair", Buf: input, Owned: owned}},
				},
			})
			if err != nil {
				t.Fatalf("%v owned=%v: %v", mode, owned, err)
			}
			outs = append(outs, res.Out)
			if !bytes.Equal(input, canary) {
				t.Fatalf("%v owned=%v: input buffer mutated", mode, owned)
			}
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("%v: owned input diverged from copied input", mode)
		}
	}
}

// TestSerialTaskAllocs pins the fixed cost of an unhedged native task
// with tracing off: an empty task allocates at most 2 objects per
// RunTask — the attempt's output region and the boxed outcome of its
// span end. That pins that the serial path starts no goroutine, channel
// or timer, keeps its per-task state off the heap, builds no task span
// arguments with tracing off and takes its attempt memory from the free
// lists — each of those would allocate.
func TestSerialTaskAllocs(t *testing.T) {
	const maxAllocs = 2
	prog := pairProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("incStage"); err != nil {
		t.Fatal(err)
	}
	e := &Executor{C: c, Mode: Gerenuk, HeapCfg: heap.Config{YoungSize: 4 << 10, OldSize: 16 << 10}}
	spec := TaskSpec{Name: "empty", Driver: "incStage"}
	got := testing.AllocsPerRun(100, func() {
		if _, err := e.RunTask(spec); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Errorf("empty native task: %.0f allocs per RunTask, want <= %d", got, maxAllocs)
	}
}
