package engine_test

import (
	"bytes"
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
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Pair", "Tagged"}

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

func TestKeyOfPrimAndString(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	var buf []byte
	var err error
	buf, err = c.Codec.Encode("Tagged", serde.Obj{"name": "abc", "n": int64(7)}, buf)
	if err != nil {
		t.Fatal(err)
	}
	key, err := KeyOf(c.Layouts, "Tagged", "name", buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	// [len=3][a][b][c] as UTF-16LE chars.
	want := []byte{3, 0, 0, 0, 'a', 0, 'b', 0, 'c', 0}
	if !bytes.Equal(key, want) {
		t.Errorf("string key = %x, want %x", key, want)
	}
	nkey, err := KeyOf(c.Layouts, "Tagged", "n", buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nkey) != 8 || nkey[0] != 7 {
		t.Errorf("prim key = %x", nkey)
	}
	if _, err := KeyOf(c.Layouts, "Tagged", "missing", buf, 0); err == nil {
		t.Errorf("missing field accepted")
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

func TestGroupByKeyGroupsAllRecords(t *testing.T) {
	prog := pairProgram(t)
	c := Compile(prog)
	var buf []byte
	var err error
	for i := 0; i < 30; i++ {
		buf, err = c.Codec.Encode("Pair", serde.Obj{"key": int64(i % 5), "value": 1.0}, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	keys, groups, err := GroupByKey(c.Layouts, "Pair", "key", buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Fatalf("groups = %d, want 5", len(keys))
	}
	for i, g := range groups {
		if len(g) != 6 {
			t.Errorf("group %d has %d records", i, len(g))
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
// with tracing off: an empty task allocates at most 6 objects per
// RunTask. That pins that the serial path starts no goroutine, channel
// or timer, keeps its per-task state off the heap and takes its attempt
// memory from the free lists — each of those would allocate.
func TestSerialTaskAllocs(t *testing.T) {
	const maxAllocs = 6
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
