package spark

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// buildPairProgram defines Pair{key long, value double} with a doubling
// map UDF and a summing combine UDF, plus the stage drivers.
func buildPairProgram(t *testing.T) *ir.Program {
	t.Helper()
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "Pair", Fields: []model.FieldDef{
		{Name: "key", Type: model.Prim(model.KindLong)},
		{Name: "value", Type: model.Prim(model.KindDouble)},
	}})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Pair"}

	// doubleUDF: emit Pair{key, 2*value}.
	b := ir.NewFuncBuilder(prog, "doubleUDF", model.Type{})
	rec := b.Param("rec", model.Object("Pair"))
	k := b.Load(rec, "key")
	v := b.Load(rec, "value")
	two := b.FConst(2)
	v2 := b.Bin(ir.OpMul, v, two)
	out := b.New("Pair")
	b.Store(out, "key", k)
	b.Store(out, "value", v2)
	b.EmitRecord(out)
	b.Ret(nil)
	b.Done()

	// sumCombine: Pair{a.key, a.value+b.value}.
	cb := ir.NewFuncBuilder(prog, "sumCombine", model.Object("Pair"))
	a := cb.Param("a", model.Object("Pair"))
	bb := cb.Param("b", model.Object("Pair"))
	ka := cb.Load(a, "key")
	va := cb.Load(a, "value")
	vb := cb.Load(bb, "value")
	sum := cb.Bin(ir.OpAdd, va, vb)
	acc := cb.New("Pair")
	cb.Store(acc, "key", ka)
	cb.Store(acc, "value", sum)
	cb.Ret(acc)
	cb.Done()

	BuildMapDriver(prog, "doubleStage", "doubleUDF", "Pair")
	BuildReduceDriver(prog, "sumStage", "sumCombine", "Pair")
	return prog
}

func encodePairs(t *testing.T, c *serde.Codec, pairs [][2]float64, nparts int) [][]byte {
	t.Helper()
	parts := make([][]byte, nparts)
	for i, kv := range pairs {
		var err error
		p := i % nparts
		parts[p], err = c.Encode("Pair", serde.Obj{
			"key": int64(kv[0]), "value": kv[1],
		}, parts[p])
		if err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

func decodeSums(t *testing.T, c *serde.Codec, buf []byte) map[int64]float64 {
	t.Helper()
	out := map[int64]float64{}
	for off := 0; off < len(buf); {
		v, next, err := c.Decode("Pair", buf, off)
		if err != nil {
			t.Fatal(err)
		}
		o := v.(serde.Obj)
		out[o["key"].(int64)] += o["value"].(float64)
		off = next
	}
	return out
}

func runJob(t *testing.T, mode engine.Mode) (map[int64]float64, *Context) {
	t.Helper()
	prog := buildPairProgram(t)
	comp := engine.Compile(prog)
	ctx := NewContext(comp, mode)
	ctx.Workers = 2
	ctx.Partitions = 3

	var pairs [][2]float64
	for i := 0; i < 60; i++ {
		pairs = append(pairs, [2]float64{float64(i % 5), float64(i)})
	}
	rdd := ctx.Parallelize("Pair", encodePairs(t, comp.Codec, pairs, 3))
	doubled, err := rdd.MapPartitions("doubleStage", "Pair")
	if err != nil {
		t.Fatal(err)
	}
	summed, err := doubled.ReduceByKey("sumStage", "key")
	if err != nil {
		t.Fatal(err)
	}
	return decodeSums(t, comp.Codec, summed.CollectBytes()), ctx
}

func TestSparkJobBothModes(t *testing.T) {
	base, bctx := runJob(t, engine.Baseline)
	ger, gctx := runJob(t, engine.Gerenuk)
	if !reflect.DeepEqual(base, ger) {
		t.Fatalf("results differ:\nbaseline %v\ngerenuk  %v", base, ger)
	}
	// Expected: sum over i of 2*i grouped by i%5.
	want := map[int64]float64{}
	for i := 0; i < 60; i++ {
		want[int64(i%5)] += 2 * float64(i)
	}
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("wrong sums: got %v want %v", base, want)
	}
	if bctx.Stats.Aborts != 0 || gctx.Stats.Aborts != 0 {
		t.Errorf("unexpected aborts: %d %d", bctx.Stats.Aborts, gctx.Stats.Aborts)
	}
	// The baseline must have deserialized and allocated; Gerenuk must
	// have allocated far fewer heap objects.
	if bctx.Stats.Deser == 0 {
		t.Errorf("baseline paid no deserialization")
	}
	if gctx.Stats.AllocObjects >= bctx.Stats.AllocObjects {
		t.Errorf("gerenuk allocated %d objects vs baseline %d",
			gctx.Stats.AllocObjects, bctx.Stats.AllocObjects)
	}
	if bctx.Stages != 2 || bctx.Tasks == 0 {
		t.Errorf("stage accounting: %d stages %d tasks", bctx.Stages, bctx.Tasks)
	}
}

func TestJoinPairs(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		prog := buildPairProgram(t)
		// joinUDF(l, r): emit Pair{l.key, l.value*r.value}.
		b := ir.NewFuncBuilder(prog, "joinUDF", model.Type{})
		l := b.Param("l", model.Object("Pair"))
		r := b.Param("r", model.Object("Pair"))
		k := b.Load(l, "key")
		vl := b.Load(l, "value")
		vr := b.Load(r, "value")
		prod := b.Bin(ir.OpMul, vl, vr)
		out := b.New("Pair")
		b.Store(out, "key", k)
		b.Store(out, "value", prod)
		b.EmitRecord(out)
		b.Ret(nil)
		b.Done()
		BuildJoinDriver(prog, "joinStage", "joinUDF", "Pair", "Pair")

		comp := engine.Compile(prog)
		ctx := NewContext(comp, mode)
		ctx.Partitions = 2

		left := ctx.Parallelize("Pair", encodePairs(t, comp.Codec,
			[][2]float64{{1, 10}, {2, 20}, {3, 30}}, 2))
		right := ctx.Parallelize("Pair", encodePairs(t, comp.Codec,
			[][2]float64{{2, 2}, {3, 3}, {4, 4}}, 2))
		joined, err := left.JoinPairs(right, "joinStage", "key", "key", "Pair")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := decodeSums(t, comp.Codec, joined.CollectBytes())
		want := map[int64]float64{2: 40, 3: 90}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: join = %v, want %v", mode, got, want)
		}
	}
}

func TestForcedAbortFallsBackToSlowPath(t *testing.T) {
	prog := buildPairProgram(t)
	comp := engine.Compile(prog)
	ctx := NewContext(comp, engine.Gerenuk)
	ctx.AbortAfterRecords = 3 // every task aborts after 3 records

	var pairs [][2]float64
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]float64{float64(i % 4), 1})
	}
	rdd := ctx.Parallelize("Pair", encodePairs(t, comp.Codec, pairs, 2))
	doubled, err := rdd.MapPartitions("doubleStage", "Pair")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.Aborts == 0 {
		t.Fatalf("no aborts despite forced-abort knob")
	}
	// The slow path must still produce correct results.
	got := decodeSums(t, comp.Codec, doubled.CollectBytes())
	want := map[int64]float64{0: 20, 1: 20, 2: 20, 3: 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slow path results wrong: %v", got)
	}
}

// Satellite fix: a shuffle on a missing key field must fail even when
// every partition is empty — exchange creation validates the layout
// before any record flows.
func TestShuffleMissingKeyFieldEmptyPartitions(t *testing.T) {
	prog := buildPairProgram(t)
	comp := engine.Compile(prog)
	ctx := NewContext(comp, engine.Gerenuk)
	ctx.Partitions = 2

	empty := ctx.Parallelize("Pair", [][]byte{nil, nil})
	if _, err := empty.ReduceByKey("sumStage", "noSuchField"); err == nil {
		t.Fatal("missing key field accepted on empty partitions")
	}
	// The same field works when it exists — empty input, empty output.
	out, err := empty.ReduceByKey("sumStage", "key")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CollectBytes(); len(got) != 0 {
		t.Fatalf("empty shuffle produced %d bytes", len(got))
	}
}

// The whole-job differential for the shuffle subsystem: a spilling,
// compressed exchange must produce the same sums as the in-memory one
// in both executor modes, and the accounting must show it actually
// spilled and shipped bytes.
func TestShuffleSpillCompressedJobMatchesInMemory(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ref, _ := runJob(t, mode)
		for _, comp := range []shuffle.Compression{shuffle.None, shuffle.LZ4} {
			prog := buildPairProgram(t)
			c := engine.Compile(prog)
			ctx := NewContext(c, mode)
			ctx.Workers = 2
			ctx.Partitions = 3
			ctx.Shuffle = shuffle.Config{
				MemoryBudget: 64, // forces spills on every map task
				SpillDir:     t.TempDir(),
				Compression:  comp,
			}
			var pairs [][2]float64
			for i := 0; i < 60; i++ {
				pairs = append(pairs, [2]float64{float64(i % 5), float64(i)})
			}
			rdd := ctx.Parallelize("Pair", encodePairs(t, c.Codec, pairs, 3))
			doubled, err := rdd.MapPartitions("doubleStage", "Pair")
			if err != nil {
				t.Fatal(err)
			}
			summed, err := doubled.ReduceByKey("sumStage", "key")
			if err != nil {
				t.Fatal(err)
			}
			got := decodeSums(t, c.Codec, summed.CollectBytes())
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%v/%v: spilled shuffle = %v, in-memory = %v", mode, comp, got, ref)
			}
			if ctx.Stats.Spills == 0 {
				t.Errorf("%v/%v: budgeted shuffle never spilled", mode, comp)
			}
			if ctx.Stats.ShuffleBytesFetched == 0 || ctx.Stats.ShuffleBytesWritten == 0 {
				t.Errorf("%v/%v: shuffle byte accounting empty: %+v", mode, comp, ctx.Stats)
			}
			if ctx.Stats.ShuffleWrite == 0 || ctx.Stats.ShuffleRead == 0 {
				t.Errorf("%v/%v: shuffle time accounting empty", mode, comp)
			}
		}
	}
}

// A shuffle that fails — a corrupt record on the write side, fetch
// retries exhausted on the read side — must abandon its exchange: no
// spill run left in SpillDir, no block left in the store.
func TestShuffleFailureLeaksNothing(t *testing.T) {
	cases := map[string]func(ctx *Context, parts [][]byte){
		"truncated-record": func(ctx *Context, parts [][]byte) {
			last := len(parts) - 1
			parts[last] = parts[last][:len(parts[last])-3]
		},
		"fetch-failures-exhausted": func(ctx *Context, parts [][]byte) {
			ctx.Injector = &faults.Injector{Seed: 1, FetchFailRate: 1, FetchFails: 99}
		},
	}
	for name, arrange := range cases {
		t.Run(name, func(t *testing.T) {
			comp := engine.Compile(buildPairProgram(t))
			ctx := NewContext(comp, engine.Gerenuk)
			ctx.Partitions = 2
			dir := t.TempDir()
			ctx.Shuffle = shuffle.Config{MemoryBudget: 1, SpillDir: dir} // every record spills
			var pairs [][2]float64
			for i := 0; i < 40; i++ {
				pairs = append(pairs, [2]float64{float64(i % 5), float64(i)})
			}
			parts := encodePairs(t, comp.Codec, pairs, 3)
			arrange(ctx, parts)
			if _, err := ctx.Parallelize("Pair", parts).ReduceByKey("sumStage", "key"); err == nil {
				t.Fatal("shuffle succeeded")
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("%d spill files left in SpillDir", len(left))
			}
			if n := ctx.LiveBlocks(); n != 0 {
				t.Errorf("%d blocks left in the store", n)
			}
		})
	}
}
