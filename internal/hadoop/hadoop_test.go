package hadoop

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/job"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/spark"
)

// wordCountProgram: Doc{text} -> WordCount{word string, n long} with a
// word-splitting map UDF written entirely in IR (charAt/length loops).
func wordCountProgram(t *testing.T) *ir.Program {
	t.Helper()
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "Doc", Fields: []model.FieldDef{
		{Name: "text", Type: model.Object(model.StringClassName)},
	}})
	reg.Define(model.ClassDef{Name: "WordCount", Fields: []model.FieldDef{
		{Name: "word", Type: model.Object(model.StringClassName)},
		{Name: "n", Type: model.Prim(model.KindLong)},
	}})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Doc", "WordCount"}

	long := model.Prim(model.KindLong)
	// splitUDF(doc): scan text, for each space-delimited word build a
	// char array + string + WordCount{word, 1} and emit it.
	b := ir.NewFuncBuilder(prog, "splitUDF", model.Type{})
	doc := b.Param("doc", model.Object("Doc"))
	text := b.Load(doc, "text")
	n := b.Native("length", long, text)
	space := b.IConst(int64(' '))
	one := b.IConst(1)
	zero := b.IConst(0)
	start := b.Local("start", long)
	b.Assign(start, zero)
	i := b.Local("i", long)
	b.Assign(i, zero)
	flush := func(end *ir.Var) {
		// if end > start: emit word text[start:end]
		wlen := b.Bin(ir.OpSub, end, start)
		b.If(ir.CmpGT, wlen, zero, func() {
			out := b.New("WordCount")
			word := b.New(model.StringClassName)
			chars := b.NewArr(model.Prim(model.KindChar), wlen)
			b.For(wlen, func(k *ir.Var) {
				pos := b.Bin(ir.OpAdd, start, k)
				ch := b.Native("charAt", long, text, pos)
				b.SetElem(chars, k, ch)
			})
			b.Store(word, "chars", chars)
			b.Store(out, "word", word)
			b.Store(out, "n", one)
			b.EmitRecord(out)
		}, nil)
	}
	b.While(ir.CmpLT, i, n, func() {
		ch := b.Native("charAt", long, text, i)
		b.If(ir.CmpEQ, ch, space, func() {
			flush(i)
			next := b.Bin(ir.OpAdd, i, one)
			b.Assign(start, next)
		}, nil)
		b.BinTo(i, ir.OpAdd, i, one)
	})
	flush(n)
	b.Ret(nil)
	b.Done()

	// countCombine(a, b) = WordCount{a.word, a.n + b.n}. The word string
	// is cloned into the fresh record via charAt/length (construction).
	cb := ir.NewFuncBuilder(prog, "countCombine", model.Object("WordCount"))
	a := cb.Param("a", model.Object("WordCount"))
	bb := cb.Param("b", model.Object("WordCount"))
	wa := cb.Load(a, "word")
	na := cb.Load(a, "n")
	nb := cb.Load(bb, "n")
	sum := cb.Bin(ir.OpAdd, na, nb)
	out := cb.New("WordCount")
	word := cb.New(model.StringClassName)
	wl := cb.Native("length", long, wa)
	chars := cb.NewArr(model.Prim(model.KindChar), wl)
	cb.For(wl, func(k *ir.Var) {
		ch := cb.Native("charAt", long, wa, k)
		cb.SetElem(chars, k, ch)
	})
	cb.Store(word, "chars", chars)
	cb.Store(out, "word", word)
	cb.Store(out, "n", sum)
	cb.Ret(out)
	cb.Done()

	spark.BuildMapDriver(prog, "wcMap", "splitUDF", "Doc")
	spark.BuildReduceDriver(prog, "wcReduce", "countCombine", "WordCount")
	return prog
}

func encodeDocs(t *testing.T, c *serde.Codec, docs []string) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, d := range docs {
		buf, err = c.Encode("Doc", serde.Obj{"text": d}, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func decodeCounts(t *testing.T, c *serde.Codec, buf []byte) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for off := 0; off < len(buf); {
		v, next, err := c.Decode("WordCount", buf, off)
		if err != nil {
			t.Fatal(err)
		}
		o := v.(serde.Obj)
		out[o["word"].(string)] += o["n"].(int64)
		off = next
	}
	return out
}

func runWordCount(t *testing.T, mode engine.Mode, combine bool, epochs bool) (map[string]int64, *Result) {
	t.Helper()
	prog := wordCountProgram(t)
	comp := engine.Compile(prog)
	conf := JobConf{
		Name: "wc", MapDriver: "wcMap", ReduceDriver: "wcReduce",
		InClass: "Doc", MapOutClass: "WordCount", OutClass: "WordCount",
		KeyField: "word", Reducers: 2,
		EpochPerTask: epochs,
	}
	conf.Workers, conf.Mode = 2, mode
	if combine {
		conf.CombineDriver = "wcReduce"
	}
	splits := [][]byte{
		encodeDocs(t, comp.Codec, []string{"the cat sat", "on the mat"}),
		encodeDocs(t, comp.Codec, []string{"the dog sat on the log", "cat and dog"}),
	}
	res, err := Run(comp, conf, splits)
	if err != nil {
		t.Fatal(err)
	}
	return decodeCounts(t, comp.Codec, res.Out), res
}

var wantCounts = map[string]int64{
	"the": 4, "cat": 2, "sat": 2, "on": 2, "mat": 1,
	"dog": 2, "log": 1, "and": 1,
}

func TestWordCountBaseline(t *testing.T) {
	got, res := runWordCount(t, engine.Baseline, false, false)
	if !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("counts = %v", got)
	}
	if res.Stats.Deser == 0 {
		t.Errorf("baseline paid no deserialization")
	}
}

func TestWordCountGerenuk(t *testing.T) {
	got, res := runWordCount(t, engine.Gerenuk, false, false)
	if !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("counts = %v", got)
	}
	if res.Stats.Aborts != 0 {
		t.Errorf("unexpected aborts: %d", res.Stats.Aborts)
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		got, _ := runWordCount(t, mode, true, false)
		if !reflect.DeepEqual(got, wantCounts) {
			t.Fatalf("%v with combiner: counts = %v", mode, got)
		}
	}
}

func TestWordCountYakEpochs(t *testing.T) {
	got, res := runWordCount(t, engine.Baseline, false, true)
	if !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("yak: counts = %v", got)
	}
	_ = res
}

// A job whose shuffle fetch exhausts its retries fails without leaving
// spill runs in SpillDir or blocks in the store. (A corrupt record
// cannot reach this exchange — its input is map-task output — so the
// write-side failure is covered on the shared path in internal/job and
// through spark.)
func TestFailedShuffleLeaksNothing(t *testing.T) {
	comp := engine.Compile(wordCountProgram(t))
	conf := JobConf{
		Name: "wc", MapDriver: "wcMap", ReduceDriver: "wcReduce",
		InClass: "Doc", MapOutClass: "WordCount", OutClass: "WordCount",
		KeyField: "word", Reducers: 2,
	}.withDefaults()
	dir := t.TempDir()
	conf.Mode = engine.Gerenuk
	conf.Shuffle.MemoryBudget, conf.Shuffle.SpillDir = 1, dir // every record spills
	conf.Injector = &faults.Injector{Seed: 1, FetchFailRate: 1, FetchFails: 99}
	rt := &job.Runtime{Env: conf.Env, C: comp}
	splits := [][]byte{
		encodeDocs(t, comp.Codec, []string{"the cat sat", "on the mat"}),
		encodeDocs(t, comp.Codec, []string{"the dog sat on the log", "cat and dog"}),
	}
	res, err := run(rt, conf, splits)
	if err == nil {
		t.Fatal("job succeeded with every fetch failing")
	}
	if res.Stats.Attempts == 0 {
		t.Error("failed job returned no partial accounting")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d spill files left in SpillDir", len(left))
	}
	if n := rt.LiveBlocks(); n != 0 {
		t.Errorf("%d blocks left in the store", n)
	}
}
