package compile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arena"
	"repro/internal/compile"
	"repro/internal/dsa"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/transform"
)

// ---- harness: the same source/sink protocol the engine uses ----

type wireSource struct {
	buf   []byte
	off   int
	class string
}

func (s *wireSource) NextWire() ([]byte, int, bool) {
	if s.off >= len(s.buf) {
		return nil, 0, false
	}
	off := s.off
	s.off += serde.RecordSize(s.buf, s.off)
	return s.buf, off, true
}
func (s *wireSource) Class() string { return s.class }

type collectSink struct{ out []byte }

func (s *collectSink) WriteWire(rec []byte, class string) error {
	s.out = append(s.out, rec...)
	return nil
}

type regionSource struct {
	a      *arena.Arena
	region *arena.Region
	buf    []byte // region bytes, snapshotted lazily (input regions never grow)
	base   int64
	off    int
	class  string
}

// NextAddr reads the size prefix straight off a snapshot of the region
// bytes so the microbenchmarks measure backend dispatch cost, not source
// overhead (both backends drain the same source).
func (s *regionSource) NextAddr() (int64, bool) {
	if s.buf == nil {
		s.buf = s.region.Bytes()
		s.base = s.region.Base()
	}
	if s.off+serde.SizePrefixBytes > len(s.buf) {
		return 0, false
	}
	size := int(binary.LittleEndian.Uint32(s.buf[s.off:]))
	addr := s.base + int64(s.off+serde.SizePrefixBytes)
	s.off += serde.SizePrefixBytes + size
	return addr, true
}
func (s *regionSource) Class() string { return s.class }

type nativeCollectSink struct {
	a   *arena.Arena
	out []byte
}

func (s *nativeCollectSink) WriteRecord(addr int64, size int, class string) error {
	s.out = append(s.out, s.a.Slice(addr-serde.SizePrefixBytes, serde.SizePrefixBytes+size)...)
	return nil
}

// ---- program construction ----

func lrProgram(t testing.TB) (*ir.Program, *dsa.Result, *serde.Codec) {
	t.Helper()
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "DenseVector", Fields: []model.FieldDef{
		{Name: "size", Type: model.Prim(model.KindInt)},
		{Name: "values", Type: model.ArrayOf(model.Prim(model.KindDouble))},
	}})
	reg.Define(model.ClassDef{Name: "LabeledPoint", Fields: []model.FieldDef{
		{Name: "label", Type: model.Prim(model.KindDouble)},
		{Name: "features", Type: model.Object("DenseVector")},
	}})
	reg.Define(model.ClassDef{Name: "Pair", Fields: []model.FieldDef{
		{Name: "key", Type: model.Prim(model.KindLong)},
		{Name: "value", Type: model.Prim(model.KindDouble)},
	}})
	layouts := dsa.Analyze(reg, []string{"LabeledPoint", "Pair"})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"LabeledPoint", "Pair"}
	return prog, layouts, serde.NewCodec(reg, layouts)
}

// buildSumDriver: for each LabeledPoint emit Pair{round(label), sum+label}.
// Exercises record fetch, field reads, element loop, record construction.
func buildSumDriver(prog *ir.Program) *ir.Func {
	b := ir.NewFuncBuilder(prog, "driver", model.Type{})
	zero := b.IConst(0)
	rec := b.Local("rec", model.Object("LabeledPoint"))
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		label := b.Load(rec, "label")
		vec := b.Load(rec, "features")
		vals := b.Load(vec, "values")
		sum := b.Local("sum", model.Prim(model.KindDouble))
		b.Emit(&ir.ConstFloat{Dst: sum, Val: 0})
		n := b.Len(vals)
		b.For(n, func(i *ir.Var) {
			x := b.Elem(vals, i)
			b.BinTo(sum, ir.OpAdd, sum, x)
		})
		total := b.Bin(ir.OpAdd, sum, label)
		out := b.New("Pair")
		k := b.Un(ir.OpD2I, label)
		b.Store(out, "key", k)
		b.Store(out, "value", total)
		b.WriteRecord("out", out)
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.Ret(nil)
	return b.Done()
}

// buildScanDriver: a projection-aggregation scan — per record it reads
// the label and the feature count (a mean-style aggregate), so the cost
// is a handful of statements of pure dispatch with no inner loop.
// Returns bits of (label sum + element count).
func buildScanDriver(prog *ir.Program) *ir.Func {
	b := ir.NewFuncBuilder(prog, "driver", model.Type{})
	zero := b.IConst(0)
	acc := b.Local("acc", model.Prim(model.KindDouble))
	b.Emit(&ir.ConstFloat{Dst: acc, Val: 0})
	cnt := b.Local("cnt", model.Prim(model.KindLong))
	b.Emit(&ir.ConstInt{Dst: cnt, Val: 0})
	rec := b.Local("rec", model.Object("LabeledPoint"))
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		label := b.Load(rec, "label")
		b.BinTo(acc, ir.OpAdd, acc, label)
		vec := b.Load(rec, "features")
		vals := b.Load(vec, "values")
		n := b.Len(vals)
		b.BinTo(cnt, ir.OpAdd, cnt, n)
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	cntD := b.Temp(model.Prim(model.KindDouble))
	b.Emit(&ir.UnOp{Dst: cntD, Op: ir.OpI2D, X: cnt})
	b.BinTo(acc, ir.OpAdd, acc, cntD)
	b.Ret(acc)
	return b.Done()
}

// buildFoldDriver: folds every element of every record into one
// accumulator — arithmetic plus per-element bounds guards.
func buildFoldDriver(prog *ir.Program) *ir.Func {
	b := ir.NewFuncBuilder(prog, "driver", model.Type{})
	zero := b.IConst(0)
	acc := b.Local("acc", model.Prim(model.KindDouble))
	b.Emit(&ir.ConstFloat{Dst: acc, Val: 0})
	rec := b.Local("rec", model.Object("LabeledPoint"))
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		vec := b.Load(rec, "features")
		vals := b.Load(vec, "values")
		n := b.Len(vals)
		b.For(n, func(i *ir.Var) {
			x := b.Elem(vals, i)
			b.BinTo(acc, ir.OpAdd, acc, x)
		})
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.Ret(acc)
	return b.Done()
}

func encodeLPs(t testing.TB, c *serde.Codec, pts [][]float64) []byte {
	t.Helper()
	var buf []byte
	var err error
	for i, vals := range pts {
		buf, err = c.Encode("LabeledPoint", serde.Obj{
			"label": float64(i + 1),
			"features": serde.Obj{
				"size":   int64(len(vals)),
				"values": vals,
			},
		}, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func gerenukTransform(t testing.TB, prog *ir.Program, layouts *dsa.Result, entry string) *ir.Func {
	t.Helper()
	ser, err := analysis.AnalyzeSER(prog, layouts, entry)
	if err != nil {
		t.Fatal(err)
	}
	if !ser.Transformable {
		t.Fatalf("SER not transformable: %s", ser.Reason)
	}
	out, err := transform.Transform(prog, layouts, ser)
	if err != nil {
		t.Fatal(err)
	}
	return out.Native
}

// nativeEnv builds a fresh native-mode Env over the adopted input.
func nativeEnv(prog *ir.Program, layouts *dsa.Result, a *arena.Arena, in *arena.Region, class string) (*interp.Env, *nativeCollectSink) {
	sink := &nativeCollectSink{a: a}
	return &interp.Env{
		Mode: interp.ModeNative, Prog: prog, Arena: a, Layouts: layouts,
		Out:           a.NewRegion("output"),
		NativeSources: map[string]interp.NativeSource{"in": &regionSource{a: a, region: in, class: class}},
		NativeSink:    sink,
	}, sink
}

func runHeap(t *testing.T, prog *ir.Program, layouts *dsa.Result, c *serde.Codec, fn *ir.Func, input []byte, class string) ([]byte, int64) {
	t.Helper()
	h := heap.New(prog.Reg, heap.Config{YoungSize: 256 << 10, OldSize: 8 << 20})
	sink := &collectSink{}
	env := &interp.Env{
		Mode: interp.ModeHeap, Prog: prog, Heap: h, Codec: c, Layouts: layouts,
		Sources: map[string]interp.Source{"in": &wireSource{buf: input, class: class}},
		Sink:    sink,
	}
	v, err := interp.New(env).Run(fn)
	if err != nil {
		t.Fatalf("heap run: %v", err)
	}
	return sink.out, v
}

// ---- differential tests ----

// TestCompiledMatchesInterpAndHeap is the core soundness check: the
// compiled chain, the interpreter over the same transformed IR, and the
// untransformed heap run all produce byte-identical output.
func TestCompiledMatchesInterpAndHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*ir.Program) *ir.Func
		pts   [][]float64
	}{
		{"sum-emit", buildSumDriver, [][]float64{{1, 2, 3}, {0.5, -0.25}, {}, {10}}},
		{"scan", buildScanDriver, [][]float64{{1}, {2, 4}, {}}},
		{"fold", buildFoldDriver, [][]float64{{1, 2, 3, 4}, {-1, 0.5}, {7}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, layouts, c := lrProgram(t)
			driver := tc.build(prog)
			input := encodeLPs(t, c, tc.pts)

			heapOut, heapV := runHeap(t, prog, layouts, c, driver, input, "LabeledPoint")

			native := gerenukTransform(t, prog, layouts, "driver")
			a := arena.New()
			in := a.AdoptBytes("input", input)

			ienv, isink := nativeEnv(prog, layouts, a, in, "LabeledPoint")
			iv, err := interp.New(ienv).Run(native)
			if err != nil {
				t.Fatalf("interp run: %v", err)
			}

			cprog, err := compile.Compile(prog, native)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cenv, csink := nativeEnv(prog, layouts, a, in, "LabeledPoint")
			cv, err := cprog.Bind(cenv).Run()
			if err != nil {
				t.Fatalf("compiled run: %v", err)
			}

			if !bytes.Equal(heapOut, isink.out) || !bytes.Equal(isink.out, csink.out) {
				t.Fatalf("outputs differ:\n heap     %x\n interp   %x\n compiled %x",
					heapOut, isink.out, csink.out)
			}
			if heapV != iv || iv != cv {
				t.Fatalf("return values differ: heap %#x interp %#x compiled %#x", heapV, iv, cv)
			}
		})
	}
}

// TestCompileDeclinesHeapDriver: the untransformed driver (Deserialize,
// New, FieldLoad, ...) must be rejected as a whole, never half-compiled.
func TestCompileDeclinesHeapDriver(t *testing.T) {
	prog, _, _ := lrProgram(t)
	driver := buildSumDriver(prog)
	if _, err := compile.Compile(prog, driver); err == nil {
		t.Fatal("expected heap-path driver to decline compilation")
	} else if !strings.Contains(err.Error(), "heap path") {
		t.Fatalf("unexpected decline reason: %v", err)
	}
}

// TestGuardAbortParity: a forced abort fires identically in both
// backends — same error class (interp.ErrAbort), same message, and the
// records already emitted match byte for byte.
func TestGuardAbortParity(t *testing.T) {
	prog, layouts, c := lrProgram(t)
	buildSumDriver(prog)
	input := encodeLPs(t, c, [][]float64{{1}, {2}, {3}, {4}})
	native := gerenukTransform(t, prog, layouts, "driver")
	cprog, err := compile.Compile(prog, native)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := arena.New()
	in := a.AdoptBytes("input", input)

	ienv, isink := nativeEnv(prog, layouts, a, in, "LabeledPoint")
	ienv.AbortAfterRecords = 2
	_, ierr := interp.New(ienv).Run(native)

	cenv, csink := nativeEnv(prog, layouts, a, in, "LabeledPoint")
	cenv.AbortAfterRecords = 2
	_, cerr := cprog.Bind(cenv).Run()

	for _, err := range []error{ierr, cerr} {
		if !errors.Is(err, interp.ErrAbort) {
			t.Fatalf("expected abort, got %v", err)
		}
	}
	if ierr.Error() != cerr.Error() {
		t.Fatalf("abort messages differ: interp %q compiled %q", ierr, cerr)
	}
	if !bytes.Equal(isink.out, csink.out) {
		t.Fatalf("partial outputs differ:\n interp   %x\n compiled %x", isink.out, csink.out)
	}
}

// TestExplicitGuardAborts: a lowered ir.Abort (the shape every
// speculation guard takes after transformation) returns the existing
// AbortError from compiled code, so the engine deoptimizes through the
// unchanged abort path.
func TestExplicitGuardAborts(t *testing.T) {
	prog, layouts, _ := lrProgram(t)
	b := ir.NewFuncBuilder(prog, "guarded", model.Type{})
	b.Emit(&ir.Abort{Reason: "mutates input record"})
	b.Ret(nil)
	fn := b.Done()

	cprog, err := compile.Compile(prog, fn)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := arena.New()
	in := a.AdoptBytes("input", nil)
	env, _ := nativeEnv(prog, layouts, a, in, "LabeledPoint")
	_, cerr := cprog.Bind(env).Run()
	if !errors.Is(cerr, interp.ErrAbort) {
		t.Fatalf("expected ErrAbort, got %v", cerr)
	}
	var ae *interp.AbortError
	if !errors.As(cerr, &ae) || ae.Reason != "mutates input record" {
		t.Fatalf("abort reason lost: %v", cerr)
	}

	ienv, _ := nativeEnv(prog, layouts, a, in, "LabeledPoint")
	_, ierr := interp.New(ienv).Run(fn)
	if ierr == nil || ierr.Error() != cerr.Error() {
		t.Fatalf("backends disagree: interp %v compiled %v", ierr, cerr)
	}
}

// TestUnknownNativeMethodAborts: a non-whitelisted native method over
// inlined bytes aborts at run time (not compile time) with the
// interpreter's exact error, so speculative call sites that never
// execute don't decline the driver.
func TestUnknownNativeMethodAborts(t *testing.T) {
	prog, layouts, _ := lrProgram(t)
	b := ir.NewFuncBuilder(prog, "oddcall", model.Type{})
	recv := b.IConst(0)
	b.Emit(&ir.NativeCall{Name: "toUpperCase", Recv: recv, RecvClass: model.StringClassName})
	b.Ret(nil)
	fn := b.Done()

	cprog, err := compile.Compile(prog, fn)
	if err != nil {
		t.Fatalf("compile must defer unknown-method failure to run time: %v", err)
	}
	a := arena.New()
	in := a.AdoptBytes("input", nil)
	cenv, _ := nativeEnv(prog, layouts, a, in, "LabeledPoint")
	_, cerr := cprog.Bind(cenv).Run()
	ienv, _ := nativeEnv(prog, layouts, a, in, "LabeledPoint")
	_, ierr := interp.New(ienv).Run(fn)
	if cerr == nil || ierr == nil || cerr.Error() != ierr.Error() {
		t.Fatalf("backends disagree: interp %v compiled %v", ierr, cerr)
	}
	if !errors.Is(cerr, interp.ErrAbort) {
		t.Fatalf("expected ErrAbort, got %v", cerr)
	}
}

// TestCancelParity: a pre-cancelled run stops with ErrCanceled — which
// must NOT read as an abort — in both backends, proving hedge losers
// cancel cooperatively under the compiled backend too.
func TestCancelParity(t *testing.T) {
	prog, layouts, c := lrProgram(t)
	buildFoldDriver(prog)
	input := encodeLPs(t, c, make([][]float64, 64))
	native := gerenukTransform(t, prog, layouts, "driver")
	cprog, err := compile.Compile(prog, native)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := arena.New()
	in := a.AdoptBytes("input", input)

	var flag atomic.Bool
	flag.Store(true)
	for name, run := range map[string]func(*interp.Env) error{
		"interp":   func(env *interp.Env) error { _, err := interp.New(env).Run(native); return err },
		"compiled": func(env *interp.Env) error { _, err := cprog.Bind(env).Run(); return err },
	} {
		env, _ := nativeEnv(prog, layouts, a, in, "LabeledPoint")
		env.Cancel = &flag
		err := run(env)
		if !errors.Is(err, interp.ErrCanceled) {
			t.Fatalf("%s: expected ErrCanceled, got %v", name, err)
		}
		if errors.Is(err, interp.ErrAbort) {
			t.Fatalf("%s: cancellation must not read as an abort", name)
		}
	}
}

// TestStepBudgetParity pins the cancellation-granularity contract: the
// minimal MaxSteps that lets the interpreter finish is exactly the
// minimal budget for the compiled chain, so hedging's cooperative
// cancellation polls at identical step offsets in both backends.
func TestStepBudgetParity(t *testing.T) {
	prog, layouts, c := lrProgram(t)
	buildSumDriver(prog)
	input := encodeLPs(t, c, [][]float64{{1, 2, 3}, {4, 5}, {6}})
	native := gerenukTransform(t, prog, layouts, "driver")
	cprog, err := compile.Compile(prog, native)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a := arena.New()
	in := a.AdoptBytes("input", input)

	succeeds := func(run func(*interp.Env) error, budget int64) bool {
		env, _ := nativeEnv(prog, layouts, a, in, "LabeledPoint")
		env.MaxSteps = budget
		err := run(env)
		if err != nil && !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("unexpected error at budget %d: %v", budget, err)
		}
		return err == nil
	}
	iRun := func(env *interp.Env) error { _, err := interp.New(env).Run(native); return err }
	cRun := func(env *interp.Env) error { _, err := cprog.Bind(env).Run(); return err }

	// Binary-search the interpreter's minimal budget.
	lo, hi := int64(1), int64(1<<20)
	if !succeeds(iRun, hi) {
		t.Fatalf("interp cannot finish in %d steps", hi)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if succeeds(iRun, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	min := lo
	if !succeeds(cRun, min) {
		t.Fatalf("compiled needs more than the interpreter's %d steps", min)
	}
	if succeeds(cRun, min-1) {
		t.Fatalf("compiled finished under the interpreter's minimal budget %d", min)
	}
}

// ---- microbenchmarks: per-record dispatch cost, interp vs compiled ----

func benchKernel(b *testing.B, build func(*ir.Program) *ir.Func, pts [][]float64, compiled bool) {
	prog, layouts, c := lrProgram(b)
	build(prog)
	input := encodeLPs(b, c, pts)
	native := gerenukTransform(b, prog, layouts, "driver")
	var cprog *compile.Prog
	if compiled {
		p, err := compile.Compile(prog, native)
		if err != nil {
			b.Fatal(err)
		}
		cprog = p
	}
	a := arena.New()
	in := a.AdoptBytes("input", input)
	out := a.NewRegion("output")
	var records int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := &interp.Env{
			Mode: interp.ModeNative, Prog: prog, Arena: a, Layouts: layouts, Out: out,
			NativeSources: map[string]interp.NativeSource{
				"in": &regionSource{a: a, region: in, class: "LabeledPoint"},
			},
		}
		var err error
		if compiled {
			_, err = cprog.Bind(env).Run()
		} else {
			_, err = interp.New(env).Run(native)
		}
		if err != nil {
			b.Fatal(err)
		}
		records += int64(len(pts))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// genPts builds n records with k-element feature vectors.
func genPts(n, k int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		v := make([]float64, k)
		for j := range v {
			v[j] = float64(i*k+j) * 0.5
		}
		pts[i] = v
	}
	return pts
}

// Scan: per-record work is a two-field projection — pure dispatch cost,
// no inner loop.
func BenchmarkScanKernelInterp(b *testing.B) { benchKernel(b, buildScanDriver, genPts(4096, 2), false) }
func BenchmarkScanKernelCompiled(b *testing.B) {
	benchKernel(b, buildScanDriver, genPts(4096, 2), true)
}

// Fold: element-wise accumulation over 64-wide vectors.
func BenchmarkFoldKernelInterp(b *testing.B)   { benchKernel(b, buildFoldDriver, genPts(64, 64), false) }
func BenchmarkFoldKernelCompiled(b *testing.B) { benchKernel(b, buildFoldDriver, genPts(64, 64), true) }

// Guard-heavy: tiny vectors make per-element bounds guards and loop
// bookkeeping dominate the arithmetic.
func BenchmarkGuardKernelInterp(b *testing.B) {
	benchKernel(b, buildFoldDriver, genPts(2048, 2), false)
}
func BenchmarkGuardKernelCompiled(b *testing.B) {
	benchKernel(b, buildFoldDriver, genPts(2048, 2), true)
}

// buildPairFold builds the reduce driver's shape over Pair records: acc
// = combine(acc, rec) for every record after the first, combine
// building a fresh Pair, then acc is written out.
func buildPairFold(prog *ir.Program) {
	cb := ir.NewFuncBuilder(prog, "combine", model.Object("Pair"))
	a := cb.Param("a", model.Object("Pair"))
	bb := cb.Param("b", model.Object("Pair"))
	key := cb.Load(a, "key")
	sum := cb.Bin(ir.OpAdd, cb.Load(a, "value"), cb.Load(bb, "value"))
	acc := cb.New("Pair")
	cb.Store(acc, "key", key)
	cb.Store(acc, "value", sum)
	cb.Ret(acc)
	cb.Done()

	b := ir.NewFuncBuilder(prog, "driver", model.Type{})
	zero := b.IConst(0)
	fold := b.Local("acc", model.Object("Pair"))
	rec := b.Local("rec", model.Object("Pair"))
	b.Emit(&ir.Deserialize{Dst: fold, Source: "in"})
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		b.Assign(fold, b.Call("combine", model.Object("Pair"), fold, rec))
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.WriteRecord("out", fold)
	b.Ret(nil)
	b.Done()
}

// A compiled fold allocates nothing per record: folding 2n records
// allocates exactly what folding n does. Each combine call cuts its
// frame from the Machine's stack, with its arguments written straight
// into it, and each record it builds reuses the Env's record builder.
func TestCompiledFoldAllocsPerRecord(t *testing.T) {
	prog, layouts, c := lrProgram(t)
	buildPairFold(prog)
	cprog, err := compile.Compile(prog, gerenukTransform(t, prog, layouts, "driver"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		var input []byte
		for i := 0; i < n; i++ {
			if input, err = c.Encode("Pair", serde.Obj{"key": int64(1), "value": float64(i)}, input); err != nil {
				t.Fatal(err)
			}
		}
		a := arena.New()
		sink := &nativeCollectSink{a: a}
		return testing.AllocsPerRun(20, func() {
			// The arena hands each run's regions the last run's storage.
			a.Reset()
			sink.out = sink.out[:0]
			env, _ := nativeEnv(prog, layouts, a, a.AdoptBytes("input", input), "Pair")
			env.NativeSink = sink
			if _, err := cprog.Bind(env).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n, twice := allocs(512), allocs(1024); twice != n {
		t.Errorf("compiled fold: %.0f allocs over 512 records, %.0f over 1024", n, twice)
	}
}
