// Package interp executes IR functions in one of two data modes.
//
// Heap mode is the baseline: data values are references into the
// simulated managed heap (internal/heap); Deserialize statements run the
// full bytes-to-objects codec, Serialize statements walk object graphs
// back to bytes, and every field access pays header-relative addressing,
// bounds checks and write barriers.
//
// Native mode executes Gerenuk-transformed IR: data values are long
// addresses into arena regions; GetAddress iterates input records in
// place, readNative/writeNative access inlined bytes at (possibly
// symbolic) offsets, appendToBuffer builds output records sequentially
// with the deferred-offset protocol of section 3.6, and gWriteObject is a
// plain byte copy. Abort statements (and runtime guard failures) raise
// ErrAbort, which the engine turns into slow-path re-execution.
//
// Because both modes run the same interpreter loop, the measured
// difference between them isolates exactly the representation costs the
// paper attributes to the managed runtime.
package interp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/dsa"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
)

// Mode selects the data backend.
type Mode int

// Execution modes.
const (
	ModeHeap Mode = iota
	ModeNative
)

func (m Mode) String() string {
	if m == ModeNative {
		return "gerenuk"
	}
	return "baseline"
}

// AbortError is raised when a speculative execution hits an inserted
// abort instruction or a runtime speculation guard fails.
type AbortError struct{ Reason string }

func (e *AbortError) Error() string { return "SER abort: " + e.Reason }

// ErrAbort matches any AbortError via errors.Is/As.
var ErrAbort = errors.New("SER abort")

// ErrCanceled is returned when the step loop observes Env.Cancel set: a
// racing attempt elsewhere already produced the task's result and this
// execution's output will be discarded. It is not a failure of the
// computation — the engine's hedging layer filters it out of task
// outcomes — so it deliberately does not match ErrAbort.
var ErrCanceled = errors.New("interp: execution canceled")

// Is lets errors.Is(err, ErrAbort) succeed for AbortError values.
func (e *AbortError) Is(target error) bool { return target == ErrAbort }

// Source supplies input records as wire bytes (heap mode deserializes
// them; the engine hands the same bytes to native mode as regions).
type Source interface {
	// NextWire returns the buffer and offset of the next size-prefixed
	// record, or ok=false at end of input.
	NextWire() (buf []byte, off int, ok bool)
	// Class returns the top-level type of the records.
	Class() string
}

// NativeSource supplies input records as native addresses (payload base,
// just past the size prefix).
type NativeSource interface {
	NextAddr() (addr int64, ok bool)
	Class() string
}

// Sink receives output records.
type Sink interface {
	// WriteWire receives one serialized record (heap mode).
	WriteWire(rec []byte, class string) error
}

// NativeSink receives output records as sealed native records.
type NativeSink interface {
	// WriteRecord receives the payload base address and payload size of
	// a sealed record living in the task output region.
	WriteRecord(addr int64, size int, class string) error
}

// Env is the execution context of one task attempt.
type Env struct {
	Mode    Mode
	Prog    *ir.Program
	Heap    *heap.Heap   // heap mode
	Codec   *serde.Codec // heap mode
	Arena   *arena.Arena // native mode
	Layouts *dsa.Result
	// Out is the output region for native-mode record construction.
	Out *arena.Region
	// Sources maps Deserialize/GetAddress source names to inputs.
	Sources       map[string]Source
	NativeSources map[string]NativeSource
	// Sink / NativeSink receive Serialize/Emit outputs.
	Sink       Sink
	NativeSink NativeSink
	// MaxSteps guards against runaway loops (0 = default 1e10).
	MaxSteps int64

	// Cancel, when set, is polled by the interpreter's step loop (every
	// cancelCheckInterval statements, so the overhead off the hedged
	// path is one nil check per statement). When it reads true the run
	// stops with ErrCanceled: the engine's hedging layer sets it on the
	// losing attempt of a hedged task, whose output nobody will read.
	Cancel *atomic.Bool

	// SerTime and DeserTime accumulate time spent inside serialization
	// and deserialization statements, for the Figure 6 breakdowns.
	// SerBytes and DeserBytes accumulate the wire bytes those
	// statements produced/consumed, for span args and metrics export.
	SerTime    time.Duration
	DeserTime  time.Duration
	SerBytes   int64
	DeserBytes int64

	// ForcedAborts aborts the Nth executed Abort-eligible record loop
	// (used by the Figure 10(b) forced-abort experiment); 0 disables.
	AbortAfterRecords int64

	// RecordHook, when set, runs after each input record is fetched —
	// a native-mode GetAddress or a heap-mode deserialize — with the
	// running record count (1-based). Fault injectors use it to force
	// failures at deterministic record offsets: it may return an error
	// (propagated like any statement error) or panic (contained by the
	// engine's recovery layer).
	RecordHook func(n int64) error

	steps int64
	// nextPause is the step count at which CheckStep next enters its
	// slow path (cancel-poll boundary or step limit); see checkStepSlow.
	nextPause int64
	records   int64
	// builder is the record under construction, nil when none is open.
	// It points at open, whose builder every record of the Env reuses.
	builder *openRecord
	open    openRecord
	// scanCur caches (index, position) cursors for inlined
	// variable-size-element arrays, making the sequential access
	// pattern O(1) amortized per element.
	scanCur map[int64]scanCursor
}

type scanCursor struct {
	idx int64
	pos int64
}

// openRecord tracks the record under construction in native mode.
type openRecord struct {
	b     arena.RecordBuilder
	class string
	// prefixOff is the region offset of the 4-byte size prefix.
	prefixOff int
}

// Rewind readies the Env for another driver run over the same sources
// (their owner rewinds them): the step budget, record count, open
// record, scan cursors and serde counters start over, storage kept.
func (e *Env) Rewind() {
	e.steps, e.nextPause, e.records = 0, 0, 0
	e.builder = nil
	clear(e.scanCur)
	e.SerTime, e.DeserTime, e.SerBytes, e.DeserBytes = 0, 0, 0, 0
}

// Interp executes functions against an Env.
type Interp struct {
	env    *Env
	frames []*frame
	// strCharsOff caches the String.chars field offset (-1 if the
	// program has no String class).
	strCharsOff int
}

type frame struct {
	fn    *ir.Func
	slots []int64
	isRef []bool
}

// DefaultMaxSteps is the runaway-loop budget applied when Env.MaxSteps
// is zero; both execution backends (interpreter and closure-compiled)
// install it so step-limit behavior is identical.
const DefaultMaxSteps = 1e10

// New creates an interpreter over the environment.
func New(env *Env) *Interp {
	if env.MaxSteps == 0 {
		env.MaxSteps = DefaultMaxSteps
	}
	in := &Interp{env: env, strCharsOff: -1}
	if strCls, ok := env.Prog.Reg.Lookup(model.StringClassName); ok {
		in.strCharsOff = strCls.MustField("chars").Offset
	}
	return in
}

// VisitRoots exposes all heap references held in interpreter frames to
// the collector (heap mode).
func (in *Interp) VisitRoots(visit func(*heap.Addr)) {
	for _, f := range in.frames {
		for i, isRef := range f.isRef {
			if isRef {
				visit(&f.slots[i])
			}
		}
	}
}

// Run executes fn with the given argument values (raw bits). It returns
// the value of the trailing Return, if any.
func (in *Interp) Run(fn *ir.Func, args ...int64) (int64, error) {
	if in.env.Heap != nil {
		// Control-path objects live on the heap in both modes (in native
		// mode only data objects move to arena buffers), so frames are
		// GC roots whenever a heap exists.
		defer in.env.Heap.AddRoots(in)()
	}
	return in.call(fn, args)
}

type returnSignal struct{ val int64 }

func (in *Interp) call(fn *ir.Func, args []int64) (int64, error) {
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("interp: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	f := &frame{fn: fn, slots: make([]int64, fn.NumSlots()), isRef: make([]bool, fn.NumSlots())}
	for _, v := range fn.Locals {
		// In native functions, data variables were retyped to long, so
		// any remaining ref-typed local is a control-path heap reference.
		f.isRef[v.Slot] = v.Type.IsRef()
	}
	for i, p := range fn.Params {
		f.slots[p.Slot] = args[i]
	}
	in.frames = append(in.frames, f)
	defer func() { in.frames = in.frames[:len(in.frames)-1] }()

	ret, err := in.block(f, fn.Body)
	if err != nil {
		return 0, err
	}
	if ret != nil {
		return ret.val, nil
	}
	return 0, nil
}

// cancelCheckInterval is how many interpreter steps may run between
// polls of Env.Cancel (must be a power of two). Small enough that a
// hedge loser dies within microseconds, large enough that the atomic
// load stays off the per-statement hot path.
const cancelCheckInterval = 64

// CheckStep enforces the step budget and polls the cancellation flag.
// It is the shared per-statement bookkeeping of both execution backends:
// the interpreter calls it before every statement and once per While
// iteration, and internal/compile emits the identical call sites into
// its closure chains, so cancellation latency (a hedge loser dying) and
// step-limit behavior cannot diverge between backends. The fast path is
// a counter bump and a single compare against nextPause — the nearer of
// the next cancel-poll boundary and the step limit, precomputed by
// checkStepSlow — so both the mask test and the MaxSteps load stay off
// the per-statement path. nextPause's zero value routes the first call
// through the slow path, which arms it.
func (e *Env) CheckStep(fn string) error {
	e.steps++
	if e.steps >= e.nextPause {
		return e.checkStepSlow(fn)
	}
	return nil
}

func (e *Env) checkStepSlow(fn string) error {
	if e.steps > e.MaxSteps {
		return fmt.Errorf("interp: step limit exceeded in %s", fn)
	}
	if e.steps&(cancelCheckInterval-1) == 0 && e.Cancel != nil && e.Cancel.Load() {
		return ErrCanceled
	}
	// Re-arm: pause again at the next poll boundary or one past the step
	// limit, whichever comes first. Detection points are identical to
	// checking both conditions every step.
	next := (e.steps | (cancelCheckInterval - 1)) + 1
	if lim := e.MaxSteps + 1; lim < next {
		next = lim
	}
	e.nextPause = next
	return nil
}

// block executes statements; a non-nil returnSignal propagates a Return.
func (in *Interp) block(f *frame, body []ir.Stmt) (*returnSignal, error) {
	for _, s := range body {
		if err := in.env.CheckStep(f.fn.Name); err != nil {
			return nil, err
		}
		ret, err := in.stmt(f, s)
		if err != nil {
			return nil, err
		}
		if ret != nil {
			return ret, nil
		}
	}
	return nil, nil
}

func (f *frame) get(v *ir.Var) int64    { return f.slots[v.Slot] }
func (f *frame) set(v *ir.Var, x int64) { f.slots[v.Slot] = x }

func (in *Interp) stmt(f *frame, s ir.Stmt) (*returnSignal, error) {
	switch t := s.(type) {
	case *ir.ConstInt:
		f.set(t.Dst, t.Val)
	case *ir.ConstFloat:
		f.set(t.Dst, int64(math.Float64bits(t.Val)))
	case *ir.ConstString:
		a, err := in.heapString(t.Val)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.Assign:
		f.set(t.Dst, f.get(t.Src))
	case *ir.BinOp:
		v, err := in.binop(t, f.get(t.L), f.get(t.R))
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, v)
	case *ir.UnOp:
		f.set(t.Dst, in.unop(t, f.get(t.X)))
	case *ir.If:
		if in.cond(t.Cond, f) {
			return in.block(f, t.Then)
		}
		return in.block(f, t.Else)
	case *ir.While:
		for in.cond(t.Cond, f) {
			if err := in.env.CheckStep(f.fn.Name); err != nil {
				return nil, err
			}
			ret, err := in.block(f, t.Body)
			if err != nil || ret != nil {
				return ret, err
			}
		}
	case *ir.Return:
		if t.Val != nil {
			return &returnSignal{val: f.get(t.Val)}, nil
		}
		return &returnSignal{}, nil
	case *ir.Call:
		callee, ok := in.env.Prog.Funcs[t.Fn]
		if !ok {
			return nil, fmt.Errorf("interp: unknown function %q", t.Fn)
		}
		args := make([]int64, len(t.Args))
		for i, a := range t.Args {
			args[i] = f.get(a)
		}
		v, err := in.call(callee, args)
		if err != nil {
			return nil, err
		}
		if t.Dst != nil {
			f.set(t.Dst, v)
		}
	case *ir.Abort:
		return nil, &AbortError{Reason: t.Reason}

	// ---- heap-mode data statements ----
	case *ir.FieldLoad:
		v, err := in.heapFieldLoad(t, f.get(t.Obj))
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, v)
	case *ir.FieldStore:
		if err := in.heapFieldStore(t, f.get(t.Obj), f.get(t.Src)); err != nil {
			return nil, err
		}
	case *ir.ArrayLoad:
		arr := f.get(t.Arr)
		elem := t.Arr.Type.Elem
		if elem == nil {
			return nil, fmt.Errorf("interp: array load on non-array %s", t.Arr)
		}
		if elem.IsRef() {
			f.set(t.Dst, in.env.Heap.ArrayGetRef(arr, int(f.get(t.Idx))))
		} else {
			bits := in.env.Heap.ArrayGetPrim(arr, int(f.get(t.Idx)), elem.Kind)
			f.set(t.Dst, signExtend(bits, elem.Kind))
		}
	case *ir.ArrayStore:
		arr := f.get(t.Arr)
		elem := t.Arr.Type.Elem
		if elem == nil {
			return nil, fmt.Errorf("interp: array store on non-array %s", t.Arr)
		}
		if elem.IsRef() {
			in.env.Heap.ArraySetRef(arr, int(f.get(t.Idx)), f.get(t.Src))
		} else {
			in.env.Heap.ArraySetPrim(arr, int(f.get(t.Idx)), elem.Kind, uint64(f.get(t.Src)))
		}
	case *ir.ArrayLen:
		f.set(t.Dst, int64(in.env.Heap.ArrayLen(f.get(t.Arr))))
	case *ir.New:
		cls := t.R
		if cls == nil {
			cls = in.env.Prog.Reg.MustLookup(t.Class)
		}
		a, err := in.env.Heap.AllocObject(cls)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.NewArray:
		n := int(f.get(t.Len))
		var a heap.Addr
		var err error
		if t.Elem.IsRef() {
			a, err = in.env.Heap.AllocArray(model.KindRef, n)
		} else {
			a, err = in.env.Heap.AllocArray(t.Elem.Kind, n)
		}
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.Deserialize:
		v, err := in.deserialize(t)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, v)
	case *ir.Serialize:
		if err := in.serialize(t.Src.Type.Class, f.get(t.Src)); err != nil {
			return nil, err
		}
	case *ir.Emit:
		if err := in.serialize(t.Src.Type.Class, f.get(t.Src)); err != nil {
			return nil, err
		}
	case *ir.NativeCall:
		v, err := in.nativeCall(t, f)
		if err != nil {
			return nil, err
		}
		if t.Dst != nil {
			f.set(t.Dst, v)
		}
	case *ir.MonitorEnter, *ir.MonitorExit:
		// Locks are per-executor no-ops; metadata use is caught
		// statically on the native path.

	// ---- native-mode statements ----
	case *ir.GetAddress:
		src, ok := in.env.NativeSources[t.Source]
		if !ok {
			return nil, fmt.Errorf("interp: no native source %q", t.Source)
		}
		addr, err := in.env.FetchRecord(src)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, addr)
	case *ir.ReadNative:
		base := f.get(t.Base)
		off, err := in.env.ResolveOffset(base, t.Off)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, in.env.Arena.ReadNative(base, off, t.Size))
	case *ir.WriteNative:
		base := f.get(t.Base)
		if t.Off.IsConst() {
			in.env.Arena.WriteNative(base, t.Off.Const, t.Size, f.get(t.Src))
		} else if err := in.env.WriteNativeOff(base, t.Off, t.Size, f.get(t.Src)); err != nil {
			return nil, err
		}
	case *ir.ReadNativeElem:
		base := f.get(t.Base)
		idx := f.get(t.Idx)
		if err := in.env.NativeBounds(base, idx); err != nil {
			return nil, err
		}
		f.set(t.Dst, in.env.Arena.ReadNative(base, 4+idx*int64(t.Kind.Size()), t.Kind.Size()))
	case *ir.WriteNativeElem:
		base := f.get(t.Base)
		idx := f.get(t.Idx)
		if err := in.env.NativeBounds(base, idx); err != nil {
			return nil, err
		}
		in.env.Arena.WriteNative(base, 4+idx*int64(t.Kind.Size()), t.Kind.Size(), f.get(t.Src))
	case *ir.AddrOf:
		base := f.get(t.Base)
		off, err := in.env.ResolveOffset(base, t.Off)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, base+off)
	case *ir.AddrElem:
		f.set(t.Dst, f.get(t.Base)+4+f.get(t.Idx)*t.Stride)
	case *ir.ScanElem:
		a, err := in.env.ScanElem(f.get(t.Base), f.get(t.Idx), t.Class)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.AppendRecord:
		a, err := in.env.AppendRecord(t.Class)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.AppendArray:
		a, err := in.env.AppendArray(t.Elem, f.get(t.Len))
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.GConstString:
		a, err := in.env.AppendString(t.Val)
		if err != nil {
			return nil, err
		}
		f.set(t.Dst, a)
	case *ir.CheckInline:
		if err := in.env.CheckInlinePlacement(f.get(t.Base), f.get(t.Sub), t.Off); err != nil {
			return nil, err
		}
	case *ir.GWriteObject:
		if err := in.env.GWrite(t.Src.Type, f.get(t.Src)); err != nil {
			return nil, err
		}
	case *ir.GEmit:
		if err := in.env.GWrite(t.Src.Type, f.get(t.Src)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("interp: unhandled statement %T", s)
	}
	return nil, nil
}

func (in *Interp) cond(c ir.Cond, f *frame) bool {
	l, r := f.get(c.L), f.get(c.R)
	if c.L.Type.Kind == model.KindDouble || c.L.Type.Kind == model.KindFloat {
		lf, rf := math.Float64frombits(uint64(l)), math.Float64frombits(uint64(r))
		switch c.Op {
		case ir.CmpEQ:
			return lf == rf
		case ir.CmpNE:
			return lf != rf
		case ir.CmpLT:
			return lf < rf
		case ir.CmpLE:
			return lf <= rf
		case ir.CmpGT:
			return lf > rf
		default:
			return lf >= rf
		}
	}
	switch c.Op {
	case ir.CmpEQ:
		return l == r
	case ir.CmpNE:
		return l != r
	case ir.CmpLT:
		return l < r
	case ir.CmpLE:
		return l <= r
	case ir.CmpGT:
		return l > r
	default:
		return l >= r
	}
}

func (in *Interp) binop(t *ir.BinOp, l, r int64) (int64, error) {
	if t.Dst.Type.Kind == model.KindDouble || t.Dst.Type.Kind == model.KindFloat {
		lf, rf := math.Float64frombits(uint64(l)), math.Float64frombits(uint64(r))
		var v float64
		switch t.Op {
		case ir.OpAdd:
			v = lf + rf
		case ir.OpSub:
			v = lf - rf
		case ir.OpMul:
			v = lf * rf
		case ir.OpDiv:
			v = lf / rf
		case ir.OpMin:
			v = math.Min(lf, rf)
		case ir.OpMax:
			v = math.Max(lf, rf)
		default:
			return 0, fmt.Errorf("interp: float binop %s unsupported", t.Op)
		}
		return int64(math.Float64bits(v)), nil
	}
	switch t.Op {
	case ir.OpAdd:
		return l + r, nil
	case ir.OpSub:
		return l - r, nil
	case ir.OpMul:
		return l * r, nil
	case ir.OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("interp: integer division by zero")
		}
		return l / r, nil
	case ir.OpRem:
		if r == 0 {
			return 0, fmt.Errorf("interp: integer remainder by zero")
		}
		return l % r, nil
	case ir.OpAnd:
		return l & r, nil
	case ir.OpOr:
		return l | r, nil
	case ir.OpXor:
		return l ^ r, nil
	case ir.OpShl:
		return l << uint(r&63), nil
	case ir.OpShr:
		return l >> uint(r&63), nil
	case ir.OpMin:
		if l < r {
			return l, nil
		}
		return r, nil
	case ir.OpMax:
		if l > r {
			return l, nil
		}
		return r, nil
	default:
		return 0, fmt.Errorf("interp: binop %s unsupported", t.Op)
	}
}

func (in *Interp) unop(t *ir.UnOp, x int64) int64 {
	switch t.Op {
	case ir.OpNeg:
		if t.Dst.Type.Kind == model.KindDouble || t.Dst.Type.Kind == model.KindFloat {
			return int64(math.Float64bits(-math.Float64frombits(uint64(x))))
		}
		return -x
	case ir.OpNot:
		return ^x
	case ir.OpI2D:
		return int64(math.Float64bits(float64(x)))
	case ir.OpD2I:
		return int64(math.Float64frombits(uint64(x)))
	case ir.OpAbs:
		if t.Dst.Type.Kind == model.KindDouble {
			return int64(math.Float64bits(math.Abs(math.Float64frombits(uint64(x)))))
		}
		if x < 0 {
			return -x
		}
		return x
	case ir.OpSqrt:
		return int64(math.Float64bits(math.Sqrt(floatOf(t.X, x))))
	case ir.OpExp:
		return int64(math.Float64bits(math.Exp(floatOf(t.X, x))))
	case ir.OpLog:
		return int64(math.Float64bits(math.Log(floatOf(t.X, x))))
	default:
		return 0
	}
}

// floatOf interprets a slot value as float64, converting from integer
// kinds when needed.
func floatOf(v *ir.Var, bits int64) float64 {
	if v.Type.Kind == model.KindDouble || v.Type.Kind == model.KindFloat {
		return math.Float64frombits(uint64(bits))
	}
	return float64(bits)
}

func signExtend(bits uint64, k model.Kind) int64 {
	switch k.Size() {
	case 1:
		return int64(int8(bits))
	case 2:
		return int64(int16(bits))
	case 4:
		return int64(int32(bits))
	default:
		return int64(bits)
	}
}
