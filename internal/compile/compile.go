// Package compile is the closure-compilation backend for transformed
// SERs: it lowers an ir.Func once per driver into chains of plain Go
// funcs, eliminating the per-record statement/binop/cond interpretive
// dispatch that dominates internal/interp's hot loop.
//
// The lowering is a classic closure compiler (a "continuation chain" of
// func values, not generated source): every statement becomes one
// pre-specialized step closure with
//
//   - variable slots resolved to integer indices at compile time,
//   - constant offsets folded into direct arena reads/writes,
//   - float-vs-int operator selection done once instead of per record,
//   - GetAddress sources bound to an array slot once per Machine
//     instead of a per-record map lookup,
//   - frames cut from one per-Machine stack, a call writing its
//     arguments straight into the callee's frame, and
//   - arena record operations pre-bound to the shared *interp.Env
//     methods (nativeops), so both backends run byte-identical record
//     protocols.
//
// Speculation guards (scan bounds, inline-placement checks, built-size
// checks, whitelisted-method checks) stay inline branch checks that
// return the existing *interp.AbortError, so a guard failure
// deoptimizes through the engine's unchanged abort → heap re-execution
// path; breaker, hedging, and recovery machinery observe exactly the
// interpreter's error surface.
//
// Cancellation parity: compiled chains call Env.CheckStep at precisely
// the interpreter's call sites (before every statement, once per While
// iteration), so a hedge loser polls Env.Cancel at the same step
// granularity and MaxSteps budgets behave identically.
//
// Compilation is partial by design: any statement that touches the
// simulated managed heap (Deserialize, New, FieldLoad, ...) makes the
// whole driver non-compilable and Compile returns an error — the engine
// then falls back to interpreting that driver. A consequence the
// soundness argument leans on: compiled code can never allocate on the
// managed heap, so no GC can run under it and compiled frames need no
// root registration.
package compile

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
)

// Prog is one closure-compiled driver: the entry function plus every
// reachable callee, ready to run against any *interp.Env.
type Prog struct {
	entry *cfn
	// srcNames holds the distinct GetAddress source names in slot order;
	// Run binds them up front (one map lookup per run, not per record).
	srcNames []string
	// Funcs and Steps describe the compiled shape, for tests/metrics.
	Funcs int
	Steps int
}

// cfn is a compiled function: parameter slots and a step chain.
type cfn struct {
	name   string
	params []int
	nslots int
	body   []step
}

// mach is the machine state shared by all frames of a Machine's runs:
// the environment, the bound native sources, the frame stack, and the
// last-resolved arena region (records stream from one input region, so
// the cache almost always hits).
type mach struct {
	env   *interp.Env
	entry *cfn
	srcs  []interp.NativeSource

	// stack holds the running calls' frames; sp is its first free slot.
	stack []int64
	sp    int

	regID int64
	reg   *arena.Region

	ret retSig
}

// frame cuts f's slots, zeroed, from the top of the stack. A grown
// stack moves to new storage; the frames below keep theirs, which only
// their own calls read, so nothing is copied.
func (m *mach) frame(f *cfn) []int64 {
	lo, hi := m.sp, m.sp+f.nslots
	if hi > len(m.stack) {
		m.stack = make([]int64, 2*hi)
	}
	sl := m.stack[lo:hi:hi]
	clear(sl)
	m.sp = hi
	return sl
}

// call runs f over sl, the frame m.frame cut for it, and pops the frame.
func (m *mach) call(f *cfn, sl []int64) (int64, error) {
	err := runSteps(m, f.name, sl, f.body)
	m.sp -= f.nslots
	if err != nil {
		if r, ok := err.(*retSig); ok {
			return r.val, nil
		}
		return 0, err
	}
	return 0, nil
}

// bytesAt returns the backing bytes and intra-region offset of base,
// re-resolving only when the region changes. The bytes are re-fetched
// from the region on every access (never cached) so writes that grow
// the region can't leave a stale slice behind. Fault semantics are the
// arena's own: a wild or freed address faults through RegionAt exactly
// as a generic access would; a freed region yields nil bytes, which
// every in-bounds check rejects into the generic (faulting) path.
func (m *mach) bytesAt(base int64) ([]byte, int) {
	if base>>32 == m.regID {
		return m.reg.Bytes(), int(uint32(base))
	}
	return m.bytesAtSlow(base)
}

func (m *mach) bytesAtSlow(base int64) ([]byte, int) {
	m.reg = m.env.Arena.RegionAt(base)
	m.regID = base >> 32
	return m.reg.Bytes(), int(uint32(base))
}

// retSig propagates a Return through nested blocks as a sentinel
// error consumed at the callFn boundary. One instance lives in the
// mach and is reused (its value is read immediately at the consuming
// callFn, before any other step runs), so Return never allocates.
type retSig struct{ val int64 }

func (*retSig) Error() string { return "compile: internal return signal" }

// step executes one lowered statement against the frame's slot array.
// A *retSig error propagates a Return; any other error aborts the run.
type step func(m *mach, sl []int64) error

// Machine is a Prog bound to one Env: the Env's native sources
// resolved by name once, and one frame stack every run and call reuses.
// Bind one per attempt or binding and Run it once per driver run. A
// Machine is for one goroutine at a time; a Prog is shared.
type Machine struct{ mach }

// Bind resolves p's sources against env.NativeSources, which must hold
// them by now; a missing source fails the run that reads it.
func (p *Prog) Bind(env *interp.Env) *Machine {
	mc := &Machine{mach{env: env, entry: p.entry}}
	if len(p.srcNames) > 0 {
		mc.srcs = make([]interp.NativeSource, len(p.srcNames))
		for i, name := range p.srcNames {
			mc.srcs[i] = env.NativeSources[name]
		}
	}
	return mc
}

// Run executes the driver once with the given argument values (raw
// bits), against the same Env contract as interp.New(env).Run(fn, ...).
func (mc *Machine) Run(args ...int64) (int64, error) {
	m := &mc.mach
	if m.env.MaxSteps == 0 {
		m.env.MaxSteps = interp.DefaultMaxSteps
	}
	// regID -1 forces the first access through RegionAt: id 0 is never
	// valid, and a null/heap-range base must fault there, not here.
	m.regID, m.reg, m.sp = -1, nil, 0
	f := m.entry
	if len(args) != len(f.params) {
		return 0, fmt.Errorf("compile: %s expects %d args, got %d", f.name, len(f.params), len(args))
	}
	sl := m.frame(f)
	for i, a := range args {
		sl[f.params[i]] = a
	}
	return m.call(f, sl)
}

// runSteps is the compiled analogue of the interpreter's block loop:
// CheckStep before every statement keeps step budgets and cancellation
// polling at identical granularity across backends.
func runSteps(m *mach, name string, sl []int64, steps []step) error {
	env := m.env
	for _, st := range steps {
		if err := env.CheckStep(name); err != nil {
			return err
		}
		if err := st(m, sl); err != nil {
			return err
		}
	}
	return nil
}

// Compile lowers fn (an already-transformed native driver from prog)
// and every function it calls into a closure chain. It fails — rather
// than falling back statement-by-statement — on any construct that
// needs the managed heap, so a successful compile certifies the whole
// driver runs heap-free.
func Compile(prog *ir.Program, fn *ir.Func) (*Prog, error) {
	c := &compiler{
		prog:   prog,
		fns:    map[string]*cfn{},
		srcIdx: map[string]int{},
	}
	entry, err := c.fn(fn)
	if err != nil {
		return nil, err
	}
	srcNames := make([]string, len(c.srcIdx))
	for name, i := range c.srcIdx {
		srcNames[i] = name
	}
	return &Prog{entry: entry, srcNames: srcNames, Funcs: len(c.fns), Steps: c.steps}, nil
}

type compiler struct {
	prog   *ir.Program
	fns    map[string]*cfn
	srcIdx map[string]int
	steps  int
}

func (c *compiler) sourceIndex(name string) int {
	if i, ok := c.srcIdx[name]; ok {
		return i
	}
	i := len(c.srcIdx)
	c.srcIdx[name] = i
	return i
}

func (c *compiler) fnByName(name string) (*cfn, error) {
	if f, ok := c.fns[name]; ok {
		return f, nil
	}
	fn, ok := c.prog.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("compile: unknown function %q", name)
	}
	return c.fn(fn)
}

func (c *compiler) fn(fn *ir.Func) (*cfn, error) {
	if f, ok := c.fns[fn.Name]; ok {
		return f, nil
	}
	f := &cfn{name: fn.Name, nslots: fn.NumSlots()}
	for _, p := range fn.Params {
		f.params = append(f.params, p.Slot)
	}
	// Memoize before compiling the body so recursive calls terminate.
	c.fns[fn.Name] = f
	body, err := c.block(fn, fn.Body)
	if err != nil {
		return nil, err
	}
	f.body = body
	return f, nil
}

func (c *compiler) block(fn *ir.Func, body []ir.Stmt) ([]step, error) {
	steps := make([]step, 0, len(body))
	for i := 0; i < len(body); i++ {
		if i+1 < len(body) {
			if st, ok := c.fusedPair(fn, body[i], body[i+1]); ok {
				steps = append(steps, st)
				i++
				continue
			}
		}
		st, err := c.stmt(fn, body[i])
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// fusedPair is the one superinstruction of this backend: an 8-byte
// native read (const-offset field or array element) immediately
// followed by a float add — the load/accumulate idiom of every scan and
// fold kernel — collapses into a single closure, saving one indirect
// dispatch per pair. The fused step still calls CheckStep between its
// two halves, so step budgets and cancellation granularity are
// indistinguishable from the unfused sequence; the read's temp slot is
// written before the add reads its operands, so no dataflow condition
// is needed for soundness. Any fast-path miss replays the exact unfused
// slow sequence, keeping the fault/abort surface identical.
func (c *compiler) fusedPair(fn *ir.Func, s1, s2 ir.Stmt) (step, bool) {
	add, ok := s2.(*ir.BinOp)
	if !ok || add.Op != ir.OpAdd {
		return nil, false
	}
	isF := isFloatKind(add.Dst.Type.Kind)
	name := fn.Name
	d, l, r := add.Dst.Slot, add.L.Slot, add.R.Slot
	switch rd := s1.(type) {
	case *ir.ReadNative:
		if !rd.Off.IsConst() || (rd.Size != 8 && rd.Size != 4) {
			return nil, false
		}
		c.steps += 2
		tdst, base, off, sz := rd.Dst.Slot, rd.Base.Slot, rd.Off.Const, rd.Size
		return func(m *mach, sl []int64) error {
			ba := sl[base]
			if ba>>32 == m.regID {
				b := m.reg.Bytes()
				o := int(uint32(ba)) + int(off)
				if uint(o)+uint(sz) <= uint(len(b)) {
					sl[tdst] = load(b, o, sz)
					if err := m.env.CheckStep(name); err != nil {
						return err
					}
					if isF {
						sl[d] = fbits(f64(sl[l]) + f64(sl[r]))
					} else {
						sl[d] = sl[l] + sl[r]
					}
					return nil
				}
			}
			if err := constReadSlow(m, sl, tdst, ba, off, sz); err != nil {
				return err
			}
			if err := m.env.CheckStep(name); err != nil {
				return err
			}
			if isF {
				sl[d] = fbits(f64(sl[l]) + f64(sl[r]))
			} else {
				sl[d] = sl[l] + sl[r]
			}
			return nil
		}, true

	case *ir.ReadNativeElem:
		if rd.Kind.Size() != 8 {
			return nil, false
		}
		c.steps += 2
		tdst, base, idx := rd.Dst.Slot, rd.Base.Slot, rd.Idx.Slot
		return func(m *mach, sl []int64) error {
			ba, i := sl[base], sl[idx]
			if ba>>32 == m.regID {
				b := m.reg.Bytes()
				o := int(uint32(ba))
				if uint(o)+4 <= uint(len(b)) {
					n := int64(int32(binary.LittleEndian.Uint32(b[o:])))
					if i >= 0 && i < n {
						eo := o + 4 + int(i)*8
						if uint(eo)+8 <= uint(len(b)) {
							sl[tdst] = int64(binary.LittleEndian.Uint64(b[eo:]))
							if err := m.env.CheckStep(name); err != nil {
								return err
							}
							if isF {
								sl[d] = fbits(f64(sl[l]) + f64(sl[r]))
							} else {
								sl[d] = sl[l] + sl[r]
							}
							return nil
						}
					}
				}
			}
			if err := elemReadSlow(m, sl, tdst, ba, i, 8); err != nil {
				return err
			}
			if err := m.env.CheckStep(name); err != nil {
				return err
			}
			if isF {
				sl[d] = fbits(f64(sl[l]) + f64(sl[r]))
			} else {
				sl[d] = sl[l] + sl[r]
			}
			return nil
		}, true
	}
	return nil, false
}

var noop step = func(*mach, []int64) error { return nil }

func (c *compiler) stmt(fn *ir.Func, s ir.Stmt) (step, error) {
	c.steps++
	switch t := s.(type) {
	case *ir.ConstInt:
		dst, v := t.Dst.Slot, t.Val
		return func(_ *mach, sl []int64) error { sl[dst] = v; return nil }, nil

	case *ir.ConstFloat:
		dst, v := t.Dst.Slot, int64(math.Float64bits(t.Val))
		return func(_ *mach, sl []int64) error { sl[dst] = v; return nil }, nil

	case *ir.Assign:
		dst, src := t.Dst.Slot, t.Src.Slot
		return func(_ *mach, sl []int64) error { sl[dst] = sl[src]; return nil }, nil

	case *ir.BinOp:
		return c.binop(t)

	case *ir.UnOp:
		return c.unop(t)

	case *ir.If:
		cond := compileCond(t.Cond)
		then, err := c.block(fn, t.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.block(fn, t.Else)
		if err != nil {
			return nil, err
		}
		name := fn.Name
		return func(m *mach, sl []int64) error {
			body := then
			if !cond(sl) {
				body = els
			}
			env := m.env
			for _, st := range body {
				if err := env.CheckStep(name); err != nil {
					return err
				}
				if err := st(m, sl); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case *ir.While:
		cond := compileCond(t.Cond)
		body, err := c.block(fn, t.Body)
		if err != nil {
			return nil, err
		}
		name := fn.Name
		// The block loop is inlined here (vs calling runSteps) to shave
		// a call per iteration off the hottest loop in every driver.
		return func(m *mach, sl []int64) error {
			env := m.env
			for cond(sl) {
				if err := env.CheckStep(name); err != nil {
					return err
				}
				for _, st := range body {
					if err := env.CheckStep(name); err != nil {
						return err
					}
					if err := st(m, sl); err != nil {
						return err
					}
				}
			}
			return nil
		}, nil

	case *ir.Return:
		if t.Val == nil {
			return func(m *mach, _ []int64) error { m.ret.val = 0; return &m.ret }, nil
		}
		v := t.Val.Slot
		return func(m *mach, sl []int64) error { m.ret.val = sl[v]; return &m.ret }, nil

	case *ir.Call:
		callee, err := c.fnByName(t.Fn)
		if err != nil {
			return nil, err
		}
		argSlots := make([]int, len(t.Args))
		for i, a := range t.Args {
			argSlots[i] = a.Slot
		}
		dst := -1
		if t.Dst != nil {
			dst = t.Dst.Slot
		}
		// The callee's params are set before it is memoized, so they are
		// known here even for a recursive call.
		params := callee.params
		if len(argSlots) != len(params) {
			errv := fmt.Errorf("compile: %s expects %d args, got %d", callee.name, len(params), len(argSlots))
			return func(*mach, []int64) error { return errv }, nil
		}
		return func(m *mach, sl []int64) error {
			csl := m.frame(callee)
			for i, s := range argSlots {
				csl[params[i]] = sl[s]
			}
			v, err := m.call(callee, csl)
			if err != nil {
				return err
			}
			if dst >= 0 {
				sl[dst] = v
			}
			return nil
		}, nil

	case *ir.Abort:
		// The guard's error value is built once at compile time; firing
		// it is a pointer return.
		errv := &interp.AbortError{Reason: t.Reason}
		return func(*mach, []int64) error { return errv }, nil

	case *ir.MonitorEnter, *ir.MonitorExit:
		// Per-executor lock no-ops, but they still cost one interpreter
		// step; keep the step so budgets match across backends.
		return noop, nil

	// ---- native-mode statements ----

	case *ir.GetAddress:
		dst := t.Dst.Slot
		idx := c.sourceIndex(t.Source)
		name := t.Source
		return func(m *mach, sl []int64) error {
			src := m.srcs[idx]
			if src == nil {
				// Run pre-binds every source; nil means the env really
				// lacks it (matching the interpreter's error).
				return fmt.Errorf("interp: no native source %q", name)
			}
			addr, err := m.env.FetchRecord(src)
			if err != nil {
				return err
			}
			sl[dst] = addr
			return nil
		}, nil

	case *ir.ReadNative:
		dst, base, size := t.Dst.Slot, t.Base.Slot, t.Size
		if t.Off.IsConst() {
			return constReadStep(dst, base, t.Off.Const, size), nil
		}
		off := t.Off
		return func(m *mach, sl []int64) error {
			b := sl[base]
			o, err := m.env.ResolveOffset(b, off)
			if err != nil {
				return err
			}
			sl[dst] = m.env.Arena.ReadNative(b, o, size)
			return nil
		}, nil

	case *ir.WriteNative:
		base, src, size := t.Base.Slot, t.Src.Slot, t.Size
		if t.Off.IsConst() {
			return constWriteStep(base, src, t.Off.Const, size), nil
		}
		off := t.Off
		return func(m *mach, sl []int64) error {
			return m.env.WriteNativeOff(sl[base], off, size, sl[src])
		}, nil

	case *ir.ReadNativeElem:
		return elemReadStep(t.Dst.Slot, t.Base.Slot, t.Idx.Slot, t.Kind.Size()), nil

	case *ir.WriteNativeElem:
		return elemWriteStep(t.Base.Slot, t.Idx.Slot, t.Src.Slot, t.Kind.Size()), nil

	case *ir.AddrOf:
		dst, base := t.Dst.Slot, t.Base.Slot
		if t.Off.IsConst() {
			off := t.Off.Const
			return func(_ *mach, sl []int64) error {
				sl[dst] = sl[base] + off
				return nil
			}, nil
		}
		off := t.Off
		return func(m *mach, sl []int64) error {
			b := sl[base]
			o, err := m.env.ResolveOffset(b, off)
			if err != nil {
				return err
			}
			sl[dst] = b + o
			return nil
		}, nil

	case *ir.AddrElem:
		dst, base, idx, stride := t.Dst.Slot, t.Base.Slot, t.Idx.Slot, t.Stride
		return func(_ *mach, sl []int64) error {
			sl[dst] = sl[base] + 4 + sl[idx]*stride
			return nil
		}, nil

	case *ir.ScanElem:
		dst, base, idx, class := t.Dst.Slot, t.Base.Slot, t.Idx.Slot, t.Class
		return func(m *mach, sl []int64) error {
			a, err := m.env.ScanElem(sl[base], sl[idx], class)
			if err != nil {
				return err
			}
			sl[dst] = a
			return nil
		}, nil

	case *ir.AppendRecord:
		dst, class := t.Dst.Slot, t.Class
		return func(m *mach, sl []int64) error {
			a, err := m.env.AppendRecord(class)
			if err != nil {
				return err
			}
			sl[dst] = a
			return nil
		}, nil

	case *ir.AppendArray:
		dst, ln, elem := t.Dst.Slot, t.Len.Slot, t.Elem
		return func(m *mach, sl []int64) error {
			a, err := m.env.AppendArray(elem, sl[ln])
			if err != nil {
				return err
			}
			sl[dst] = a
			return nil
		}, nil

	case *ir.GConstString:
		dst, val := t.Dst.Slot, t.Val
		return func(m *mach, sl []int64) error {
			a, err := m.env.AppendString(val)
			if err != nil {
				return err
			}
			sl[dst] = a
			return nil
		}, nil

	case *ir.CheckInline:
		base, sub, off := t.Base.Slot, t.Sub.Slot, t.Off
		return func(m *mach, sl []int64) error {
			return m.env.CheckInlinePlacement(sl[base], sl[sub], off)
		}, nil

	case *ir.GWriteObject:
		src, class := t.Src.Slot, interp.RecordClass(t.Src.Type)
		return func(m *mach, sl []int64) error {
			return m.env.GWriteClass(class, sl[src])
		}, nil

	case *ir.GEmit:
		src, class := t.Src.Slot, interp.RecordClass(t.Src.Type)
		return func(m *mach, sl []int64) error {
			return m.env.GWriteClass(class, sl[src])
		}, nil

	case *ir.NativeCall:
		return c.nativeCall(t)

	default:
		// Everything else needs the managed heap (Deserialize, New,
		// FieldLoad/Store, Array*, ConstString, Serialize, Emit): decline
		// the whole driver so the engine interprets it instead.
		return nil, fmt.Errorf("compile: unsupported statement %T (heap path)", s)
	}
}

// nativeCall lowers each whitelisted native method to its specific
// operation at compile time, skipping the per-call name dispatch.
func (c *compiler) nativeCall(t *ir.NativeCall) (step, error) {
	recv := t.Recv.Slot
	dst := -1
	if t.Dst != nil {
		dst = t.Dst.Slot
	}
	setDst := func(sl []int64, v int64) {
		if dst >= 0 {
			sl[dst] = v
		}
	}
	switch t.Name {
	case "clone":
		// Immutable records: alias.
		return func(_ *mach, sl []int64) error {
			setDst(sl, sl[recv])
			return nil
		}, nil
	case "length":
		return func(m *mach, sl []int64) error {
			setDst(sl, m.env.Arena.ReadNative(sl[recv], 0, 4))
			return nil
		}, nil
	case "charAt":
		if len(t.Args) != 1 {
			return nil, fmt.Errorf("compile: charAt expects 1 arg")
		}
		arg := t.Args[0].Slot
		return func(m *mach, sl []int64) error {
			r, i := sl[recv], sl[arg]
			if err := m.env.NativeBounds(r, i); err != nil {
				return err
			}
			setDst(sl, m.env.Arena.ReadNative(r, 4+2*i, 2))
			return nil
		}, nil
	case "hashCode":
		cls := t.RecvClass
		return func(m *mach, sl []int64) error {
			v, err := m.env.NativeHash(cls, sl[recv])
			if err != nil {
				return err
			}
			setDst(sl, v)
			return nil
		}, nil
	case "equals":
		if len(t.Args) != 1 {
			return nil, fmt.Errorf("compile: equals expects 1 arg")
		}
		cls := t.RecvClass
		arg := t.Args[0].Slot
		return func(m *mach, sl []int64) error {
			v, err := m.env.NativeEquals(cls, sl[recv], sl[arg])
			if err != nil {
				return err
			}
			setDst(sl, v)
			return nil
		}, nil
	case "splitToWordCounts":
		return func(m *mach, sl []int64) error {
			if err := m.env.SplitToWordCounts(sl[recv]); err != nil {
				return err
			}
			setDst(sl, 0)
			return nil
		}, nil
	default:
		// The interpreter aborts only if the call executes; preserve
		// that by failing at run time, not compile time.
		errv := &interp.AbortError{Reason: "native method " + t.Name + " over inlined bytes"}
		return func(*mach, []int64) error { return errv }, nil
	}
}

// ---- pre-bound arena accessors ----
//
// The size-specialized steps below read/write region bytes directly
// when the access is fully in bounds; anything else — a wild address,
// a freed region, an out-of-range offset, a write that must grow the
// region — takes the generic Env/Arena path, which raises exactly the
// fault or abort the interpreter would. Sign extension matches the
// arena's readLE (sub-8-byte loads sign-extend like JVM int loads).

func load(b []byte, o, sz int) int64 {
	switch sz {
	case 1:
		return int64(int8(b[o]))
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b[o:])))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b[o:])))
	default:
		return int64(binary.LittleEndian.Uint64(b[o:]))
	}
}

func store(b []byte, o, sz int, v int64) {
	switch sz {
	case 1:
		b[o] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b[o:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[o:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[o:], uint64(v))
	}
}

// constReadStep lowers a constant-offset ReadNative: cached region
// resolution plus a direct load, size-specialized so the common 8- and
// 4-byte accesses compile to a single unaligned load.
func constReadStep(dst, base int, off int64, sz int) step {
	switch sz {
	case 8:
		// The region-match check is open-coded (vs calling bytesAt,
		// which is over the inlining budget) so the hot read is
		// branch + load with no call.
		return func(m *mach, sl []int64) error {
			ba := sl[base]
			if ba>>32 == m.regID {
				b := m.reg.Bytes()
				o := int(uint32(ba)) + int(off)
				if uint(o)+8 <= uint(len(b)) {
					sl[dst] = int64(binary.LittleEndian.Uint64(b[o:]))
					return nil
				}
			}
			return constReadSlow(m, sl, dst, ba, off, sz)
		}
	case 4:
		return func(m *mach, sl []int64) error {
			ba := sl[base]
			if ba>>32 == m.regID {
				b := m.reg.Bytes()
				o := int(uint32(ba)) + int(off)
				if uint(o)+4 <= uint(len(b)) {
					sl[dst] = int64(int32(binary.LittleEndian.Uint32(b[o:])))
					return nil
				}
			}
			return constReadSlow(m, sl, dst, ba, off, sz)
		}
	}
	return func(m *mach, sl []int64) error {
		ba := sl[base]
		if ba>>32 == m.regID {
			b := m.reg.Bytes()
			o := int(uint32(ba)) + int(off)
			if uint(o)+uint(sz) <= uint(len(b)) {
				sl[dst] = load(b, o, sz)
				return nil
			}
		}
		return constReadSlow(m, sl, dst, ba, off, sz)
	}
}

// constReadSlow re-binds the region (faulting on wild/freed addresses
// exactly like the interpreter's access) and retries; a genuinely
// out-of-range read falls through to the generic arena path so its
// fault is byte-identical to the interpreter's.
func constReadSlow(m *mach, sl []int64, dst int, ba, off int64, sz int) error {
	b, o := m.bytesAtSlow(ba)
	o += int(off)
	if uint(o)+uint(sz) <= uint(len(b)) {
		sl[dst] = load(b, o, sz)
		return nil
	}
	sl[dst] = m.env.Arena.ReadNative(ba, off, sz)
	return nil
}

// constWriteStep lowers a constant-offset WriteNative. In-place when
// the target bytes exist; the grow-the-region case falls back to the
// generic write.
func constWriteStep(base, src int, off int64, sz int) step {
	return func(m *mach, sl []int64) error {
		ba := sl[base]
		b, o := m.bytesAt(ba)
		o += int(off)
		if uint(o)+uint(sz) <= uint(len(b)) {
			store(b, o, sz, sl[src])
			return nil
		}
		m.env.Arena.WriteNative(ba, off, sz, sl[src])
		return nil
	}
}

// elemReadStep lowers ReadNativeElem: the length guard reads the same
// int32 length prefix Env.NativeBounds does, and an out-of-bounds
// index routes through NativeBounds to produce the identical abort.
// The dominant 8-byte (double/long element) case gets its own closure.
func elemReadStep(dst, base, idx int, sz int) step {
	stride := int64(sz)
	if sz == 8 {
		// Region match open-coded like constReadStep: the fold inner
		// loop lives here, so the element read must be call-free.
		return func(m *mach, sl []int64) error {
			ba, i := sl[base], sl[idx]
			if ba>>32 == m.regID {
				b := m.reg.Bytes()
				o := int(uint32(ba))
				if uint(o)+4 <= uint(len(b)) {
					n := int64(int32(binary.LittleEndian.Uint32(b[o:])))
					if i < 0 || i >= n {
						return m.env.NativeBounds(ba, i)
					}
					eo := o + 4 + int(i)*8
					if uint(eo)+8 <= uint(len(b)) {
						sl[dst] = int64(binary.LittleEndian.Uint64(b[eo:]))
						return nil
					}
				}
			}
			return elemReadSlow(m, sl, dst, ba, i, 8)
		}
	}
	return func(m *mach, sl []int64) error {
		ba, i := sl[base], sl[idx]
		b, o := m.bytesAt(ba)
		if uint(o)+4 <= uint(len(b)) {
			n := int64(int32(binary.LittleEndian.Uint32(b[o:])))
			if i < 0 || i >= n {
				return m.env.NativeBounds(ba, i)
			}
			eo := o + 4 + int(i*stride)
			if uint(eo)+uint(sz) <= uint(len(b)) {
				sl[dst] = load(b, eo, sz)
				return nil
			}
		}
		if err := m.env.NativeBounds(ba, i); err != nil {
			return err
		}
		sl[dst] = m.env.Arena.ReadNative(ba, 4+i*stride, sz)
		return nil
	}
}

// elemReadSlow re-binds the region and retries the element read; bounds
// violations and genuinely short regions route through NativeBounds and
// the generic arena read so the abort/fault surface matches the
// interpreter exactly.
func elemReadSlow(m *mach, sl []int64, dst int, ba, i int64, sz int) error {
	b, o := m.bytesAtSlow(ba)
	stride := int64(sz)
	if uint(o)+4 <= uint(len(b)) {
		n := int64(int32(binary.LittleEndian.Uint32(b[o:])))
		if i < 0 || i >= n {
			return m.env.NativeBounds(ba, i)
		}
		eo := o + 4 + int(i*stride)
		if uint(eo)+uint(sz) <= uint(len(b)) {
			sl[dst] = load(b, eo, sz)
			return nil
		}
	}
	if err := m.env.NativeBounds(ba, i); err != nil {
		return err
	}
	sl[dst] = m.env.Arena.ReadNative(ba, 4+i*stride, sz)
	return nil
}

// elemWriteStep lowers WriteNativeElem with the same guard shape.
func elemWriteStep(base, idx, src int, sz int) step {
	stride := int64(sz)
	return func(m *mach, sl []int64) error {
		ba, i := sl[base], sl[idx]
		b, o := m.bytesAt(ba)
		if uint(o)+4 <= uint(len(b)) {
			n := int64(int32(binary.LittleEndian.Uint32(b[o:])))
			if i < 0 || i >= n {
				return m.env.NativeBounds(ba, i)
			}
			eo := o + 4 + int(i*stride)
			if uint(eo)+uint(sz) <= uint(len(b)) {
				store(b, eo, sz, sl[src])
				return nil
			}
		}
		if err := m.env.NativeBounds(ba, i); err != nil {
			return err
		}
		m.env.Arena.WriteNative(ba, 4+i*stride, sz, sl[src])
		return nil
	}
}

func isFloatKind(k model.Kind) bool {
	return k == model.KindDouble || k == model.KindFloat
}

func f64(x int64) float64   { return math.Float64frombits(uint64(x)) }
func fbits(f float64) int64 { return int64(math.Float64bits(f)) }

// compileCond pre-selects the comparison (float by the left operand's
// kind, mirroring interp.cond) into a branch-free-to-dispatch closure.
func compileCond(cd ir.Cond) func(sl []int64) bool {
	l, r := cd.L.Slot, cd.R.Slot
	if isFloatKind(cd.L.Type.Kind) {
		switch cd.Op {
		case ir.CmpEQ:
			return func(sl []int64) bool { return f64(sl[l]) == f64(sl[r]) }
		case ir.CmpNE:
			return func(sl []int64) bool { return f64(sl[l]) != f64(sl[r]) }
		case ir.CmpLT:
			return func(sl []int64) bool { return f64(sl[l]) < f64(sl[r]) }
		case ir.CmpLE:
			return func(sl []int64) bool { return f64(sl[l]) <= f64(sl[r]) }
		case ir.CmpGT:
			return func(sl []int64) bool { return f64(sl[l]) > f64(sl[r]) }
		default:
			return func(sl []int64) bool { return f64(sl[l]) >= f64(sl[r]) }
		}
	}
	switch cd.Op {
	case ir.CmpEQ:
		return func(sl []int64) bool { return sl[l] == sl[r] }
	case ir.CmpNE:
		return func(sl []int64) bool { return sl[l] != sl[r] }
	case ir.CmpLT:
		return func(sl []int64) bool { return sl[l] < sl[r] }
	case ir.CmpLE:
		return func(sl []int64) bool { return sl[l] <= sl[r] }
	case ir.CmpGT:
		return func(sl []int64) bool { return sl[l] > sl[r] }
	default:
		return func(sl []int64) bool { return sl[l] >= sl[r] }
	}
}

// binop pre-selects the operator and float/int interpretation (by the
// destination's kind, mirroring interp.binop) at compile time.
func (c *compiler) binop(t *ir.BinOp) (step, error) {
	dst, l, r := t.Dst.Slot, t.L.Slot, t.R.Slot
	if isFloatKind(t.Dst.Type.Kind) {
		switch t.Op {
		case ir.OpAdd:
			return func(_ *mach, sl []int64) error { sl[dst] = fbits(f64(sl[l]) + f64(sl[r])); return nil }, nil
		case ir.OpSub:
			return func(_ *mach, sl []int64) error { sl[dst] = fbits(f64(sl[l]) - f64(sl[r])); return nil }, nil
		case ir.OpMul:
			return func(_ *mach, sl []int64) error { sl[dst] = fbits(f64(sl[l]) * f64(sl[r])); return nil }, nil
		case ir.OpDiv:
			return func(_ *mach, sl []int64) error { sl[dst] = fbits(f64(sl[l]) / f64(sl[r])); return nil }, nil
		case ir.OpMin:
			return func(_ *mach, sl []int64) error {
				sl[dst] = fbits(math.Min(f64(sl[l]), f64(sl[r])))
				return nil
			}, nil
		case ir.OpMax:
			return func(_ *mach, sl []int64) error {
				sl[dst] = fbits(math.Max(f64(sl[l]), f64(sl[r])))
				return nil
			}, nil
		default:
			return nil, fmt.Errorf("compile: float binop %s unsupported", t.Op)
		}
	}
	switch t.Op {
	case ir.OpAdd:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] + sl[r]; return nil }, nil
	case ir.OpSub:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] - sl[r]; return nil }, nil
	case ir.OpMul:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] * sl[r]; return nil }, nil
	case ir.OpDiv:
		return func(_ *mach, sl []int64) error {
			if sl[r] == 0 {
				return fmt.Errorf("interp: integer division by zero")
			}
			sl[dst] = sl[l] / sl[r]
			return nil
		}, nil
	case ir.OpRem:
		return func(_ *mach, sl []int64) error {
			if sl[r] == 0 {
				return fmt.Errorf("interp: integer remainder by zero")
			}
			sl[dst] = sl[l] % sl[r]
			return nil
		}, nil
	case ir.OpAnd:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] & sl[r]; return nil }, nil
	case ir.OpOr:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] | sl[r]; return nil }, nil
	case ir.OpXor:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] ^ sl[r]; return nil }, nil
	case ir.OpShl:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] << uint(sl[r]&63); return nil }, nil
	case ir.OpShr:
		return func(_ *mach, sl []int64) error { sl[dst] = sl[l] >> uint(sl[r]&63); return nil }, nil
	case ir.OpMin:
		return func(_ *mach, sl []int64) error {
			if sl[l] < sl[r] {
				sl[dst] = sl[l]
			} else {
				sl[dst] = sl[r]
			}
			return nil
		}, nil
	case ir.OpMax:
		return func(_ *mach, sl []int64) error {
			if sl[l] > sl[r] {
				sl[dst] = sl[l]
			} else {
				sl[dst] = sl[r]
			}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("compile: binop %s unsupported", t.Op)
	}
}

// unop pre-selects the unary operator; float interpretation follows
// interp.unop exactly (Neg by Dst kind, Abs by Dst==double, transcendental
// input conversion by X's kind).
func (c *compiler) unop(t *ir.UnOp) (step, error) {
	dst, x := t.Dst.Slot, t.X.Slot
	xFloat := isFloatKind(t.X.Type.Kind)
	toF := func(v int64) float64 {
		if xFloat {
			return f64(v)
		}
		return float64(v)
	}
	switch t.Op {
	case ir.OpNeg:
		if isFloatKind(t.Dst.Type.Kind) {
			return func(_ *mach, sl []int64) error { sl[dst] = fbits(-f64(sl[x])); return nil }, nil
		}
		return func(_ *mach, sl []int64) error { sl[dst] = -sl[x]; return nil }, nil
	case ir.OpNot:
		return func(_ *mach, sl []int64) error { sl[dst] = ^sl[x]; return nil }, nil
	case ir.OpI2D:
		return func(_ *mach, sl []int64) error { sl[dst] = fbits(float64(sl[x])); return nil }, nil
	case ir.OpD2I:
		return func(_ *mach, sl []int64) error { sl[dst] = int64(f64(sl[x])); return nil }, nil
	case ir.OpAbs:
		if t.Dst.Type.Kind == model.KindDouble {
			return func(_ *mach, sl []int64) error { sl[dst] = fbits(math.Abs(f64(sl[x]))); return nil }, nil
		}
		return func(_ *mach, sl []int64) error {
			v := sl[x]
			if v < 0 {
				v = -v
			}
			sl[dst] = v
			return nil
		}, nil
	case ir.OpSqrt:
		return func(_ *mach, sl []int64) error { sl[dst] = fbits(math.Sqrt(toF(sl[x]))); return nil }, nil
	case ir.OpExp:
		return func(_ *mach, sl []int64) error { sl[dst] = fbits(math.Exp(toF(sl[x]))); return nil }, nil
	case ir.OpLog:
		return func(_ *mach, sl []int64) error { sl[dst] = fbits(math.Log(toF(sl[x]))); return nil }, nil
	default:
		// The interpreter yields 0 for unknown unary ops; match it.
		return func(_ *mach, sl []int64) error { sl[dst] = 0; return nil }, nil
	}
}
