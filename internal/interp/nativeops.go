package interp

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/serde"
)

// The native-mode record operations live on *Env (not *Interp) so that
// both execution backends share one implementation: the tree-walking
// interpreter calls them per statement, and the closure-compiled backend
// (internal/compile) binds them once at compile time as pre-resolved
// accessors. Everything here touches only Env state, so a compiled
// closure chain and an interpreted run over the same Env are
// behaviorally identical — the soundness invariant the differential
// fuzz tests pin down.

// ResolveOffset is Algorithm 1's resolveOffset auxiliary function:
// evaluate a (possibly symbolic) offset expression against a concrete
// record base. During record construction the open builder's deferred
// view is consulted so that offsets behind not-yet-created arrays are
// reported as unresolvable instead of reading garbage.
func (e *Env) ResolveOffset(base int64, off *expr.Expr) (int64, error) {
	if off.IsConst() {
		return off.Const, nil
	}
	if e.builder != nil && e.inOpenRecord(base) {
		if v, ok := e.builder.b.TryResolve(base, off); ok {
			return v, nil
		}
		return 0, &AbortError{Reason: "offset depends on an array not yet created"}
	}
	return off.Eval(e.Arena, base), nil
}

func (e *Env) inOpenRecord(addr int64) bool {
	return e.builder != nil && e.builder.b.Covers(addr)
}

// WriteNativeOff performs a symbolic-offset native write: routed through
// the open builder's deferred-offset protocol when base is the record
// under construction, resolved against the arena otherwise. Constant
// offsets never reach here — both backends write those directly.
func (e *Env) WriteNativeOff(base int64, off *expr.Expr, size int, val int64) error {
	if e.builder != nil && e.inOpenRecord(base) {
		e.builder.b.WriteAt(base, off, size, val)
		return nil
	}
	o, err := e.ResolveOffset(base, off)
	if err != nil {
		return err
	}
	e.Arena.WriteNative(base, o, size, val)
	return nil
}

// CheckInlinePlacement is the runtime guard behind ir.CheckInline: a
// construction-order reference store is a no-op over inlined bytes only
// if the sub-record actually sits where the layout expects it.
func (e *Env) CheckInlinePlacement(base, sub int64, off *expr.Expr) error {
	o, err := e.ResolveOffset(base, off)
	if err != nil {
		// Unresolvable at this point: construction out of order in a way
		// the deferred mechanism cannot express for interior records.
		// Abort the speculation.
		return &AbortError{Reason: "inline placement unresolvable"}
	}
	if base+o != sub {
		return &AbortError{Reason: fmt.Sprintf(
			"construction order mismatch: sub-record at %#x, layout expects %#x", sub, base+o)}
	}
	return nil
}

// NativeBounds checks an inlined array access. The transformed code
// eliminated the *managed-runtime* bounds check; this check guards the
// speculation itself (a genuinely out-of-range index would read another
// record's bytes) and aborts rather than crashing.
func (e *Env) NativeBounds(base, idx int64) error {
	n := e.Arena.ReadNative(base, 0, 4)
	if idx < 0 || idx >= n {
		return &AbortError{Reason: fmt.Sprintf("native index %d out of bounds for length %d", idx, n)}
	}
	return nil
}

// constPrefix returns the bytes AppendRecord reserves eagerly for a
// record of class: its layout's constant primitive prefix.
func (e *Env) constPrefix(class string) int {
	if l := e.Layouts.Layout(class); l != nil {
		return l.Prefix
	}
	return 0
}

func (e *Env) isTopLevel(class string) bool {
	for _, t := range e.Prog.TopTypes {
		if t == class {
			return true
		}
	}
	return false
}

// AppendRecord implements appendToBuffer (Case 6). A top-level class
// opens a new record (with its 4-byte size prefix); a lower-level class
// continues the open record at its current end, which is its layout
// position under in-order construction.
func (e *Env) AppendRecord(class string) (int64, error) {
	if e.Out == nil {
		return 0, fmt.Errorf("interp: no output region for appendToBuffer")
	}
	if e.isTopLevel(class) {
		// An unsealed previous record was constructed but never emitted
		// (e.g. filtered out); abandon its bytes, as the real appender
		// would.
		prefixOff := e.Out.Len()
		e.Out.Append(serde.SizePrefixBytes)
		e.open.b.Reset(e.Out)
		e.open.class, e.open.prefixOff = class, prefixOff
		e.builder = &e.open
		e.open.b.Reserve(e.constPrefix(class))
		return e.open.b.Base(), nil
	}
	if e.builder == nil {
		return 0, &AbortError{Reason: fmt.Sprintf("sub-record %s allocated outside record construction", class)}
	}
	addr := e.builder.b.End()
	e.builder.b.Reserve(e.constPrefix(class))
	return addr, nil
}

// AppendArray implements array creation inside a record: the length slot
// and payload are appended at the current end and the array-creation
// event fires (section 3.6).
func (e *Env) AppendArray(elem model.Type, n int64) (int64, error) {
	if e.builder == nil {
		return 0, &AbortError{Reason: "array allocated outside record construction"}
	}
	if n < 0 {
		return 0, fmt.Errorf("interp: negative array length %d", n)
	}
	elemSize := 0
	if !elem.IsRef() {
		elemSize = elem.Kind.Size()
	} else if !elem.Array && elem.Class != "" {
		if sz := e.Layouts.SizeOf(elem.Class); sz != nil && sz.IsConst() {
			// Fixed-stride element records could be pre-reserved, but the
			// sequential protocol appends them one by one; reserving here
			// would displace them. Keep elemSize 0.
			elemSize = 0
		}
	}
	return e.builder.b.AppendArray(elemSize, int(n)), nil
}

// AppendString appends a string literal as an inlined char array.
func (e *Env) AppendString(s string) (int64, error) {
	if e.builder == nil {
		return 0, &AbortError{Reason: "string constant outside record construction"}
	}
	runes := []rune(s)
	slot := e.builder.b.AppendArray(2, len(runes))
	for i, r := range runes {
		e.Arena.WriteNative(slot, 4+int64(i*2), 2, int64(uint16(r)))
	}
	return slot, nil
}

// GWrite implements gWriteObject/gEmit (Case 8): a sealed record is
// handed to the sink; a pass-through input record is block-copied into
// the output region — a memcpy, not a serialization walk.
func (e *Env) GWrite(srcType model.Type, addr int64) error {
	return e.GWriteClass(RecordClass(srcType), addr)
}

// RecordClass reports the record class a transformed source variable's
// static type names, or "" when the type carries none (address-typed
// variables after transformation).
func RecordClass(t model.Type) string {
	if t.IsRef() && !t.Array {
		return t.Class
	}
	return ""
}

// GWriteClass seals (or pass-through-copies) the record at addr and
// hands it to the native sink, running the built-size speculation guard.
func (e *Env) GWriteClass(class string, addr int64) error {
	if e.NativeSink == nil {
		return fmt.Errorf("interp: no native sink configured")
	}
	if e.builder != nil && addr == e.builder.b.Base() {
		// Seal the record under construction.
		or := e.builder
		base, size, err := or.b.Seal()
		if err != nil {
			return &AbortError{Reason: err.Error()}
		}
		// Speculation guard: when the layout size is expressible, the
		// built size must match it exactly.
		if class == "" {
			class = or.class
		}
		if l := e.Layouts.Layout(or.class); l != nil && l.Size != nil {
			if want := l.Size.Eval(e.Arena, base); want != int64(size) {
				return &AbortError{Reason: fmt.Sprintf(
					"record %s built %d bytes, layout expects %d (construction order mismatch)",
					or.class, size, want)}
			}
		}
		// Patch the size prefix.
		e.Arena.WriteNative(e.Out.AddrOf(or.prefixOff), 0, 4, int64(size))
		e.builder = nil
		return e.NativeSink.WriteRecord(base, size, or.class)
	}
	// Pass-through of an existing record: its size prefix sits 4 bytes
	// before the payload base.
	size := e.Arena.ReadNative(addr-serde.SizePrefixBytes, 0, 4)
	if size < 0 {
		return &AbortError{Reason: "pass-through record has corrupt size prefix"}
	}
	na := e.Out.CopyRecord(addr-serde.SizePrefixBytes, serde.SizePrefixBytes+int(size))
	return e.NativeSink.WriteRecord(na+serde.SizePrefixBytes, int(size), class)
}

// ScanElem computes the address of element idx in an inlined array of
// variable-size records by walking element size expressions — the
// schema-guided scan that replaces pointer dereferences for tail arrays.
// A per-array cursor makes the common sequential access pattern O(1)
// amortized (records are immutable, so cached positions stay valid).
func (e *Env) ScanElem(base, idx int64, class string) (int64, error) {
	if err := e.NativeBounds(base, idx); err != nil {
		return 0, err
	}
	if e.scanCur == nil {
		e.scanCur = make(map[int64]scanCursor)
	}
	k, pos := int64(0), base+4
	if cur, ok := e.scanCur[base]; ok && cur.idx <= idx {
		k, pos = cur.idx, cur.pos
	}
	for ; k < idx; k++ {
		sz, err := e.RecordSizeAt(class, pos)
		if err != nil {
			return 0, err
		}
		pos += sz
	}
	e.scanCur[base] = scanCursor{idx: idx, pos: pos}
	return pos, nil
}

// RecordSizeAt computes the inlined size of a record of the given class
// at addr, using the layout's size expression when linear and a schema
// walk otherwise.
func (e *Env) RecordSizeAt(class string, addr int64) (int64, error) {
	if class == model.StringClassName {
		return 4 + 2*e.Arena.ReadNative(addr, 0, 4), nil
	}
	l := e.Layouts.Layout(class)
	if l == nil {
		return 0, fmt.Errorf("interp: no layout for %s in scan", class)
	}
	if l.Size != nil {
		return l.Size.Eval(e.Arena, addr), nil
	}
	// Schema walk for non-linear layouts.
	pos := addr
	for _, f := range l.Class.Fields {
		t := f.Type
		switch {
		case !t.IsRef():
			pos += int64(t.Kind.Size())
		case t.Array && !t.Elem.IsRef():
			n := e.Arena.ReadNative(pos, 0, 4)
			pos += 4 + n*int64(t.Elem.Kind.Size())
		case t.Array:
			n := e.Arena.ReadNative(pos, 0, 4)
			pos += 4
			for k := int64(0); k < n; k++ {
				sz, err := e.RecordSizeAt(t.Elem.Class, pos)
				if err != nil {
					return 0, err
				}
				pos += sz
			}
		case t.Class == model.StringClassName:
			n := e.Arena.ReadNative(pos, 0, 4)
			pos += 4 + 2*n
		default:
			sz, err := e.RecordSizeAt(t.Class, pos)
			if err != nil {
				return 0, err
			}
			pos += sz
		}
	}
	return pos - addr, nil
}

// NativeCallNative implements the whitelisted native methods over
// inlined bytes — Gerenuk's customized implementations. The interpreter
// routes every native-mode NativeCall through it; the compiled backend
// instead lowers each call site to the specific operation at compile
// time (NativeHash, NativeEquals, ...), skipping this dispatch.
func (e *Env) NativeCallNative(name, recvClass string, recv int64, args []int64) (int64, error) {
	switch name {
	case "clone":
		return recv, nil // immutable records: alias (see heap impl)
	case "length":
		return e.Arena.ReadNative(recv, 0, 4), nil
	case "charAt":
		if len(args) != 1 {
			return 0, fmt.Errorf("interp: charAt expects 1 arg")
		}
		if err := e.NativeBounds(recv, args[0]); err != nil {
			return 0, err
		}
		return e.Arena.ReadNative(recv, 4+2*args[0], 2), nil
	case "hashCode":
		return e.NativeHash(recvClass, recv)
	case "equals":
		if len(args) != 1 {
			return 0, fmt.Errorf("interp: equals expects 1 arg")
		}
		return e.NativeEquals(recvClass, recv, args[0])
	case "splitToWordCounts":
		return 0, e.SplitToWordCounts(recv)
	default:
		return 0, &AbortError{Reason: "native method " + name + " over inlined bytes"}
	}
}

// NativeHash hashes a record's inlined bytes (FNV-1a over the payload),
// matching the heap path's hash of the canonical serialized form.
func (e *Env) NativeHash(recvClass string, recv int64) (int64, error) {
	sz, err := e.RecordSizeAt(classOrString(recvClass), recv)
	if err != nil {
		return 0, err
	}
	return hashBytes(e.Arena.Slice(recv, int(sz))), nil
}

// NativeEquals compares two records' inlined bytes.
func (e *Env) NativeEquals(recvClass string, recv, other int64) (int64, error) {
	cls := classOrString(recvClass)
	s1, err := e.RecordSizeAt(cls, recv)
	if err != nil {
		return 0, err
	}
	s2, err := e.RecordSizeAt(cls, other)
	if err != nil {
		return 0, err
	}
	if s1 == s2 && string(e.Arena.Slice(recv, int(s1))) == string(e.Arena.Slice(other, int(s2))) {
		return 1, nil
	}
	return 0, nil
}

// SplitToWordCounts is the fused Tungsten tokenizer (Figure 8(b)): one
// pass over the inlined string bytes of recv, emitting a
// WordCount{word, 1} record per space-delimited word with bulk byte
// copies instead of per-character interpreted loops — the "string
// optimizations" the paper credits for Tungsten's WordCount win.
func (e *Env) SplitToWordCounts(recv int64) error {
	const cls = "WordCount"
	layout := e.Layouts.Layout(cls)
	if layout == nil {
		return fmt.Errorf("interp: splitToWordCounts requires a %s layout", cls)
	}
	nOff, ok := layout.FieldOff["n"]
	if !ok {
		return fmt.Errorf("interp: %s has no field n", cls)
	}
	n := e.Arena.ReadNative(recv, 0, 4)
	chars := e.Arena.Slice(recv+4, int(2*n))
	emit := func(start, end int64) error {
		if end <= start {
			return nil
		}
		base, err := e.AppendRecord(cls)
		if err != nil {
			return err
		}
		wlen := int(end - start)
		slot := e.builder.b.AppendArray(2, wlen)
		copy(e.Arena.Slice(slot+4, 2*wlen), chars[2*start:2*end])
		e.builder.b.WriteAt(base, nOff, 8, 1)
		return e.GWriteClass(cls, base)
	}
	var start int64
	for i := int64(0); i <= n; i++ {
		if i == n || (chars[2*i] == ' ' && chars[2*i+1] == 0) {
			if err := emit(start, i); err != nil {
				return err
			}
			start = i + 1
		}
	}
	return nil
}

func classOrString(cls string) string {
	if cls == "" {
		return model.StringClassName
	}
	return cls
}

// FetchRecord advances a native source to its next record, maintaining
// the per-attempt record count, the forced-abort experiment knob, and
// the fault-injection hook — the bookkeeping behind every GetAddress.
// It returns 0 at end of input (record addresses are never 0: they sit
// past a region's size prefix).
func (e *Env) FetchRecord(src NativeSource) (int64, error) {
	addr, more := src.NextAddr()
	if !more {
		return 0, nil
	}
	e.records++
	if e.AbortAfterRecords > 0 && e.records > e.AbortAfterRecords {
		return 0, &AbortError{Reason: "forced abort (experiment)"}
	}
	if e.RecordHook != nil {
		if err := e.RecordHook(e.records); err != nil {
			return 0, err
		}
	}
	return addr, nil
}
