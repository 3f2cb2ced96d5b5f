// Package dsa implements the data structure analyzer of paper section
// 3.3: given a user-annotated top-level data type T, it explores every
// class referenced directly or transitively by T and computes, for each
// primitive- or array-typed field, its offset inside the inlined
// native-buffer representation of T.
//
// Offsets are computed bottom-up by a DFS over the class hierarchy. A
// class whose fields all have statically known sizes gets constant
// offsets; a class containing a variable-length array gets symbolic
// offsets (expr.Expr) for everything laid out after the array, exactly as
// in the paper's example: for class C { int a; long[] b; double c; } the
// offset of c is 4 + 4 + 8*readNative(BASE, 4, 4).
//
// The inlined format has no pointers: a reference field's "value" is the
// sub-record inlined at the field's offset; an array is a 4-byte length
// followed by its elements back to back; a string is treated as a char
// array (the paper's special case). The analyzer rejects (a) non-tree
// shapes — class-level recursion cannot be represented without pointers —
// and (b) layouts it cannot express with linear offset expressions, such
// as a variable-size-element array followed by more fields. Rejected top
// types simply stay on the heap path; the compiler will not transform
// statements touching them.
package dsa

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/model"
)

// Layout is the inlined layout of one class, offsets relative to the
// start of a record of this class.
type Layout struct {
	Class *model.Class
	// FieldOff maps each field name to the offset of its inlined
	// storage: the value itself for primitives, the 4-byte length slot
	// for arrays and strings, the sub-record base for reference fields.
	FieldOff map[string]*expr.Expr
	// Size is the total inlined size of a record, or nil when the size
	// is not expressible as a linear expression (variable-size-element
	// array in tail position). Records of such classes are still
	// constructible; their size is carried by the top-level record's
	// size prefix.
	Size *expr.Expr
	// Fixed reports whether Size is a compile-time constant.
	Fixed bool
	// Prefix is the byte length of the leading primitive fields at
	// constant offsets, which appendToBuffer reserves when it opens a
	// record of the class; arrays and sub-records reserve their own.
	Prefix int
}

// Result holds the layouts for every class reachable from the analyzed
// top-level types, plus which top types were accepted.
type Result struct {
	Layouts map[string]*Layout
	// Accepted lists top-level types whose whole hierarchy was
	// representable; programs using rejected types keep the heap path.
	Accepted []string
	// Rejected maps top-level type names to the reason they cannot be
	// inlined.
	Rejected map[string]string
}

// Layout returns the layout for a class name, or nil.
func (r *Result) Layout(name string) *Layout { return r.Layouts[name] }

// IsAccepted reports whether the named top type was accepted.
func (r *Result) IsAccepted(name string) bool {
	for _, t := range r.Accepted {
		if t == name {
			return true
		}
	}
	return false
}

// InHierarchy reports whether the class participates in any accepted
// hierarchy (i.e. has a layout).
func (r *Result) InHierarchy(name string) bool {
	_, ok := r.Layouts[name]
	return ok
}

// analyzer carries DFS state.
type analyzer struct {
	reg      *model.Registry
	layouts  map[string]*Layout
	visiting map[string]bool // cycle detection
}

// Analyze computes layouts for the given top-level types over the
// registry. Each top type's hierarchy is explored by DFS; failures
// reject only that top type.
func Analyze(reg *model.Registry, topTypes []string) *Result {
	a := &analyzer{
		reg:      reg,
		layouts:  make(map[string]*Layout),
		visiting: make(map[string]bool),
	}
	res := &Result{Layouts: a.layouts, Rejected: make(map[string]string)}
	seen := make(map[string]bool)
	for _, t := range topTypes {
		if seen[t] {
			continue
		}
		seen[t] = true
		if _, err := a.classLayout(t); err != nil {
			res.Rejected[t] = err.Error()
			continue
		}
		res.Accepted = append(res.Accepted, t)
	}
	sort.Strings(res.Accepted)
	return res
}

// classLayout computes (and memoizes) the layout of one class.
func (a *analyzer) classLayout(name string) (*Layout, error) {
	if l, ok := a.layouts[name]; ok {
		return l, nil
	}
	if a.visiting[name] {
		return nil, fmt.Errorf("dsa: class %s is recursive — not a tree shape", name)
	}
	cls, ok := a.reg.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("dsa: unknown class %s", name)
	}
	a.visiting[name] = true
	defer delete(a.visiting, name)

	l := &Layout{Class: cls, FieldOff: make(map[string]*expr.Expr)}
	cur := expr.Konst(0)
	fixed, inPrefix := true, true
	for i, f := range cls.Fields {
		if cur == nil {
			return nil, fmt.Errorf(
				"dsa: class %s: field %s follows a variable-size-element array; offset not expressible",
				name, f.Name)
		}
		l.FieldOff[f.Name] = cur
		if inPrefix = inPrefix && cur.IsConst() && !f.Type.IsRef(); inPrefix {
			l.Prefix = int(cur.ConstValue()) + f.Type.Kind.Size()
		}
		next, fldFixed, err := a.advance(cur, f.Type, name, f.Name)
		if err != nil {
			return nil, err
		}
		cur = next
		fixed = fixed && fldFixed
		_ = i
	}
	l.Size = cur
	l.Fixed = fixed && cur != nil && cur.IsConst()
	a.layouts[name] = l
	return l, nil
}

// advance returns the offset immediately after a field of type t laid
// out at cur, or nil when no following field can be placed. fixed
// reports whether the field's inlined size is constant.
func (a *analyzer) advance(cur *expr.Expr, t model.Type, owner, field string) (*expr.Expr, bool, error) {
	switch {
	case !t.IsRef():
		return cur.AddConst(int64(t.Kind.Size())), true, nil

	case t.Array && t.Elem.Kind != model.KindRef:
		// Primitive array: [len:4][len * elemSize].
		lenTerm := expr.ReadNative(int64(t.Elem.Kind.Size()), cur, 4)
		return cur.AddConst(4).Add(lenTerm), false, nil

	case t.Array && t.Elem.Array:
		return nil, false, fmt.Errorf("dsa: class %s: field %s is an array of arrays — unsupported", owner, field)

	case t.Array: // array of class references
		el, err := a.classLayout(t.Elem.Class)
		if err != nil {
			return nil, false, err
		}
		if el.Size != nil && el.Size.IsConst() {
			// Fixed-stride inlined element records.
			lenTerm := expr.ReadNative(el.Size.ConstValue(), cur, 4)
			return cur.AddConst(4).Add(lenTerm), false, nil
		}
		// Variable-size elements: representable only in tail position.
		// Element access degrades to a schema-guided scan at run time.
		return nil, false, nil

	case t.Class == model.StringClassName:
		// Strings are char arrays (paper special case): [len:4][len*2].
		// Register the String layout itself so string allocations on the
		// data path are recognized as hierarchy members.
		if _, ok := a.reg.Lookup(model.StringClassName); ok {
			if _, err := a.classLayout(model.StringClassName); err != nil {
				return nil, false, err
			}
		}
		lenTerm := expr.ReadNative(2, cur, 4)
		return cur.AddConst(4).Add(lenTerm), false, nil

	default: // reference to a class: sub-record inlined here
		sub, err := a.classLayout(t.Class)
		if err != nil {
			return nil, false, err
		}
		if sub.Size == nil {
			return nil, false, nil // tail-only sub-record
		}
		return cur.Add(rebase(sub.Size, cur)), sub.Fixed, nil
	}
}

// rebase rewrites an expression whose readNative offsets are relative to
// a sub-record base so they become relative to the enclosing record base
// at offset delta: every term offset o becomes delta + rebase(o).
func rebase(e *expr.Expr, delta *expr.Expr) *expr.Expr {
	if e.IsConst() {
		return e
	}
	out := &expr.Expr{Const: e.Const}
	for _, t := range e.Terms {
		out.Terms = append(out.Terms, expr.Term{
			Scale: t.Scale,
			Off:   delta.Add(rebase(t.Off, delta)),
			Size:  t.Size,
		})
	}
	return out
}

// FieldOffsetIn returns the offset expression of a field of class cls
// relative to cls's own record base.
func (r *Result) FieldOffsetIn(cls, field string) (*expr.Expr, bool) {
	l := r.Layouts[cls]
	if l == nil {
		return nil, false
	}
	e, ok := l.FieldOff[field]
	return e, ok
}

// SizeOf returns the size expression of a class, or nil if non-linear or
// unknown.
func (r *Result) SizeOf(cls string) *expr.Expr {
	l := r.Layouts[cls]
	if l == nil {
		return nil
	}
	return l.Size
}
