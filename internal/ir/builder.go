package ir

import (
	"fmt"

	"repro/internal/model"
)

// FB is a fluent function builder. It keeps a stack of statement blocks
// so structured control flow reads naturally:
//
//	b := ir.NewFuncBuilder(prog, "double", model.Prim(model.KindDouble))
//	x := b.Param("x", model.Prim(model.KindDouble))
//	two := b.FConst(2)
//	b.Ret(b.Bin(OpMul, x, two))
//	f := b.Done()
type FB struct {
	prog   *Program
	f      *Func
	blocks []*[]Stmt
	tmp    int
}

// NewFuncBuilder starts building a function with the given return type
// (zero Type for void). The finished function is added to prog by Done.
func NewFuncBuilder(prog *Program, name string, ret model.Type) *FB {
	f := &Func{Name: name, Ret: ret}
	b := &FB{prog: prog, f: f}
	b.blocks = []*[]Stmt{&f.Body}
	return b
}

// Done finalizes the function and registers it with the program.
func (b *FB) Done() *Func {
	if len(b.blocks) != 1 {
		panic(fmt.Sprintf("ir: unbalanced blocks in %q", b.f.Name))
	}
	b.prog.Add(b.f)
	return b.f
}

// Param declares a parameter.
func (b *FB) Param(name string, t model.Type) *Var {
	v := b.f.NewVar(name, t)
	b.f.Params = append(b.f.Params, v)
	return v
}

// Local declares a named local variable.
func (b *FB) Local(name string, t model.Type) *Var { return b.f.NewVar(name, t) }

// Temp declares an anonymous temporary.
func (b *FB) Temp(t model.Type) *Var {
	b.tmp++
	return b.f.NewVar(fmt.Sprintf("t%d", b.tmp), t)
}

func (b *FB) emit(s Stmt) { *b.blocks[len(b.blocks)-1] = append(*b.blocks[len(b.blocks)-1], s) }

// Emit appends an arbitrary prebuilt statement.
func (b *FB) Emit(s Stmt) { b.emit(s) }

// IConst yields a fresh long temp holding an integer constant.
func (b *FB) IConst(v int64) *Var {
	t := b.Temp(model.Prim(model.KindLong))
	b.emit(&ConstInt{Dst: t, Val: v})
	return t
}

// FConst yields a fresh double temp holding a floating constant.
func (b *FB) FConst(v float64) *Var {
	t := b.Temp(model.Prim(model.KindDouble))
	b.emit(&ConstFloat{Dst: t, Val: v})
	return t
}

// Assign emits dst = src.
func (b *FB) Assign(dst, src *Var) { b.emit(&Assign{Dst: dst, Src: src}) }

// Bin yields l op r in a fresh temp typed like l.
func (b *FB) Bin(op BinKind, l, r *Var) *Var {
	t := b.Temp(l.Type)
	b.emit(&BinOp{Dst: t, Op: op, L: l, R: r})
	return t
}

// BinTo emits dst = l op r.
func (b *FB) BinTo(dst *Var, op BinKind, l, r *Var) {
	b.emit(&BinOp{Dst: dst, Op: op, L: l, R: r})
}

// Un yields op x in a fresh temp. Conversions pick the converted type.
func (b *FB) Un(op UnKind, x *Var) *Var {
	t := x.Type
	switch op {
	case OpI2D:
		t = model.Prim(model.KindDouble)
	case OpD2I:
		t = model.Prim(model.KindLong)
	case OpSqrt, OpExp, OpLog:
		t = model.Prim(model.KindDouble)
	}
	v := b.Temp(t)
	b.emit(&UnOp{Dst: v, Op: op, X: x})
	return v
}

// Load yields obj.field in a fresh temp with the field's declared type.
func (b *FB) Load(obj *Var, field string) *Var {
	cls := b.classOf(obj)
	f := cls.MustField(field)
	t := b.Temp(f.Type)
	b.emit(&FieldLoad{Dst: t, Obj: obj, Class: cls.Name, Field: field})
	return t
}

// Store emits obj.field = src.
func (b *FB) Store(obj *Var, field string, src *Var) {
	cls := b.classOf(obj)
	b.emit(&FieldStore{Obj: obj, Class: cls.Name, Field: field, Src: src})
}

func (b *FB) classOf(obj *Var) *model.Class {
	if !obj.Type.IsRef() || obj.Type.Array {
		panic(fmt.Sprintf("ir: %s is not an object (type %s)", obj, obj.Type))
	}
	return b.prog.Reg.MustLookup(obj.Type.Class)
}

// Elem yields arr[idx] in a fresh temp of the element type.
func (b *FB) Elem(arr, idx *Var) *Var {
	if !arr.Type.Array {
		panic(fmt.Sprintf("ir: %s is not an array", arr))
	}
	t := b.Temp(*arr.Type.Elem)
	b.emit(&ArrayLoad{Dst: t, Arr: arr, Idx: idx})
	return t
}

// SetElem emits arr[idx] = src.
func (b *FB) SetElem(arr, idx, src *Var) { b.emit(&ArrayStore{Arr: arr, Idx: idx, Src: src}) }

// Len yields arr.length in a fresh long temp.
func (b *FB) Len(arr *Var) *Var {
	t := b.Temp(model.Prim(model.KindLong))
	b.emit(&ArrayLen{Dst: t, Arr: arr})
	return t
}

// New yields a fresh instance of the class.
func (b *FB) New(class string) *Var {
	t := b.Temp(model.Object(class))
	b.emit(&New{Dst: t, Class: class})
	return t
}

// NewArr yields a fresh array of elem with the given length.
func (b *FB) NewArr(elem model.Type, n *Var) *Var {
	t := b.Temp(model.ArrayOf(elem))
	b.emit(&NewArray{Dst: t, Elem: elem, Len: n})
	return t
}

// CallV emits a void call.
func (b *FB) CallV(fn string, args ...*Var) { b.emit(&Call{Fn: fn, Args: args}) }

// Call yields fn(args...) in a fresh temp of type ret.
func (b *FB) Call(fn string, ret model.Type, args ...*Var) *Var {
	t := b.Temp(ret)
	b.emit(&Call{Dst: t, Fn: fn, Args: args})
	return t
}

// Native yields recv.name(args...) for a runtime-native method.
func (b *FB) Native(name string, ret model.Type, recv *Var, args ...*Var) *Var {
	t := b.Temp(ret)
	b.emit(&NativeCall{Dst: t, Name: name, Recv: recv, Args: args, RecvClass: recv.Type.Class})
	return t
}

// Synchronized wraps body in MonitorEnter/MonitorExit on obj.
func (b *FB) Synchronized(obj *Var, body func()) {
	b.emit(&MonitorEnter{Obj: obj})
	body()
	b.emit(&MonitorExit{Obj: obj})
}

// If emits a two-way branch; elseBody may be nil.
func (b *FB) If(op CmpKind, l, r *Var, thenBody func(), elseBody func()) {
	s := &If{Cond: Cond{Op: op, L: l, R: r}}
	b.emit(s)
	b.blocks = append(b.blocks, &s.Then)
	thenBody()
	b.blocks = b.blocks[:len(b.blocks)-1]
	if elseBody != nil {
		b.blocks = append(b.blocks, &s.Else)
		elseBody()
		b.blocks = b.blocks[:len(b.blocks)-1]
	}
}

// While emits a loop with the given condition.
func (b *FB) While(op CmpKind, l, r *Var, body func()) {
	s := &While{Cond: Cond{Op: op, L: l, R: r}}
	b.emit(s)
	b.blocks = append(b.blocks, &s.Body)
	body()
	b.blocks = b.blocks[:len(b.blocks)-1]
}

// For emits the canonical counted loop for i := 0; i < n; i++.
func (b *FB) For(n *Var, body func(i *Var)) {
	i := b.Temp(model.Prim(model.KindLong))
	b.emit(&ConstInt{Dst: i, Val: 0})
	one := b.IConst(1)
	s := &While{Cond: Cond{Op: CmpLT, L: i, R: n}}
	b.emit(s)
	b.blocks = append(b.blocks, &s.Body)
	body(i)
	b.emit(&BinOp{Dst: i, Op: OpAdd, L: i, R: one})
	b.blocks = b.blocks[:len(b.blocks)-1]
}

// Ret emits a return of v (nil for void).
func (b *FB) Ret(v *Var) { b.emit(&Return{Val: v}) }

// ReadRecord yields readObject() from the named source — a SER start.
func (b *FB) ReadRecord(source string, t model.Type) *Var {
	v := b.Temp(t)
	b.emit(&Deserialize{Dst: v, Source: source})
	return v
}

// WriteRecord emits writeObject(v) to the named sink — a SER end.
func (b *FB) WriteRecord(sink string, v *Var) { b.emit(&Serialize{Src: v, Sink: sink}) }

// EmitRecord hands v to the engine output collector.
func (b *FB) EmitRecord(v *Var) { b.emit(&Emit{Src: v}) }
