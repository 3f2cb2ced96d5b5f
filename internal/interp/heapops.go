package interp

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
)

// heapFieldLoad executes dst = obj.field against the simulated heap,
// paying header-relative addressing and (for chains) pointer chasing.
func (in *Interp) heapFieldLoad(t *ir.FieldLoad, obj heap.Addr) (int64, error) {
	if obj == 0 {
		return 0, fmt.Errorf("interp: null pointer reading %s.%s", t.Class, t.Field)
	}
	f := t.R
	if f == nil {
		cls := in.env.Prog.Reg.MustLookup(t.Class)
		ff := cls.MustField(t.Field)
		f = &ff
	}
	if f.Type.IsRef() {
		return in.env.Heap.GetRef(obj, f.Offset), nil
	}
	return signExtend(in.env.Heap.GetPrim(obj, f.Offset, f.Type.Kind), f.Type.Kind), nil
}

// heapFieldStore executes obj.field = src, running the write barrier for
// reference stores.
func (in *Interp) heapFieldStore(t *ir.FieldStore, obj, src int64) error {
	if obj == 0 {
		return fmt.Errorf("interp: null pointer writing %s.%s", t.Class, t.Field)
	}
	f := t.R
	if f == nil {
		cls := in.env.Prog.Reg.MustLookup(t.Class)
		ff := cls.MustField(t.Field)
		f = &ff
	}
	if f.Type.IsRef() {
		in.env.Heap.SetRef(obj, f.Offset, src)
		return nil
	}
	in.env.Heap.SetPrim(obj, f.Offset, f.Type.Kind, uint64(src))
	return nil
}

// heapString allocates a String object with its char array.
func (in *Interp) heapString(s string) (heap.Addr, error) {
	if in.env.Heap == nil {
		return 0, fmt.Errorf("interp: string constant requires a heap")
	}
	h := in.env.Heap
	runes := []rune(s)
	arr, err := h.AllocArray(model.KindChar, len(runes))
	if err != nil {
		return 0, err
	}
	// Root the array across the String allocation.
	hold := arr
	remove := h.AddRoots(heap.RootFunc(func(visit func(*heap.Addr)) { visit(&hold) }))
	for i, r := range runes {
		h.ArraySetPrim(hold, i, model.KindChar, uint64(uint16(r)))
	}
	strCls := in.env.Prog.Reg.MustLookup(model.StringClassName)
	obj, err := h.AllocObject(strCls)
	remove()
	if err != nil {
		return 0, err
	}
	h.SetRef(obj, strCls.MustField("chars").Offset, hold)
	return obj, nil
}

// deserialize executes a = readObject(): pulls the next wire record from
// the source and materializes it as heap objects — the cost Gerenuk
// eliminates. Returns 0 at end of input.
func (in *Interp) deserialize(t *ir.Deserialize) (int64, error) {
	src, ok := in.env.Sources[t.Source]
	if !ok {
		return 0, fmt.Errorf("interp: no source %q", t.Source)
	}
	buf, off, more := src.NextWire()
	if !more {
		return 0, nil
	}
	start := time.Now()
	a, _, err := in.env.Codec.Deserialize(in.env.Heap, buf, off, src.Class())
	in.env.DeserTime += time.Since(start)
	in.env.DeserBytes += int64(serde.RecordSize(buf, off))
	if err != nil {
		return 0, err
	}
	in.env.records++
	if in.env.RecordHook != nil {
		if err := in.env.RecordHook(in.env.records); err != nil {
			return 0, err
		}
	}
	return a, nil
}

// serialize executes writeObject(a): walks the object graph into wire
// bytes and hands them to the sink.
func (in *Interp) serialize(class string, a int64) error {
	if in.env.Sink == nil {
		return fmt.Errorf("interp: no sink configured")
	}
	start := time.Now()
	wire, err := in.env.Codec.Serialize(in.env.Heap, a, class, nil)
	in.env.SerTime += time.Since(start)
	in.env.SerBytes += int64(len(wire))
	if err != nil {
		return err
	}
	return in.env.Sink.WriteWire(wire, class)
}

// nativeCall dispatches the whitelisted runtime-native methods in both
// modes. The heap implementations walk object graphs (pointer chasing);
// the native implementations operate directly on inlined bytes — the
// customized implementations the paper provides (section 3.4).
func (in *Interp) nativeCall(t *ir.NativeCall, f *frame) (int64, error) {
	recv := f.get(t.Recv)
	if in.env.Mode == ModeNative {
		var args []int64
		if len(t.Args) > 0 {
			args = make([]int64, len(t.Args))
			for i, a := range t.Args {
				args[i] = f.get(a)
			}
		}
		return in.env.NativeCallNative(t.Name, t.RecvClass, recv, args)
	}
	switch t.Name {
	case "clone":
		// Data records are immutable (enforced by the violation
		// conditions), so clone can safely alias in both modes; the JVM
		// identity difference is unobservable without mutation or
		// metadata use, which both abort.
		return recv, nil
	case "length":
		return in.heapStringLen(recv)
	case "charAt":
		if len(t.Args) != 1 {
			return 0, fmt.Errorf("interp: charAt expects 1 arg")
		}
		return in.heapCharAt(recv, f.get(t.Args[0]))
	case "hashCode":
		wire, err := in.env.Codec.Serialize(in.env.Heap, recv, t.RecvClass, nil)
		if err != nil {
			return 0, err
		}
		return hashBytes(wire[4:]), nil
	case "equals":
		if len(t.Args) != 1 {
			return 0, fmt.Errorf("interp: equals expects 1 arg")
		}
		w1, err := in.env.Codec.Serialize(in.env.Heap, recv, t.RecvClass, nil)
		if err != nil {
			return 0, err
		}
		w2, err := in.env.Codec.Serialize(in.env.Heap, f.get(t.Args[0]), t.RecvClass, nil)
		if err != nil {
			return 0, err
		}
		if string(w1) == string(w2) {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("interp: native method %q has no heap implementation", t.Name)
	}
}

func (in *Interp) heapStringLen(s heap.Addr) (int64, error) {
	if s == 0 {
		return 0, fmt.Errorf("interp: length() on null string")
	}
	chars := in.env.Heap.GetRef(s, in.strCharsOff)
	return int64(in.env.Heap.ArrayLen(chars)), nil
}

func (in *Interp) heapCharAt(s heap.Addr, i int64) (int64, error) {
	if s == 0 {
		return 0, fmt.Errorf("interp: charAt() on null string")
	}
	chars := in.env.Heap.GetRef(s, in.strCharsOff)
	return int64(in.env.Heap.ArrayGetPrim(chars, int(i), model.KindChar)), nil
}

// hashBytes is the canonical record hash: FNV-1a over inlined payload
// bytes. Both modes produce identical hashes because the heap
// implementation hashes the canonical serialized form.
func hashBytes(b []byte) int64 {
	h := fnv.New64a()
	h.Write(b)
	return int64(h.Sum64())
}
