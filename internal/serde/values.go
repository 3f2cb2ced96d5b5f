package serde

import (
	"encoding/binary"
	"fmt"

	"repro/internal/heap"
	"repro/internal/model"
)

// Obj is a schema-directed Go representation of a record, used by
// workload generators and tests: field name to value, where a value is
// an int64 (any integer kind), float64 (float/double), string, Obj
// (reference field), []int64 / []float64 (primitive arrays), or []Obj
// (reference arrays).
type Obj map[string]any

// Encode appends the wire form (size prefix included) of v, interpreted
// as class top, directly to out — no heap involved. Workload generators
// use it to produce "input files" in the native format.
func (c *Codec) Encode(top string, v Obj, out []byte) ([]byte, error) {
	start := len(out)
	out = append(out, 0, 0, 0, 0)
	out, err := c.encodeClass(top, v, out)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(len(out)-start-SizePrefixBytes))
	return out, nil
}

func (c *Codec) encodeClass(clsName string, v any, out []byte) ([]byte, error) {
	if clsName == model.StringClassName {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("serde: expected string for %s, got %T", clsName, v)
		}
		return encodeString(s, out), nil
	}
	obj, ok := v.(Obj)
	if !ok {
		return nil, fmt.Errorf("serde: expected Obj for class %s, got %T", clsName, v)
	}
	cls, ok := c.reg.Lookup(clsName)
	if !ok {
		return nil, fmt.Errorf("serde: unknown class %s", clsName)
	}
	for _, f := range cls.Fields {
		fv, present := obj[f.Name]
		if !present {
			return nil, fmt.Errorf("serde: missing field %s.%s", clsName, f.Name)
		}
		var err error
		out, err = c.encodeField(f, fv, out)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s.%s)", err, clsName, f.Name)
		}
	}
	return out, nil
}

func (c *Codec) encodeField(f model.Field, v any, out []byte) ([]byte, error) {
	t := f.Type
	switch {
	case !t.IsRef():
		bits, err := primBits(t.Kind, v)
		if err != nil {
			return nil, err
		}
		return appendPrim(out, bits, t.Kind.Size()), nil
	case t.Array && !t.Elem.IsRef():
		return encodePrimArray(t.Elem.Kind, v, out)
	case t.Array:
		var elems []any
		switch vv := v.(type) {
		case []Obj:
			for _, o := range vv {
				elems = append(elems, o)
			}
		case []string:
			for _, s := range vv {
				elems = append(elems, s)
			}
		case []any:
			elems = vv
		default:
			return nil, fmt.Errorf("serde: expected []Obj/[]string/[]any, got %T", v)
		}
		out = appendPrim(out, uint64(len(elems)), 4)
		for i, o := range elems {
			var err error
			out, err = c.encodeClass(t.Elem.Class, o, out)
			if err != nil {
				return nil, fmt.Errorf("%w (element %d)", err, i)
			}
		}
		return out, nil
	default:
		return c.encodeClass(t.Class, v, out)
	}
}

func encodeString(s string, out []byte) []byte {
	runes := []rune(s)
	out = appendPrim(out, uint64(len(runes)), 4)
	for _, r := range runes {
		out = appendPrim(out, uint64(uint16(r)), 2)
	}
	return out
}

func encodePrimArray(k model.Kind, v any, out []byte) ([]byte, error) {
	switch vals := v.(type) {
	case []int64:
		out = appendPrim(out, uint64(len(vals)), 4)
		for _, x := range vals {
			out = appendPrim(out, uint64(x), k.Size())
		}
		return out, nil
	case []float64:
		if k != model.KindDouble && k != model.KindFloat {
			return nil, fmt.Errorf("serde: []float64 for %s array", k)
		}
		out = appendPrim(out, uint64(len(vals)), 4)
		for _, x := range vals {
			out = appendPrim(out, heap.Float64Bits(x), k.Size())
		}
		return out, nil
	default:
		return nil, fmt.Errorf("serde: unsupported prim array value %T", v)
	}
}

func primBits(k model.Kind, v any) (uint64, error) {
	switch x := v.(type) {
	case int64:
		return uint64(x), nil
	case int:
		return uint64(x), nil
	case float64:
		if k == model.KindDouble || k == model.KindFloat {
			return heap.Float64Bits(x), nil
		}
		return 0, fmt.Errorf("serde: float value for %s field", k)
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("serde: unsupported prim value %T", v)
	}
}

// Decode reads the size-prefixed record of class top at buf[off:] into an
// Obj, returning the value and the offset past the record. Mode-agnostic
// output verification in tests uses it, and Baseline's shuffle writer
// decodes every record it is handed with it. Every read is bounded by
// the record's frame: a frame that overruns buf, a field, array or
// string that overruns the frame, and a negative length are errors.
func (c *Codec) Decode(top string, buf []byte, off int) (any, int, error) {
	if off < 0 || len(buf)-off < SizePrefixBytes {
		return nil, 0, fmt.Errorf("serde: no size prefix at offset %d of a %d-byte buffer", off, len(buf))
	}
	end := off + RecordSize(buf, off)
	if end > len(buf) {
		return nil, 0, fmt.Errorf("serde: record at offset %d overruns its %d-byte buffer", off, len(buf))
	}
	v, noff, err := c.decodeClass(top, buf[:end:end], off+SizePrefixBytes)
	if err != nil {
		return nil, 0, err
	}
	if noff != end {
		return nil, 0, fmt.Errorf("serde: decode of %s consumed %d, prefix says %d",
			top, noff-off-SizePrefixBytes, end-off-SizePrefixBytes)
	}
	return v, noff, nil
}

// The decoders below read a record whose frame ends at len(buf).

func (c *Codec) decodeClass(clsName string, buf []byte, off int) (any, int, error) {
	if clsName == model.StringClassName {
		return decodeString(buf, off)
	}
	cls, ok := c.reg.Lookup(clsName)
	if !ok {
		return nil, 0, fmt.Errorf("serde: unknown class %s", clsName)
	}
	obj := make(Obj, len(cls.Fields))
	for _, f := range cls.Fields {
		v, noff, err := c.decodeField(f, buf, off)
		if err != nil {
			return nil, 0, fmt.Errorf("%w (field %s.%s)", err, clsName, f.Name)
		}
		obj[f.Name] = v
		off = noff
	}
	return obj, off, nil
}

func (c *Codec) decodeField(f model.Field, buf []byte, off int) (any, int, error) {
	t := f.Type
	switch {
	case !t.IsRef():
		bits, noff, err := readPrim(buf, off, t.Kind.Size())
		return primValue(t.Kind, bits), noff, err
	case t.Array && !t.Elem.IsRef():
		k := t.Elem.Kind
		n, off, err := readLen(buf, off, k.Size())
		if err != nil {
			return nil, 0, err
		}
		if k == model.KindDouble || k == model.KindFloat {
			vals := make([]float64, n)
			for i := range vals {
				bits, _, _ := readPrim(buf, off, k.Size())
				vals[i] = heap.Float64FromBits(bits)
				off += k.Size()
			}
			return vals, off, nil
		}
		vals := make([]int64, n)
		for i := range vals {
			bits, _, _ := readPrim(buf, off, k.Size())
			vals[i] = signExtend(bits, k)
			off += k.Size()
		}
		return vals, off, nil
	case t.Array:
		// Every record class has a field, so an element takes a byte or
		// more: the length is bounded like a byte array's.
		n, off, err := readLen(buf, off, 1)
		if err != nil {
			return nil, 0, err
		}
		elems := make([]any, 0, n)
		for i := 0; i < n; i++ {
			v, noff, err := c.decodeClass(t.Elem.Class, buf, off)
			if err != nil {
				return nil, 0, err
			}
			off = noff
			elems = append(elems, v)
		}
		return elems, off, nil
	default:
		return c.decodeClass(t.Class, buf, off)
	}
}

func decodeString(buf []byte, off int) (string, int, error) {
	n, off, err := readLen(buf, off, 2)
	if err != nil {
		return "", 0, err
	}
	runes := make([]rune, n)
	for i := 0; i < n; i++ {
		runes[i] = rune(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
	}
	return string(runes), off, nil
}

// readLen reads an array or string length at buf[off:] and checks that
// its elements, elemSize bytes each, fit before the frame's end. It
// returns the length and the offset of the first element.
func readLen(buf []byte, off, elemSize int) (int, int, error) {
	bits, off, err := readPrim(buf, off, 4)
	if err != nil {
		return 0, 0, err
	}
	n := int(int32(bits))
	if n < 0 || n > (len(buf)-off)/elemSize {
		return 0, 0, fmt.Errorf("serde: length %d at offset %d overruns the record's end at %d", n, off-4, len(buf))
	}
	return n, off, nil
}

// readPrim reads a little-endian value of sz bytes at buf[off:],
// returning it and the offset past it.
func readPrim(buf []byte, off, sz int) (uint64, int, error) {
	if off < 0 || sz > len(buf)-off {
		return 0, 0, fmt.Errorf("serde: %d-byte field at offset %d overruns the record's end at %d", sz, off, len(buf))
	}
	var v uint64
	for i := 0; i < sz; i++ {
		v |= uint64(buf[off+i]) << (8 * i)
	}
	return v, off + sz, nil
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

func primValue(k model.Kind, bits uint64) any {
	if k == model.KindDouble || k == model.KindFloat {
		return heap.Float64FromBits(bits)
	}
	return signExtend(bits, k)
}

// Build allocates the heap object graph for v (class top) and returns
// the root address. The rootHold slot, if non-nil, receives intermediate
// roots so the caller need not pre-register anything.
func (c *Codec) Build(h *heap.Heap, top string, v Obj) (heap.Addr, error) {
	// Encode then deserialize: reuses the rooted deserializer so the
	// build survives GCs triggered mid-construction.
	wire, err := c.Encode(top, v, nil)
	if err != nil {
		return 0, err
	}
	a, _, err := c.Deserialize(h, wire, 0, top)
	return a, err
}

// ReadBack converts the heap object graph rooted at a back into an Obj.
func (c *Codec) ReadBack(h *heap.Heap, a heap.Addr, top string) (any, error) {
	wire, err := c.Serialize(h, a, top, nil)
	if err != nil {
		return nil, err
	}
	v, _, err := c.Decode(top, wire, 0)
	return v, err
}
