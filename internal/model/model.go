// Package model defines the class schemas shared by the simulated managed
// heap, the Gerenuk compiler and the inline serializer.
//
// A ClassDef describes a user-visible data type (e.g. LabeledPoint) as a
// sequence of typed fields. The Registry compiles definitions into Class
// values carrying the JVM-style heap layout: a 16-byte object header
// followed by fields at aligned offsets, with references taking 8 bytes.
// These layout constants reproduce the space accounting used in the
// paper's Figure 4 (8x16-byte headers, 8-byte references).
package model

import (
	"fmt"
	"sort"
)

// Kind enumerates the primitive value kinds plus references.
type Kind uint8

// Value kinds. KindRef covers both object and array references.
const (
	KindInvalid Kind = iota
	KindBool
	KindByte
	KindChar
	KindShort
	KindInt
	KindLong
	KindFloat
	KindDouble
	KindRef
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindBool:    "bool",
	KindByte:    "byte",
	KindChar:    "char",
	KindShort:   "short",
	KindInt:     "int",
	KindLong:    "long",
	KindFloat:   "float",
	KindDouble:  "double",
	KindRef:     "ref",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Size returns the number of bytes a value of this kind occupies, both in
// the simulated heap and in the inlined native format.
func (k Kind) Size() int {
	switch k {
	case KindBool, KindByte:
		return 1
	case KindChar, KindShort:
		return 2
	case KindInt, KindFloat:
		return 4
	case KindLong, KindDouble, KindRef:
		return 8
	default:
		return 0
	}
}

// Layout constants of the simulated managed heap. They mirror a 64-bit
// HotSpot-style JVM without compressed oops: a two-word object header and
// word-sized references. The paper's Figure 4 arithmetic (8x16 + 9x8 bytes
// of pure overhead for three LabeledPoints) uses exactly these values.
const (
	// HeaderSize is the per-object header: one word of class/flags
	// metadata and one word of identity hash / lock state.
	HeaderSize = 16
	// ArrayLengthSize is the int32 length slot that follows an array
	// object's header.
	ArrayLengthSize = 4
	// ArrayDataOffset is where array element storage begins (header +
	// length + padding to an 8-byte boundary).
	ArrayDataOffset = HeaderSize + 8
	// RefSize is the size of an object reference field or array slot.
	RefSize = 8
	// ObjectAlign is the allocation granule.
	ObjectAlign = 8
)

// Type describes the static type of a field, local or array element.
type Type struct {
	Kind  Kind   // KindRef for object and array types
	Class string // class name when Kind==KindRef and Array==false
	Array bool   // true for array types
	Elem  *Type  // element type when Array==true
}

// Prim returns a primitive type of kind k.
func Prim(k Kind) Type { return Type{Kind: k} }

// Object returns a reference type to the named class.
func Object(class string) Type { return Type{Kind: KindRef, Class: class} }

// ArrayOf returns an array type with the given element type.
func ArrayOf(elem Type) Type {
	e := elem
	return Type{Kind: KindRef, Array: true, Elem: &e}
}

// IsRef reports whether the type is a reference (object or array) type.
func (t Type) IsRef() bool { return t.Kind == KindRef }

// IsPrimArray reports whether t is an array of primitives.
func (t Type) IsPrimArray() bool { return t.Array && t.Elem != nil && t.Elem.Kind != KindRef }

// IsRefArray reports whether t is an array of references.
func (t Type) IsRefArray() bool { return t.Array && t.Elem != nil && t.Elem.Kind == KindRef }

func (t Type) String() string {
	if t.Array {
		return t.Elem.String() + "[]"
	}
	if t.Kind == KindRef {
		return t.Class
	}
	return t.Kind.String()
}

// Equal reports deep type equality.
func (t Type) Equal(o Type) bool {
	if t.Kind != o.Kind || t.Class != o.Class || t.Array != o.Array {
		return false
	}
	if t.Array {
		return t.Elem.Equal(*o.Elem)
	}
	return true
}

// FieldDef declares one field of a class.
type FieldDef struct {
	Name string
	Type Type
}

// ClassDef declares a data type by name and field list.
type ClassDef struct {
	Name   string
	Fields []FieldDef
}

// Field is a compiled field: its definition plus the byte offset of its
// storage inside a heap object of the owning class.
type Field struct {
	FieldDef
	// Offset is the byte offset from the object base in the simulated
	// heap (header included).
	Offset int
	// Index is the declaration position.
	Index int
}

// Class is a compiled class with its heap layout.
type Class struct {
	Name   string
	ID     uint32
	Fields []Field
	// Size is the total heap size of an instance, header included and
	// aligned to ObjectAlign.
	Size int

	byName map[string]int
}

// Field returns the compiled field with the given name.
func (c *Class) Field(name string) (Field, bool) {
	i, ok := c.byName[name]
	if !ok {
		return Field{}, false
	}
	return c.Fields[i], true
}

// MustField is Field, panicking on unknown names. Intended for test and
// application-definition code where the schema is statically known.
func (c *Class) MustField(name string) Field {
	f, ok := c.Field(name)
	if !ok {
		panic(fmt.Sprintf("model: class %s has no field %q", c.Name, name))
	}
	return f
}

// Registry holds the compiled classes of one program.
type Registry struct {
	byName map[string]*Class
	byID   []*Class
}

// NewRegistry returns an empty registry. Class IDs start at 1; ID 0 is
// reserved to mean "no class" in heap headers.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Class), byID: []*Class{nil}}
}

// Define compiles and registers a class definition, computing its heap
// layout. Fields are laid out in declaration order at offsets aligned to
// the field size, starting after the object header; the instance size is
// rounded up to ObjectAlign. Define panics on duplicate names, unknown
// kinds, or empty definitions, since schemas are static program inputs.
func (r *Registry) Define(def ClassDef) *Class {
	if def.Name == "" {
		panic("model: class with empty name")
	}
	if _, dup := r.byName[def.Name]; dup {
		panic(fmt.Sprintf("model: duplicate class %q", def.Name))
	}
	c := &Class{
		Name:   def.Name,
		ID:     uint32(len(r.byID)),
		byName: make(map[string]int, len(def.Fields)),
	}
	off := HeaderSize
	for i, fd := range def.Fields {
		if fd.Name == "" {
			panic(fmt.Sprintf("model: class %q: field %d has empty name", def.Name, i))
		}
		if _, dup := c.byName[fd.Name]; dup {
			panic(fmt.Sprintf("model: class %q: duplicate field %q", def.Name, fd.Name))
		}
		sz := fieldSize(fd.Type)
		if sz == 0 {
			panic(fmt.Sprintf("model: class %q: field %q has invalid type", def.Name, fd.Name))
		}
		off = align(off, sz)
		c.Fields = append(c.Fields, Field{FieldDef: fd, Offset: off, Index: i})
		c.byName[fd.Name] = i
		off += sz
	}
	c.Size = align(off, ObjectAlign)
	r.byName[def.Name] = c
	r.byID = append(r.byID, c)
	return c
}

func fieldSize(t Type) int {
	if t.IsRef() {
		return RefSize
	}
	return t.Kind.Size()
}

func align(n, a int) int { return (n + a - 1) &^ (a - 1) }

// Lookup returns the class with the given name.
func (r *Registry) Lookup(name string) (*Class, bool) {
	c, ok := r.byName[name]
	return c, ok
}

// MustLookup is Lookup, panicking on unknown names.
func (r *Registry) MustLookup(name string) *Class {
	c, ok := r.byName[name]
	if !ok {
		panic(fmt.Sprintf("model: unknown class %q", name))
	}
	return c
}

// ByID returns the class with the given ID, or nil.
func (r *Registry) ByID(id uint32) *Class {
	if id == 0 || int(id) >= len(r.byID) {
		return nil
	}
	return r.byID[id]
}

// Names returns the registered class names in sorted order.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered classes.
func (r *Registry) Len() int { return len(r.byName) }

// ArraySize returns the heap size of an array object holding n elements
// of the given kind, aligned to ObjectAlign.
func ArraySize(elem Kind, n int) int {
	return align(ArrayDataOffset+elem.Size()*n, ObjectAlign)
}

// ArrayRefSize returns the heap size of an array of n references.
func ArrayRefSize(n int) int {
	return align(ArrayDataOffset+RefSize*n, ObjectAlign)
}

// StringClassName is the reserved class name used for string data. The
// data structure analyzer treats strings as char arrays (paper section
// 3.3, "Special Cases"); the heap represents a string as an object with a
// single field "chars" referencing a char array.
const StringClassName = "java/lang/String"

// DefineString registers the built-in string class in the registry and
// returns it. Safe to call once per registry.
func (r *Registry) DefineString() *Class {
	return r.Define(ClassDef{
		Name: StringClassName,
		Fields: []FieldDef{
			{Name: "chars", Type: ArrayOf(Prim(KindChar))},
		},
	})
}
