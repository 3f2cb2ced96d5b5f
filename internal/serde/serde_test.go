package serde

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dsa"
	"repro/internal/heap"
	"repro/internal/model"
)

func lrSchema() (*model.Registry, *dsa.Result) {
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
	reg.Define(model.ClassDef{Name: "Account", Fields: []model.FieldDef{
		{Name: "userId", Type: model.Prim(model.KindLong)},
		{Name: "posts", Type: model.ArrayOf(model.Object(model.StringClassName))},
	}})
	reg.Define(model.ClassDef{Name: "Edge", Fields: []model.FieldDef{
		{Name: "src", Type: model.Prim(model.KindLong)},
		{Name: "dst", Type: model.Prim(model.KindLong)},
	}})
	layouts := dsa.Analyze(reg, []string{"LabeledPoint", "Account", "Edge", model.StringClassName})
	return reg, layouts
}

func newTestHeap(reg *model.Registry) *heap.Heap {
	return heap.New(reg, heap.Config{YoungSize: 1 << 20, OldSize: 8 << 20})
}

func lp(label float64, values []float64) Obj {
	return Obj{
		"label": label,
		"features": Obj{
			"size":   int64(len(values)),
			"values": values,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	in := lp(1.5, []float64{0.25, -3, 7.5})
	wire, err := c.Encode("LabeledPoint", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wire size: prefix 4 + label 8 + size 4 + len 4 + 3*8 = 44.
	if len(wire) != 44 {
		t.Errorf("wire length = %d, want 44", len(wire))
	}
	if RecordSize(wire, 0) != 44 {
		t.Errorf("RecordSize = %d", RecordSize(wire, 0))
	}
	out, next, err := c.Decode("LabeledPoint", wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != len(wire) {
		t.Errorf("Decode consumed %d of %d", next, len(wire))
	}
	got := out.(Obj)
	if got["label"] != 1.5 {
		t.Errorf("label = %v", got["label"])
	}
	feats := got["features"].(Obj)
	if !reflect.DeepEqual(feats["values"], []float64{0.25, -3, 7.5}) {
		t.Errorf("values = %v", feats["values"])
	}
}

func TestHeapSerializeDeserializeRoundTrip(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	h := newTestHeap(reg)

	in := lp(2.25, []float64{1, 2, 3, 4})
	a, err := c.Build(h, "LabeledPoint", in)
	if err != nil {
		t.Fatal(err)
	}
	roots := &rootSlice{addrs: []heap.Addr{a}}
	defer h.AddRoots(roots)()

	wire, err := c.Serialize(h, roots.addrs[0], "LabeledPoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, next, err := c.Deserialize(h, wire, 0, "LabeledPoint")
	if err != nil {
		t.Fatal(err)
	}
	if next != len(wire) {
		t.Errorf("consumed %d of %d", next, len(wire))
	}
	roots.addrs = append(roots.addrs, b)
	back, err := c.ReadBack(h, roots.addrs[1], "LabeledPoint")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, any(Obj{
		"label":    2.25,
		"features": Obj{"size": int64(4), "values": []float64{1, 2, 3, 4}},
	})) {
		t.Errorf("round trip mismatch: %#v", back)
	}
}

type rootSlice struct{ addrs []heap.Addr }

func (r *rootSlice) VisitRoots(visit func(*heap.Addr)) {
	for i := range r.addrs {
		visit(&r.addrs[i])
	}
}

func TestStringsAndVariableElemArrays(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	h := newTestHeap(reg)
	in := Obj{
		"userId": int64(42),
		"posts":  []string{"hello", "", "wörld"},
	}
	a, err := c.Build(h, "Account", in)
	if err != nil {
		t.Fatal(err)
	}
	roots := &rootSlice{addrs: []heap.Addr{a}}
	defer h.AddRoots(roots)()
	back, err := c.ReadBack(h, roots.addrs[0], "Account")
	if err != nil {
		t.Fatal(err)
	}
	obj := back.(Obj)
	if obj["userId"] != int64(42) {
		t.Errorf("userId = %v", obj["userId"])
	}
	posts := obj["posts"].([]any)
	if len(posts) != 3 || posts[0] != "hello" || posts[1] != "" || posts[2] != "wörld" {
		t.Errorf("posts = %v", posts)
	}
}

func TestSerializeNullReferenceFails(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	h := newTestHeap(reg)
	lpCls := reg.MustLookup("LabeledPoint")
	a, err := h.AllocObject(lpCls) // features left null
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serialize(h, a, "LabeledPoint", nil); err == nil {
		t.Errorf("serializing null reference succeeded")
	}
}

func TestDeserializeTruncatedFails(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	h := newTestHeap(reg)
	wire, err := c.Encode("LabeledPoint", lp(1, []float64{1, 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Deserialize(h, wire[:len(wire)-4], 0, "LabeledPoint"); err == nil {
		t.Errorf("truncated deserialize succeeded")
	}
}

func TestMultipleRecordsInOneBuffer(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	var buf []byte
	var err error
	for i := 0; i < 5; i++ {
		buf, err = c.Encode("Edge", Obj{"src": int64(i), "dst": int64(i * 10)}, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := 0; i < 5; i++ {
		v, next, err := c.Decode("Edge", buf, off)
		if err != nil {
			t.Fatal(err)
		}
		e := v.(Obj)
		if e["src"] != int64(i) || e["dst"] != int64(i*10) {
			t.Errorf("record %d = %v", i, e)
		}
		off = next
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d", off, len(buf))
	}
}

// TestHeapFootprintLabeledPoints reproduces the Figure 4 arithmetic: the
// heap representation of LabeledPoint records carries roughly 2x the
// payload in pure header/reference/padding overhead.
func TestHeapFootprintLabeledPoints(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	h := newTestHeap(reg)
	a, err := c.Build(h, "LabeledPoint", lp(1, []float64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	roots := &rootSlice{addrs: []heap.Addr{a}}
	defer h.AddRoots(roots)()

	foot, err := c.HeapFootprint(h, roots.addrs[0], "LabeledPoint")
	if err != nil {
		t.Fatal(err)
	}
	// LabeledPoint: hdr16 + label8 + ref8 = 32
	// DenseVector:  hdr16 + size4+pad4 + ref8 = 32
	// double[3]:    hdr16 + len4+pad4 + 24 = 48
	if foot != 112 {
		t.Errorf("heap footprint = %d, want 112", foot)
	}
	wire, err := c.Serialize(h, roots.addrs[0], "LabeledPoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	inlined := len(wire) - SizePrefixBytes // 8+4+4+24 = 40
	if inlined != 40 {
		t.Errorf("inlined payload = %d, want 40", inlined)
	}
	ratio := float64(foot) / float64(inlined)
	if ratio < 2.5 || ratio > 3.2 {
		t.Errorf("heap/inlined ratio = %.2f, expected ~2.8", ratio)
	}
}

// TestDeserializeSurvivesGC stresses the rooted deserializer: a tiny
// nursery forces collections mid-deserialization.
func TestDeserializeSurvivesGC(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	h := heap.New(reg, heap.Config{YoungSize: 8 << 10, OldSize: 4 << 20})

	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	wire, err := c.Encode("LabeledPoint", lp(9, vals), nil)
	if err != nil {
		t.Fatal(err)
	}
	roots := &rootSlice{}
	defer h.AddRoots(roots)()
	for i := 0; i < 20; i++ {
		a, _, err := c.Deserialize(h, wire, 0, "LabeledPoint")
		if err != nil {
			t.Fatal(err)
		}
		roots.addrs = append(roots.addrs, a)
	}
	if h.Stats().MinorGCs == 0 {
		t.Fatalf("expected GCs during deserialization")
	}
	for _, a := range roots.addrs {
		back, err := c.ReadBack(h, a, "LabeledPoint")
		if err != nil {
			t.Fatal(err)
		}
		got := back.(Obj)["features"].(Obj)["values"].([]float64)
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("values corrupted after GC")
		}
	}
}

// Property: Encode → Deserialize-to-heap → Serialize produces identical
// wire bytes (the codec is canonical), for random LabeledPoints.
func TestCanonicalWireProperty(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	f := func(label float64, seed int64, n uint8) bool {
		h := newTestHeap(reg)
		r := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(n)%32)
		for i := range vals {
			vals[i] = r.NormFloat64()
		}
		wire, err := c.Encode("LabeledPoint", lp(label, vals), nil)
		if err != nil {
			return false
		}
		a, _, err := c.Deserialize(h, wire, 0, "LabeledPoint")
		if err != nil {
			return false
		}
		roots := &rootSlice{addrs: []heap.Addr{a}}
		defer h.AddRoots(roots)()
		wire2, err := c.Serialize(h, roots.addrs[0], "LabeledPoint", nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(wire, wire2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Decode reads no byte outside the record's frame: a frame past the
// buffer, a field past the frame, and a negative or overlong array or
// string length are errors, never a panic or an allocation the frame
// cannot back.
func TestDecodeBoundedByFrame(t *testing.T) {
	reg, layouts := lrSchema()
	c := NewCodec(reg, layouts)
	wire, err := c.Encode("Account", Obj{"userId": int64(42), "posts": []string{"hi"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// [size 4][userId 8][posts len 4][post 0: len 4][chars 4]
	const postsLen, strLen = 12, 16
	if _, _, err := c.Decode("Account", wire, 0); err != nil {
		t.Fatal(err)
	}
	patch := func(at int, v int32) []byte {
		b := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(b[at:], uint32(v))
		return b
	}
	cases := map[string][]byte{
		"frame past the buffer":  wire[:len(wire)-1],
		"no size prefix":         wire[:3],
		"payload short of field": patch(0, 6),
		"negative array length":  patch(postsLen, -1),
		"overlong array length":  patch(postsLen, 1<<30),
		"negative string length": patch(strLen, -1),
		"overlong string length": patch(strLen, 3),
	}
	for name, b := range cases {
		if _, _, err := c.Decode("Account", b, 0); err == nil {
			t.Errorf("%s: Decode accepted the record", name)
		}
	}
	// A LabeledPoint whose payload ends inside its features.
	lpWire, err := c.Encode("LabeledPoint", lp(1, []float64{1, 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	short := binary.LittleEndian.AppendUint32(nil, 10)
	short = append(short, lpWire[4:14]...)
	if _, _, err := c.Decode("LabeledPoint", short, 0); err == nil {
		t.Error("Decode accepted a LabeledPoint cut inside its features")
	}
}
