package heap

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func testRegistry() *model.Registry {
	r := model.NewRegistry()
	r.Define(model.ClassDef{Name: "Point", Fields: []model.FieldDef{
		{Name: "x", Type: model.Prim(model.KindDouble)},
		{Name: "y", Type: model.Prim(model.KindDouble)},
	}})
	r.Define(model.ClassDef{Name: "Node", Fields: []model.FieldDef{
		{Name: "val", Type: model.Prim(model.KindLong)},
		{Name: "next", Type: model.Object("Node")},
	}})
	r.Define(model.ClassDef{Name: "Holder", Fields: []model.FieldDef{
		{Name: "arr", Type: model.ArrayOf(model.Object("Point"))},
	}})
	return r
}

// rootSlice registers a Go slice of addresses as GC roots.
type rootSlice struct{ addrs []Addr }

func (r *rootSlice) VisitRoots(visit func(*Addr)) {
	for i := range r.addrs {
		visit(&r.addrs[i])
	}
}

func TestAllocAndFieldAccess(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{})
	pt := reg.MustLookup("Point")
	a, err := h.AllocObject(pt)
	if err != nil {
		t.Fatal(err)
	}
	x := pt.MustField("x")
	h.SetPrim(a, x.Offset, model.KindDouble, Float64Bits(3.5))
	if got := Float64FromBits(h.GetPrim(a, x.Offset, model.KindDouble)); got != 3.5 {
		t.Errorf("x = %v, want 3.5", got)
	}
	if h.ClassOf(a) != pt {
		t.Errorf("ClassOf mismatch")
	}
	if h.IsArray(a) {
		t.Errorf("object reported as array")
	}
	if got := h.SizeOf(a); got != pt.Size {
		t.Errorf("SizeOf = %d, want %d", got, pt.Size)
	}
}

func TestArrayAccessAndBounds(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{})
	arr, err := h.AllocArray(model.KindInt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsArray(arr) || h.ElemKind(arr) != model.KindInt || h.ArrayLen(arr) != 4 {
		t.Fatalf("array metadata wrong")
	}
	for i := 0; i < 4; i++ {
		h.ArraySetPrim(arr, i, model.KindInt, uint64(i*i))
	}
	for i := 0; i < 4; i++ {
		if got := h.ArrayGetPrim(arr, i, model.KindInt); got != uint64(i*i) {
			t.Errorf("elem %d = %d", i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-bounds access did not panic")
		}
	}()
	h.ArrayGetPrim(arr, 4, model.KindInt)
}

func TestMinorGCPreservesLinkedList(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 64 << 10, OldSize: 1 << 20})
	node := reg.MustLookup("Node")
	val := node.MustField("val")
	next := node.MustField("next")

	roots := &rootSlice{addrs: make([]Addr, 1)}
	defer h.AddRoots(roots)()

	// Build a list long enough to force several scavenges; head is rooted.
	const n = 3000
	for i := n - 1; i >= 0; i-- {
		a, err := h.AllocObject(node)
		if err != nil {
			t.Fatal(err)
		}
		h.SetPrim(a, val.Offset, model.KindLong, uint64(i))
		h.SetRef(a, next.Offset, roots.addrs[0])
		roots.addrs[0] = a
	}
	if h.Stats().MinorGCs == 0 {
		t.Fatalf("expected scavenges during list construction")
	}
	// Verify the whole list survived with values intact.
	cur := roots.addrs[0]
	for i := 0; i < n; i++ {
		if cur == 0 {
			t.Fatalf("list truncated at %d", i)
		}
		if got := h.GetPrim(cur, val.Offset, model.KindLong); got != uint64(i) {
			t.Fatalf("node %d has val %d", i, got)
		}
		cur = h.GetRef(cur, next.Offset)
	}
	if cur != 0 {
		t.Errorf("list longer than expected")
	}
}

func TestUnreachableObjectsCollected(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 32 << 10, OldSize: 256 << 10})
	pt := reg.MustLookup("Point")
	// Allocate garbage with no roots: must never OOM.
	for i := 0; i < 100000; i++ {
		if _, err := h.AllocObject(pt); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if h.Stats().MinorGCs == 0 {
		t.Errorf("expected minor GCs")
	}
}

func TestFullGCCompactsOldGen(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 16 << 10, OldSize: 512 << 10, TenureAge: 1})
	node := reg.MustLookup("Node")
	val := node.MustField("val")

	roots := &rootSlice{addrs: make([]Addr, 64)}
	defer h.AddRoots(roots)()

	// Repeatedly fill the rooted window and drop most of it, forcing
	// promotion of garbage into old gen and then full GCs.
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		for i := range roots.addrs {
			if r.Intn(2) == 0 {
				a, err := h.AllocObject(node)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				h.SetPrim(a, val.Offset, model.KindLong, uint64(round*1000+i))
				roots.addrs[i] = a
			} else if r.Intn(4) == 0 {
				roots.addrs[i] = 0
			}
		}
		// Churn: garbage arrays to pressure both generations.
		if _, err := h.AllocArray(model.KindLong, 512); err != nil {
			t.Fatalf("churn: %v", err)
		}
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if h.Stats().MajorGCs == 0 {
		t.Errorf("expected major GCs")
	}
	// All surviving roots must still be valid objects of class Node.
	for i, a := range roots.addrs {
		if a == 0 {
			continue
		}
		if h.ClassOf(a) != node {
			t.Errorf("root %d corrupted after GC", i)
		}
	}
}

// TestGCStressShadowGraph builds a random object graph mirrored by a Go
// shadow structure, churns the heap through many collections, and then
// verifies every reachable value matches the shadow. This is the key
// correctness test for the moving collector.
func TestGCStressShadowGraph(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 32 << 10, OldSize: 1 << 20, TenureAge: 2})
	node := reg.MustLookup("Node")
	valF := node.MustField("val")
	nextF := node.MustField("next")
	holder := reg.MustLookup("Holder")
	arrF := holder.MustField("arr")
	pt := reg.MustLookup("Point")
	xF := pt.MustField("x")

	type shadowNode struct {
		val  uint64
		next *shadowNode
	}
	type shadowHolder struct {
		points []float64 // NaN-free values; 0 means nil slot
	}

	const slots = 40
	roots := &rootSlice{addrs: make([]Addr, slots)}
	defer h.AddRoots(roots)()
	shadowLists := make([]*shadowNode, slots/2)
	shadowHolders := make([]*shadowHolder, slots/2)

	r := rand.New(rand.NewSource(42))
	mkList := func(slot int) {
		var sh *shadowNode
		var head Addr
		roots.addrs[slot] = 0
		n := r.Intn(20)
		for i := 0; i < n; i++ {
			a, err := h.AllocObject(node)
			if err != nil {
				t.Fatal(err)
			}
			v := r.Uint64() % 1000000
			h.SetPrim(a, valF.Offset, model.KindLong, v)
			h.SetRef(a, nextF.Offset, head)
			head = a
			roots.addrs[slot] = a
			sh = &shadowNode{val: v, next: sh}
		}
		shadowLists[slot] = sh
	}
	mkHolder := func(slot int) {
		n := r.Intn(10) + 1
		hd, err := h.AllocObject(holder)
		if err != nil {
			t.Fatal(err)
		}
		roots.addrs[slots/2+slot] = hd
		arr, err := h.AllocArray(model.KindRef, n)
		if err != nil {
			t.Fatal(err)
		}
		// hd may have moved during the array allocation; reload via root.
		hd = roots.addrs[slots/2+slot]
		h.SetRef(hd, arrF.Offset, arr)
		sh := &shadowHolder{points: make([]float64, n)}
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				continue
			}
			p, err := h.AllocObject(pt)
			if err != nil {
				t.Fatal(err)
			}
			v := float64(r.Intn(1e6)) + 0.25
			h.SetPrim(p, xF.Offset, model.KindDouble, Float64Bits(v))
			hd = roots.addrs[slots/2+slot]
			arr = h.GetRef(hd, arrF.Offset)
			h.ArraySetRef(arr, i, p)
			sh.points[i] = v
		}
		shadowHolders[slot] = sh
	}

	for round := 0; round < 400; round++ {
		slot := r.Intn(slots / 2)
		if r.Intn(2) == 0 {
			mkList(slot)
		} else {
			mkHolder(slot)
		}
		if r.Intn(50) == 0 {
			if err := h.Collect(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Verify shadows.
	for i, sh := range shadowLists {
		cur := roots.addrs[i]
		for sh != nil {
			if cur == 0 {
				t.Fatalf("list %d truncated", i)
			}
			if got := h.GetPrim(cur, valF.Offset, model.KindLong); got != sh.val {
				t.Fatalf("list %d: val %d != shadow %d", i, got, sh.val)
			}
			cur = h.GetRef(cur, nextF.Offset)
			sh = sh.next
		}
		if cur != 0 {
			t.Fatalf("list %d longer than shadow", i)
		}
	}
	for i, sh := range shadowHolders {
		if sh == nil {
			continue
		}
		hd := roots.addrs[slots/2+i]
		arr := h.GetRef(hd, arrF.Offset)
		if h.ArrayLen(arr) != len(sh.points) {
			t.Fatalf("holder %d: arr len %d != %d", i, h.ArrayLen(arr), len(sh.points))
		}
		for j, want := range sh.points {
			p := h.ArrayGetRef(arr, j)
			if want == 0 {
				if p != 0 {
					t.Fatalf("holder %d[%d]: expected nil", i, j)
				}
				continue
			}
			if p == 0 {
				t.Fatalf("holder %d[%d]: lost point", i, j)
			}
			if got := Float64FromBits(h.GetPrim(p, xF.Offset, model.KindDouble)); got != want {
				t.Fatalf("holder %d[%d]: %v != %v", i, j, got, want)
			}
		}
	}
	st := h.Stats()
	if st.MinorGCs+st.MajorGCs == 0 {
		t.Errorf("stress test never collected")
	}
	t.Logf("stats: %+v", st)
}

func TestOutOfMemory(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 8 << 10, OldSize: 32 << 10})
	roots := &rootSlice{}
	defer h.AddRoots(roots)()
	node := reg.MustLookup("Node")
	nextF := node.MustField("next")
	var err error
	for i := 0; i < 1_000_000; i++ {
		var a Addr
		a, err = h.AllocObject(node)
		if err != nil {
			break
		}
		// Keep everything alive in one chain.
		h.SetRef(a, nextF.Offset, 0)
		if len(roots.addrs) > 0 {
			h.SetRef(a, nextF.Offset, roots.addrs[0])
		}
		roots.addrs = []Addr{a}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestHumongousAllocation(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 8 << 10, OldSize: 1 << 20})
	arr, err := h.AllocArray(model.KindLong, 2048) // 16KB > young/2
	if err != nil {
		t.Fatal(err)
	}
	if !h.InOld(arr) {
		t.Errorf("humongous array not in old gen")
	}
}

func TestWriteBarrierRemembersOldToYoung(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 64 << 10, OldSize: 1 << 20, TenureAge: 1})
	node := reg.MustLookup("Node")
	valF := node.MustField("val")
	nextF := node.MustField("next")
	roots := &rootSlice{addrs: make([]Addr, 2)}
	defer h.AddRoots(roots)()

	// Create an old object by forcing a full collection.
	a, err := h.AllocObject(node)
	if err != nil {
		t.Fatal(err)
	}
	roots.addrs[0] = a
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if !h.InOld(roots.addrs[0]) {
		t.Fatalf("object not promoted by full GC")
	}
	// Young child referenced ONLY from the old object.
	child, err := h.AllocObject(node)
	if err != nil {
		t.Fatal(err)
	}
	h.SetPrim(child, valF.Offset, model.KindLong, 777)
	h.SetRef(roots.addrs[0], nextF.Offset, child)
	barriers := h.Stats().RememberedAdds
	if barriers == 0 {
		t.Fatalf("old->young store did not populate remembered set")
	}
	// Force scavenges: the child must survive via the remembered set.
	for i := 0; i < 3; i++ {
		if err := h.minorGC(); err != nil {
			t.Fatal(err)
		}
	}
	got := h.GetRef(roots.addrs[0], nextF.Offset)
	if got == 0 {
		t.Fatalf("remembered child lost")
	}
	if v := h.GetPrim(got, valF.Offset, model.KindLong); v != 777 {
		t.Errorf("child val = %d, want 777", v)
	}
}

func TestYakEpochFreesRegionWholesale(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 64 << 10, OldSize: 1 << 20, RegionSize: 1 << 20, Policy: PolicyRegion})
	pt := reg.MustLookup("Point")
	roots := &rootSlice{addrs: make([]Addr, 1)}
	defer h.AddRoots(roots)()

	h.EpochStart()
	for i := 0; i < 1000; i++ {
		a, err := h.AllocObject(pt)
		if err != nil {
			t.Fatal(err)
		}
		_ = a // all garbage: confined to the epoch
	}
	used := h.UsedBytes()
	if used < int64(1000*pt.Size) {
		t.Fatalf("region allocation did not happen: used=%d", used)
	}
	if err := h.EpochEnd(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.EpochsClosed != 1 || st.FreedByEpoch == 0 {
		t.Errorf("epoch accounting wrong: %+v", st)
	}
	if st.EpochEscapes != 0 {
		t.Errorf("no object should have escaped, got %d", st.EpochEscapes)
	}
	if h.UsedBytes() != 0 {
		t.Errorf("region not freed: used=%d", h.UsedBytes())
	}
}

func TestYakEpochEscapeIsCopiedOut(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 64 << 10, OldSize: 1 << 20, RegionSize: 1 << 20, Policy: PolicyRegion})
	pt := reg.MustLookup("Point")
	xF := pt.MustField("x")
	roots := &rootSlice{addrs: make([]Addr, 1)}
	defer h.AddRoots(roots)()

	h.EpochStart()
	a, err := h.AllocObject(pt)
	if err != nil {
		t.Fatal(err)
	}
	h.SetPrim(a, xF.Offset, model.KindDouble, Float64Bits(9.75))
	roots.addrs[0] = a // escapes via a root
	if !h.InRegion(a) {
		t.Fatalf("allocation not in region")
	}
	if err := h.EpochEnd(); err != nil {
		t.Fatal(err)
	}
	na := roots.addrs[0]
	if h.InRegion(na) {
		t.Fatalf("escaped object still in region")
	}
	if got := Float64FromBits(h.GetPrim(na, xF.Offset, model.KindDouble)); got != 9.75 {
		t.Errorf("escaped object corrupted: %v", got)
	}
	if h.Stats().EpochEscapes != 1 {
		t.Errorf("EpochEscapes = %d, want 1", h.Stats().EpochEscapes)
	}
}

func TestYakEpochEscapeViaHeapReference(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{YoungSize: 64 << 10, OldSize: 1 << 20, RegionSize: 1 << 20, Policy: PolicyRegion, TenureAge: 1})
	node := reg.MustLookup("Node")
	valF := node.MustField("val")
	nextF := node.MustField("next")
	roots := &rootSlice{addrs: make([]Addr, 1)}
	defer h.AddRoots(roots)()

	// Old-gen holder.
	a, err := h.AllocObject(node)
	if err != nil {
		t.Fatal(err)
	}
	roots.addrs[0] = a
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	holder := roots.addrs[0]
	if !h.InOld(holder) {
		t.Fatalf("holder not in old gen")
	}

	h.EpochStart()
	b, err := h.AllocObject(node) // region object
	if err != nil {
		t.Fatal(err)
	}
	h.SetPrim(b, valF.Offset, model.KindLong, 123)
	h.SetRef(holder, nextF.Offset, b) // heap -> region: Yak barrier records it
	if err := h.EpochEnd(); err != nil {
		t.Fatal(err)
	}
	nb := h.GetRef(holder, nextF.Offset)
	if nb == 0 || h.InRegion(nb) {
		t.Fatalf("escapee not copied out: %#x", nb)
	}
	if got := h.GetPrim(nb, valF.Offset, model.KindLong); got != 123 {
		t.Errorf("escapee corrupted: %d", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	reg := testRegistry()
	h := New(reg, Config{})
	pt := reg.MustLookup("Point")
	for i := 0; i < 10; i++ {
		if _, err := h.AllocObject(pt); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.AllocObjects != 10 {
		t.Errorf("AllocObjects = %d", st.AllocObjects)
	}
	if st.AllocBytes != int64(10*pt.Size) {
		t.Errorf("AllocBytes = %d", st.AllocBytes)
	}
	if st.PeakUsedBytes < st.AllocBytes {
		t.Errorf("PeakUsedBytes = %d < AllocBytes", st.PeakUsedBytes)
	}
}

// resetScript drives h through every path Reset must rewind — scavenges
// that copy, drop and promote, a full GC, a Yak epoch with escapes
// through a root and through the write barrier, and finally an OOM —
// and returns every address it was handed, every value it read back and
// the final Stats with GCTime zeroed (wall time is not heap state). Its
// roots stay registered: Reset must drop them.
func resetScript(t *testing.T, h *Heap) ([]int64, Stats) {
	t.Helper()
	reg := h.Registry()
	node, pt, holderC := reg.MustLookup("Node"), reg.MustLookup("Point"), reg.MustLookup("Holder")
	valF, nextF := node.MustField("val"), node.MustField("next")
	xF, arrF := pt.MustField("x"), holderC.MustField("arr")
	roots := &rootSlice{addrs: make([]Addr, 4)}
	h.AddRoots(roots)
	var log []int64
	alloc := func(c *model.Class) Addr {
		a, err := h.AllocObject(c)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, a)
		return a
	}

	// A rooted list keeping every third node: scavenges copy and drop,
	// and the survivors age into the old generation.
	for i := 0; i < 2000; i++ {
		a := alloc(node)
		h.SetPrim(a, valF.Offset, model.KindLong, uint64(i))
		if i%3 == 0 {
			h.SetRef(a, nextF.Offset, roots.addrs[0])
			roots.addrs[0] = a
		}
	}
	holder := alloc(holderC)
	roots.addrs[2] = holder
	arr, err := h.AllocArray(model.KindRef, 4)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, arr)
	h.SetRef(roots.addrs[2], arrF.Offset, arr)
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}

	h.EpochStart()
	for i := 0; i < 400; i++ {
		p := alloc(pt)
		h.SetPrim(p, xF.Offset, model.KindDouble, Float64Bits(float64(i)))
		switch {
		case i == 10:
			roots.addrs[1] = p
		case i%100 == 50:
			h.ArraySetRef(h.GetRef(roots.addrs[2], arrF.Offset), i/100, p)
		}
	}
	if err := h.EpochEnd(); err != nil {
		t.Fatal(err)
	}

	for a := roots.addrs[0]; a != 0; a = h.GetRef(a, nextF.Offset) {
		log = append(log, int64(h.GetPrim(a, valF.Offset, model.KindLong)))
	}
	log = append(log, int64(h.GetPrim(roots.addrs[1], xF.Offset, model.KindDouble)))
	arr = h.GetRef(roots.addrs[2], arrF.Offset)
	for i := 0; i < h.ArrayLen(arr); i++ {
		if p := h.ArrayGetRef(arr, i); p != 0 {
			log = append(log, int64(h.GetPrim(p, xF.Offset, model.KindDouble)))
		}
	}

	// Keep everything alive until the heap gives out.
	for {
		a, err := h.AllocObject(node)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatal(err)
			}
			break
		}
		log = append(log, a)
		h.SetRef(a, nextF.Offset, roots.addrs[3])
		roots.addrs[3] = a
	}
	st := h.Stats()
	st.GCTime = 0
	return log, st
}

// poison fills every backing byte of h, spare region capacity included.
func poison(h *Heap) {
	for _, b := range [][]byte{h.young, h.old, h.region[:cap(h.region)]} {
		for i := range b {
			b[i] = 0xA5
		}
	}
}

// dirty leaves an empty h mid-epoch (under PolicyRegion) with an old
// holder in the remembered set and a region object allocated.
func dirty(t *testing.T, h *Heap) {
	t.Helper()
	node := h.Registry().MustLookup("Node")
	roots := &rootSlice{addrs: make([]Addr, 1)}
	h.AddRoots(roots)
	var err error
	if roots.addrs[0], err = h.AllocObject(node); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	child, err := h.AllocObject(node)
	if err != nil {
		t.Fatal(err)
	}
	h.SetRef(roots.addrs[0], node.MustField("next").Offset, child)
	h.EpochStart()
	if _, err := h.AllocObject(node); err != nil {
		t.Fatal(err)
	}
	if len(h.remembered) == 0 {
		t.Fatal("dirty left no remembered holder")
	}
}

// TestResetMatchesNew pins that a Reset heap behaves exactly like a new
// one although Reset clears no bytes: the same script over a poisoned,
// Reset heap — once poisoned after a used heap's OOM, once more left
// mid-epoch with remembered holders — returns the addresses, values and Stats a
// fresh New does.
func TestResetMatchesNew(t *testing.T) {
	reg := testRegistry()
	for _, pol := range []Policy{PolicyGenerational, PolicyRegion} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{YoungSize: 8 << 10, OldSize: 64 << 10, RegionSize: 8 << 10, Policy: pol}
			wantLog, wantStats := resetScript(t, New(reg, cfg))
			if wantStats.MinorGCs == 0 || wantStats.MajorGCs == 0 || wantStats.PromotedBytes == 0 {
				t.Fatalf("script misses a collector path: %+v", wantStats)
			}
			if pol == PolicyRegion && (wantStats.EpochEscapes == 0 || wantStats.EpochsClosed != 1) {
				t.Fatalf("script misses the epoch path: %+v", wantStats)
			}
			h := New(reg, cfg)
			resetScript(t, h)
			for round := 1; round <= 2; round++ {
				if round == 1 {
					poison(h)
				} else {
					// Stale live objects are a sharper poison for the
					// remembered set than 0xA5, which reads as a
					// primitive array and is skipped.
					h.Reset(nil)
					dirty(t, h)
				}
				h.Reset(nil)
				if h.Stats() != (Stats{}) || h.UsedBytes() != 0 {
					t.Fatalf("round %d: Reset left stats %+v, %d bytes used", round, h.Stats(), h.UsedBytes())
				}
				gotLog, gotStats := resetScript(t, h)
				if gotStats != wantStats {
					t.Errorf("round %d: stats %+v, want %+v", round, gotStats, wantStats)
				}
				if len(gotLog) != len(wantLog) {
					t.Fatalf("round %d: %d logged values, want %d", round, len(gotLog), len(wantLog))
				}
				for i := range gotLog {
					if gotLog[i] != wantLog[i] {
						t.Fatalf("round %d: logged value %d = %#x, want %#x", round, i, gotLog[i], wantLog[i])
					}
				}
			}
		})
	}
}
