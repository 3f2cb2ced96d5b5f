package arena

import (
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

func TestRegionAppendAndAddressing(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	p := r.Append(16)
	q := r.Append(8)
	if p == 0 || q != p+16 {
		t.Fatalf("addresses: p=%#x q=%#x", p, q)
	}
	a.WriteNative(p, 0, 8, 0x1122334455667788)
	a.WriteNative(q, 4, 4, -7)
	if got := a.ReadNative(p, 0, 8); got != 0x1122334455667788 {
		t.Errorf("read8 = %#x", got)
	}
	if got := a.ReadNative(q, 4, 4); got != -7 {
		t.Errorf("read4 = %d, want -7 (sign extension)", got)
	}
	if r.Len() != 24 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestWritePastEndExtends(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	p := r.Append(4)
	a.WriteNative(p, 4, 8, 42) // lands just past the appended bytes
	if r.Len() != 12 {
		t.Errorf("Len = %d, want 12", r.Len())
	}
	if got := a.ReadNative(p, 4, 8); got != 42 {
		t.Errorf("read = %d", got)
	}
}

func TestCrossRegionCopyRecord(t *testing.T) {
	a := New()
	src := a.NewRegion("src")
	dst := a.NewRegion("dst")
	p := src.Append(8)
	a.WriteNative(p, 0, 8, 99)
	q := dst.CopyRecord(p, 8)
	if got := a.ReadNative(q, 0, 8); got != 99 {
		t.Errorf("copied value = %d", got)
	}
	if int(q>>32) == int(p>>32) {
		t.Errorf("copy stayed in the same region")
	}
}

func TestFreeWholesaleAndAccounting(t *testing.T) {
	a := New()
	r1 := a.NewRegion("a")
	r2 := a.NewRegion("b")
	r1.Append(100)
	r2.Append(50)
	if a.LiveBytes() != 150 {
		t.Fatalf("live = %d", a.LiveBytes())
	}
	r1.Free()
	if a.LiveBytes() != 50 {
		t.Errorf("live after free = %d", a.LiveBytes())
	}
	st := a.Stats()
	if st.FreedBytes != 100 || st.PeakBytes != 150 || st.AllocBytes != 150 || st.Regions != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !r1.Freed() || r2.Freed() {
		t.Errorf("freed flags wrong")
	}
	r1.Free() // double free is a no-op
	if a.Stats().FreedBytes != 100 {
		t.Errorf("double free accounted")
	}
}

func TestUseAfterFreePanics(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	p := r.Append(8)
	r.Free()
	defer func() {
		if recover() == nil {
			t.Errorf("read of freed region did not panic")
		}
	}()
	a.ReadNative(p, 0, 8)
}

func TestAdoptBytes(t *testing.T) {
	a := New()
	data := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	r := a.AdoptBytes("shuffle-0", data)
	if got := a.ReadNative(r.Base(), 4, 4); got != 2 {
		t.Errorf("adopted read = %d", got)
	}
	data[4] = 9 // mutating the source must not affect the region
	if got := a.ReadNative(r.Base(), 4, 4); got != 2 {
		t.Errorf("region aliases caller bytes")
	}
}

// TestRecordBuilderInOrder builds the paper's class C { int a; long[] b;
// double c; } in layout order and checks the final bytes.
func TestRecordBuilderInOrder(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	var b RecordBuilder
	b.Reset(r)

	lenB := expr.ReadNative(1, expr.Konst(4), 4)
	offC := expr.Konst(8).Add(lenB.Scale(8))

	b.WriteAt(b.Base(), expr.Konst(0), 4, 7) // a = 7
	b.AppendArray(8, 3)
	b.WriteAt(b.Base(), offC, 8, 1234) // c (raw bits)
	base, size, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if size != 4+4+24+8 {
		t.Errorf("size = %d, want 40", size)
	}
	if got := a.ReadNative(base, 0, 4); got != 7 {
		t.Errorf("a = %d", got)
	}
	if got := a.ReadNative(base, 4, 4); got != 3 {
		t.Errorf("b.len = %d", got)
	}
	if got := a.ReadNative(base, 32, 8); got != 1234 {
		t.Errorf("c = %d", got)
	}
}

// TestRecordBuilderOutOfOrder writes field c BEFORE creating array b: the
// write must park and flush when the array creation event fires — the
// event-driven mechanism of section 3.6.
func TestRecordBuilderOutOfOrder(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	var b RecordBuilder
	b.Reset(r)

	lenB := expr.ReadNative(1, expr.Konst(4), 4)
	offC := expr.Konst(8).Add(lenB.Scale(8))

	b.WriteAt(b.Base(), offC, 8, 5555)       // c first: offset unknown, parks
	b.WriteAt(b.Base(), expr.Konst(0), 4, 7) // a
	b.AppendArray(8, 2)
	base, size, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if size != 4+4+16+8 {
		t.Errorf("size = %d, want 32", size)
	}
	if got := a.ReadNative(base, 24, 8); got != 5555 {
		t.Errorf("c = %d, want 5555", got)
	}
}

func TestRecordBuilderSealFailsOnMissingArray(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	var b RecordBuilder
	b.Reset(r)
	off := expr.Konst(8).Add(expr.ReadNative(8, expr.Konst(4), 4))
	b.WriteAt(b.Base(), off, 8, 1)
	if _, _, err := b.Seal(); err == nil {
		t.Errorf("Seal succeeded with unresolved pending write")
	}
}

func TestNestedSymbolicArrays(t *testing.T) {
	// Record: [len1:4][len1 int32s][len2:4][len2 int32s][tail:4]
	a := New()
	r := a.NewRegion("t")
	var b RecordBuilder
	b.Reset(r)

	len1 := expr.ReadNative(1, expr.Konst(0), 4)
	off2 := expr.Konst(4).Add(len1.Scale(4)) // len2 slot
	len2 := &expr.Expr{Terms: []expr.Term{{Scale: 1, Off: off2, Size: 4}}}
	tail := off2.AddConst(4).Add(len2.Scale(4))

	b.WriteAt(b.Base(), tail, 4, 77) // parks: neither array exists
	b.AppendArray(4, 3)
	b.AppendArray(4, 2)
	base, size, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	wantTail := int64(4 + 12 + 4 + 8)
	if got := a.ReadNative(base, wantTail, 4); got != 77 {
		t.Errorf("tail = %d at %d (size %d)", got, wantTail, size)
	}
}

// Property: for random sequences of appends and read/write pairs, every
// read returns the last value written at that location.
func TestReadWriteRoundTripProperty(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	f := func(vals []int64, szSel []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		a := New()
		r := a.NewRegion("q")
		base := r.Append(8 * len(vals))
		for i, v := range vals {
			sz := 8
			if len(szSel) > 0 {
				sz = sizes[int(szSel[i%len(szSel)])%4]
			}
			off := int64(i * 8)
			a.WriteNative(base, off, sz, v)
			got := a.ReadNative(base, off, sz)
			// Truncate-and-sign-extend semantics.
			var want int64
			switch sz {
			case 1:
				want = int64(int8(v))
			case 2:
				want = int64(int16(v))
			case 4:
				want = int64(int32(v))
			case 8:
				want = v
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// catchFault runs f and returns the recovered *Fault, or nil when f
// panicked with something else (or not at all).
func catchFault(f func()) (fault *Fault) {
	defer func() {
		if r := recover(); r != nil {
			fault, _ = r.(*Fault)
		}
	}()
	f()
	return nil
}

// TestDataPathViolationsPanicWithFault: every access violation reachable
// from speculative execution must panic with the typed *Fault so the
// engine's recover barrier can classify it as a failed speculation
// (plain panics stay reserved for engine API misuse).
func TestDataPathViolationsPanicWithFault(t *testing.T) {
	a := New()
	r := a.NewRegion("t")
	p := r.Append(8)

	if f := catchFault(func() { a.ReadNative(int64(1)<<62, 0, 8) }); f == nil {
		t.Errorf("wild address did not panic with *Fault")
	} else if f.Error() == "" {
		t.Errorf("empty fault message")
	}
	if f := catchFault(func() { a.ReadNative(p, 1<<40, 8) }); f == nil {
		t.Errorf("out-of-bounds read did not panic with *Fault")
	}
	if f := catchFault(func() { a.Slice(p, 1<<30) }); f == nil {
		t.Errorf("past-end slice did not panic with *Fault")
	}
	freed := a.NewRegion("freed")
	q := freed.Append(8)
	freed.Free()
	if f := catchFault(func() { a.ReadNative(q, 0, 8) }); f == nil {
		t.Errorf("use-after-free did not panic with *Fault")
	}
	// API misuse is a bug in the engine, not failed speculation: it must
	// NOT be a *Fault (the recover barrier would wrongly deoptimize it).
	if f := catchFault(func() { a.ReadNative(p, 0, 3) }); f != nil {
		t.Errorf("invalid access size panicked with *Fault: %v", f)
	}
}

// TestAdoptBytesOwnedZeroCopy: the owned adoption path must wrap the
// caller's array without copying, account it as live bytes, and still
// protect the caller from a later region append (the re-capped slice
// forces reallocation instead of scribbling past the payload).
func TestAdoptBytesOwnedZeroCopy(t *testing.T) {
	a := New()
	data := make([]byte, 16, 64) // spare capacity an append must NOT reuse
	for i := range data {
		data[i] = byte(i)
	}
	canary := data[:32][16:] // the bytes after len, inside the caller's cap
	for i := range canary {
		canary[i] = 0xEE
	}
	r := a.AdoptBytesOwned("blk", data)
	if &r.Bytes()[0] != &data[0] {
		t.Fatalf("owned adoption copied the payload")
	}
	if a.LiveBytes() != 16 || r.Len() != 16 {
		t.Fatalf("live=%d len=%d, want 16", a.LiveBytes(), r.Len())
	}
	if got := a.ReadNative(r.Base(), 8, 1); got != 8 {
		t.Fatalf("ReadNative over adopted bytes = %d, want 8", got)
	}
	r.AppendBytes([]byte{1, 2, 3, 4})
	for i, b := range canary {
		if b != 0xEE {
			t.Fatalf("append scribbled into the caller's array at +%d", i)
		}
	}
	if r.Len() != 20 {
		t.Fatalf("post-append len = %d", r.Len())
	}
	r.Free()
	if a.LiveBytes() != 0 {
		t.Fatalf("live after free = %d", a.LiveBytes())
	}
}

// TestResetRecyclesOwnStorageOnly pins Arena.Reset: a region created
// after it reuses the storage of one the arena allocated itself, yet
// reads only zeros and the values written since — though Reset clears
// nothing and the storage is poisoned to its capacity — while a region
// adopted with AdoptBytesOwned is never recycled: its bytes are the
// caller's and stay byte-identical.
func TestResetRecyclesOwnStorageOnly(t *testing.T) {
	a := New()
	input := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	pristine := append([]byte(nil), input...)
	owned := a.AdoptBytesOwned("in", input)
	out := a.NewRegion("out")
	out.Append(4096)
	a.AdoptBytes("copy", make([]byte, 512))
	for _, r := range a.regions[1:] {
		poisoned := r.buf[:cap(r.buf)]
		for i := range poisoned {
			poisoned[i] = 0xA5
		}
	}
	oldOut := &out.buf[0]
	stale := out.AddrOf(0)

	a.Reset()
	if a.LiveBytes() != 0 || a.Stats() != (Stats{}) || len(a.regions) != 0 {
		t.Fatalf("Reset left live=%d stats=%+v regions=%d", a.LiveBytes(), a.Stats(), len(a.regions))
	}
	if !owned.Freed() || !out.Freed() {
		t.Fatal("handles to reset regions must read as freed")
	}
	if catchFault(func() { a.ReadNative(stale, 0, 8) }) == nil {
		t.Fatal("address into a reset region must fault")
	}
	for _, s := range a.spare {
		if &s[:1][0] == &input[0] {
			t.Fatal("owned input entered the spare list")
		}
	}

	r := a.NewRegion("out")
	if cap(r.buf) == 0 || &r.buf[:1][0] != oldOut {
		t.Fatal("first region after Reset did not reuse the first region's storage")
	}
	want := make([]byte, 0, 64)
	p := r.Append(16)
	want = append(want, make([]byte, 16)...)
	a.WriteNative(p, 24, 8, 0x0102030405060708) // grows the region past its end
	want = append(want, make([]byte, 8)...)
	want = append(want, 8, 7, 6, 5, 4, 3, 2, 1)
	r.AppendBytes([]byte{9, 9, 9})
	want = append(want, 9, 9, 9)
	var rb RecordBuilder
	rb.Reset(r)
	rb.Reserve(5)
	want = append(want, make([]byte, 5)...)
	if got := a.Slice(p, r.Len()); string(got) != string(want) {
		t.Fatalf("recycled region reads %v, want %v", got, want)
	}
	data := []byte("adopted copy")
	c := a.AdoptBytes("copy", data)
	if got := a.Slice(c.AddrOf(0), c.Len()); string(got) != string(data) {
		t.Fatalf("AdoptBytes into recycled storage reads %q", got)
	}
	for i := 0; i < 4; i++ {
		a.NewRegion("more").Append(64)
	}
	if string(input) != string(pristine) {
		t.Fatalf("owned input changed to %v, want %v", input, pristine)
	}
}
