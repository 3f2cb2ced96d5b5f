package arena

import (
	"fmt"

	"repro/internal/expr"
)

// RecordBuilder constructs one inlined top-level record in a region,
// implementing the event-driven offset resolution of paper section 3.6
// ("Determining Offsets"): a field whose statically computed offset
// depends on the length of an array that has not been created yet cannot
// be placed, so its value is parked in a temporary buffer together with a
// handler. When the array is created, the builder fires the event,
// re-evaluates the pending offsets against the now-available lengths and
// copies the parked values into the actual buffer.
//
// Addresses are absolute arena addresses: the builder covers the byte
// range [Base(), end-of-region) while the record is open, and sub-record
// construction passes interior bases directly.
type RecordBuilder struct {
	region *Region
	base   Addr
	// lengths records the absolute addresses of array length slots
	// already written — the symbols pending offsets may read. Records
	// have few arrays, so a small slice beats a map.
	lengths []Addr
	pending []pendingWrite
}

type pendingWrite struct {
	base Addr
	off  *expr.Expr
	size int
	val  int64
}

// Reset starts b on a new record at the current end of r, keeping the
// storage of its length and pending-write lists: one builder serves
// every record an Env builds.
func (b *RecordBuilder) Reset(r *Region) {
	b.region, b.base = r, r.AddrOf(len(r.buf))
	b.lengths, b.pending = b.lengths[:0], b.pending[:0]
}

// Base returns the record's base address.
func (b *RecordBuilder) Base() Addr { return b.base }

// Size returns the bytes appended for this record so far.
func (b *RecordBuilder) Size() int {
	return int(b.region.AddrOf(len(b.region.buf)) - b.base)
}

// End returns the current end address of the record (where the next
// sequential append lands).
func (b *RecordBuilder) End() Addr { return b.base + int64(b.Size()) }

// Reserve appends n zeroed bytes (e.g. a class's constant prefix) and
// returns the address of the reserved range.
func (b *RecordBuilder) Reserve(n int) Addr {
	return b.region.Append(n)
}

// WriteAt stores val at base+off. If off is fully resolvable now
// (constant, or depending only on array lengths already created), the
// value lands immediately, extending the record if it targets bytes just
// past the current end; otherwise it is parked until AppendArray supplies
// the missing length — the paper's handler registration.
func (b *RecordBuilder) WriteAt(base Addr, off *expr.Expr, size int, val int64) {
	if off.IsConst() {
		b.region.arena.WriteNative(base, off.Const, size, val)
		return
	}
	if o, ok := b.TryResolve(base, off); ok {
		b.region.arena.WriteNative(base, o, size, val)
		return
	}
	b.pending = append(b.pending, pendingWrite{base: base, off: off, size: size, val: val})
}

// AppendArray appends an array at the current end of the record: a
// 4-byte length slot followed by n zeroed elements of elemSize bytes
// (pass elemSize 0 for variable-size elements, which are appended
// individually by subsequent construction). It registers the length slot
// and fires the array-creation event, flushing newly resolvable parked
// writes. It returns the absolute address of the length slot.
func (b *RecordBuilder) AppendArray(elemSize, n int) Addr {
	slot := b.region.Append(4 + elemSize*n)
	b.region.arena.WriteNative(slot, 0, 4, int64(n))
	b.lengths = append(b.lengths, slot)
	b.fire()
	return slot
}

// fire re-evaluates pending writes; resolvable ones flush to the buffer.
func (b *RecordBuilder) fire() {
	remaining := b.pending[:0]
	for _, p := range b.pending {
		if o, ok := b.TryResolve(p.base, p.off); ok {
			b.region.arena.WriteNative(p.base, o, p.size, p.val)
		} else {
			remaining = append(remaining, p)
		}
	}
	b.pending = remaining
}

// Seal completes the record, returning its base address and final size.
// It fails if any parked write remains unresolvable, meaning the program
// never created an array the layout depends on — a malformed record the
// runtime must not emit.
func (b *RecordBuilder) Seal() (Addr, int, error) {
	b.fire()
	if len(b.pending) > 0 {
		return 0, 0, fmt.Errorf("arena: record sealed with %d unresolved writes (first offset %s)",
			len(b.pending), b.pending[0].off)
	}
	return b.base, b.Size(), nil
}

// TryResolve evaluates off against base, succeeding only if every
// readNative term refers to an array length slot already created.
func (b *RecordBuilder) TryResolve(base Addr, off *expr.Expr) (int64, bool) {
	v := off.Const
	for _, t := range off.Terms {
		o, ok := b.TryResolve(base, t.Off)
		if !ok || !b.hasLength(base+o) {
			return 0, false
		}
		v += t.Scale * b.region.arena.ReadNative(base, o, t.Size)
	}
	return v, true
}

func (b *RecordBuilder) hasLength(addr Addr) bool {
	for _, l := range b.lengths {
		if l == addr {
			return true
		}
	}
	return false
}

// Covers reports whether addr lies within the open record's range.
func (b *RecordBuilder) Covers(addr Addr) bool {
	return addr >= b.base && addr <= b.End()
}
