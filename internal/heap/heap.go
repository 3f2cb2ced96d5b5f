// Package heap implements the simulated managed runtime heap that the
// baseline (untransformed) execution path runs on.
//
// Gerenuk's claimed wins come from removing three JVM costs: per-object
// header/reference space, garbage collection, and pointer-chasing data
// access. Go has none of these natively, so this package recreates them
// faithfully enough to measure: objects live in a byte-addressed space
// with 16-byte headers and 8-byte references (see internal/model), young
// objects are bump-allocated into a semispace nursery collected by a
// copying scavenger (modeling HotSpot's Parallel Scavenge, the paper's
// baseline GC), survivors are promoted to a bump-allocated old generation
// collected by sliding mark-compact, and every reference store runs a
// write barrier maintaining an old-to-young remembered set. All costs are
// real CPU work and real bytes, so the benchmark harness measures them
// directly rather than estimating.
//
// A Yak-style region policy (the paper's section 4.3 comparison target)
// is provided by the Epoch API: allocations between EpochStart and
// EpochEnd go to a region that is freed wholesale after an escape scan.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// Addr is a virtual address in the simulated heap. 0 is the null reference.
type Addr = int64

// ErrOutOfMemory is returned by allocation when a full collection cannot
// free enough space, mirroring a JVM OutOfMemoryError.
var ErrOutOfMemory = errors.New("heap: out of memory")

// header word0 bit layout:
//
//	bits 0..31   class ID (0 for arrays)
//	bit  32      isArray
//	bits 33..40  element kind (arrays)
//	bit  41      mark (mark-compact)
//	bit  42      forwarded (copying/compacting GC)
//	bits 43..47  age (number of scavenges survived)
//	bit  48      inRemembered (object is in the remembered set)
//
// word1 holds the identity hash, reused as the forwarding pointer while
// bit 42 is set during a collection.
const (
	flagArray      = 1 << 32
	elemKindShift  = 33
	elemKindMask   = 0xFF << elemKindShift
	flagMark       = 1 << 41
	flagForward    = 1 << 42
	ageShift       = 43
	ageMask        = 0x1F << ageShift
	flagRemembered = 1 << 48
)

// Virtual address space layout. Each space is a contiguous range so that
// generation membership checks are two comparisons, as in a real
// generational heap.
const (
	nullGuard  = int64(1 << 12)
	youngBase  = int64(1 << 20)
	spaceAlign = int64(model.ObjectAlign)
	// regionVirtualSpan bounds the virtual addresses of the epoch
	// region, whose physical pages grow on demand.
	regionVirtualSpan = int64(1) << 34
)

// Policy selects the collection behavior.
type Policy int

const (
	// PolicyGenerational is the default: copying young generation plus
	// mark-compact old generation, modeling Parallel Scavenge.
	PolicyGenerational Policy = iota
	// PolicyRegion is the Yak-style policy: epoch allocations go to a
	// region freed wholesale at epoch end after an escape scan. Outside
	// an epoch it behaves like PolicyGenerational.
	PolicyRegion
)

func (p Policy) String() string {
	switch p {
	case PolicyGenerational:
		return "parallel-scavenge"
	case PolicyRegion:
		return "yak"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config sizes the heap.
type Config struct {
	// YoungSize is the size in bytes of one nursery semispace.
	YoungSize int
	// OldSize is the size in bytes of the old generation.
	OldSize int
	// RegionSize is the size of the Yak epoch region (PolicyRegion only).
	RegionSize int
	// TenureAge is the number of scavenges an object survives before
	// promotion. Defaults to 2.
	TenureAge int
	Policy    Policy
	// Trace, when set, receives GC pause instants (with before/after
	// occupancy) and heap-occupancy counter samples on the owning task
	// attempt's trace row, and feeds the gc_pause_ns histogram. nil (the
	// default) disables all heap tracing.
	Trace *trace.Span
}

func (c Config) withDefaults() Config {
	if c.YoungSize <= 0 {
		c.YoungSize = 4 << 20
	}
	if c.OldSize <= 0 {
		c.OldSize = 16 << 20
	}
	if c.RegionSize <= 0 {
		c.RegionSize = c.OldSize
	}
	if c.TenureAge <= 0 {
		c.TenureAge = 2
	}
	return c
}

// Escalate returns a copy of the config with every generation size
// multiplied by factor (defaults applied first), the policy OOM-retry
// loops use to give a task that ran out of memory a larger heap on its
// next attempt instead of failing the job.
func (c Config) Escalate(factor int) Config {
	if factor <= 1 {
		return c
	}
	c = c.withDefaults()
	c.YoungSize *= factor
	c.OldSize *= factor
	c.RegionSize *= factor
	return c
}

// Stats accumulates heap and collector statistics for the metrics harness.
type Stats struct {
	AllocObjects   int64 // objects + arrays allocated
	AllocBytes     int64
	MinorGCs       int64
	MajorGCs       int64
	GCTime         time.Duration
	PromotedBytes  int64
	BarrierStores  int64 // reference stores that ran the write barrier
	RememberedAdds int64
	PeakUsedBytes  int64
	EpochsClosed   int64
	EpochEscapes   int64 // objects copied out of a region at epoch end
	FreedByEpoch   int64 // bytes freed wholesale at epoch ends
}

// RootProvider enumerates GC roots. The visit callback receives the
// address of each root slot so the moving collector can update it.
type RootProvider interface {
	VisitRoots(visit func(slot *Addr))
}

// RootFunc adapts a function to the RootProvider interface.
type RootFunc func(visit func(slot *Addr))

// VisitRoots implements RootProvider.
func (f RootFunc) VisitRoots(visit func(slot *Addr)) { f(visit) }

// Heap is a simulated managed heap. It is not safe for concurrent use: in
// the dataflow engines each task attempt holds one Heap for its whole
// run, taken from its job's free list and Reset on the way in, the way a
// JVM executor allocates its heap once and runs task after task over it.
// Reset rewinds the heap to its empty state, so "terminate the executor,
// discard its state" aborts stay trivially safe.
type Heap struct {
	reg *model.Registry
	cfg Config

	young    []byte // both semispaces, contiguous
	fromOff  int    // offset of from-space within young
	toOff    int    // offset of to-space within young
	youngTop int    // bump pointer within from-space
	toTop    int    // bump pointer within to-space during a scavenge
	youngBeg int64
	youngEnd int64

	old    []byte
	oldTop int // bump pointer
	oldBeg int64
	oldEnd int64

	region    []byte
	regionTop int
	regionBeg int64
	regionEnd int64
	inEpoch   bool

	// remembered holds old/region objects that may reference young (or,
	// in an epoch, region) objects; scanned during scavenges.
	remembered []Addr

	roots []RootProvider

	stats Stats

	// gcHist is the shared gc_pause_ns histogram handle, resolved once
	// at construction so collections never pay a registry lookup. nil
	// when tracing is disabled (Observe on nil is a no-op).
	gcHist *trace.Histogram
}

// New creates a heap over the given class registry.
func New(reg *model.Registry, cfg Config) *Heap {
	c := cfg.withDefaults()
	h := &Heap{reg: reg, cfg: c}
	h.young = make([]byte, 2*c.YoungSize)
	h.toOff = c.YoungSize
	h.youngBeg = youngBase
	h.youngEnd = youngBase + int64(2*c.YoungSize)
	h.old = make([]byte, c.OldSize)
	h.oldBeg = alignUp64(h.youngEnd+nullGuard, spaceAlign)
	h.oldEnd = h.oldBeg + int64(c.OldSize)
	if c.Policy == PolicyRegion {
		h.region = make([]byte, c.RegionSize)
	}
	h.regionBeg = alignUp64(h.oldEnd+nullGuard, spaceAlign)
	// The region grows on demand (Yak regions are page lists); reserve a
	// generous virtual span for it.
	h.regionEnd = h.regionBeg + regionVirtualSpan
	h.gcHist = c.Trace.Tracer().Registry().Histogram("gc_pause_ns", trace.LatencyBuckets()...)
	return h
}

// Reset puts the heap back in the state New left it in — empty spaces,
// no roots, no remembered holders, zeroed Stats, no open epoch — with tr
// as its trace span, so one Heap can serve attempt after attempt. It
// clears no bytes: every allocation zeroes what it hands out, the
// collectors copy whole objects, and every walk stops at a top pointer,
// so nothing reads a byte the previous user left behind.
func (h *Heap) Reset(tr *trace.Span) {
	h.cfg.Trace = tr
	h.fromOff, h.toOff = 0, h.cfg.YoungSize
	h.youngTop, h.toTop = 0, 0
	h.oldTop = 0
	h.region = h.region[:min(len(h.region), h.cfg.RegionSize)]
	h.regionTop = 0
	h.inEpoch = false
	h.remembered = h.remembered[:0]
	clear(h.roots)
	h.roots = h.roots[:0]
	h.stats = Stats{}
	h.gcHist = tr.Tracer().Registry().Histogram("gc_pause_ns", trace.LatencyBuckets()...)
}

// traceGC emits one GC instant event on the owning attempt's trace row
// and records the pause in the shared gc_pause_ns histogram.
func (h *Heap) traceGC(kind string, pause time.Duration, beforeUsed int64) {
	sp := h.cfg.Trace
	if sp == nil {
		return
	}
	used := h.UsedBytes()
	sp.Instant("gc", kind,
		trace.I64("pause_ns", int64(pause)),
		trace.I64("heap_before_bytes", beforeUsed),
		trace.I64("heap_after_bytes", used))
	sp.Counter("heap_used_bytes", used)
	h.gcHist.Observe(float64(pause))
}

// Registry returns the class registry the heap was created with.
func (h *Heap) Registry() *model.Registry { return h.reg }

// Config returns the (defaulted) configuration.
func (h *Heap) Config() Config { return h.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (h *Heap) Stats() Stats { return h.stats }

// UsedBytes returns the currently used bytes across all spaces.
func (h *Heap) UsedBytes() int64 {
	return int64(h.youngTop) + int64(h.oldTop) + int64(h.regionTop)
}

// AddRoots registers a root provider and returns a function that removes
// it. Roots must stay registered while any allocation can happen, because
// the copying collector moves objects and rewrites root slots.
func (h *Heap) AddRoots(p RootProvider) (remove func()) {
	h.roots = append(h.roots, p)
	idx := len(h.roots) - 1
	return func() {
		h.roots[idx] = nil
		// Trim trailing removed entries so the slice does not grow
		// unboundedly under LIFO registration patterns.
		for len(h.roots) > 0 && h.roots[len(h.roots)-1] == nil {
			h.roots = h.roots[:len(h.roots)-1]
		}
	}
}

// ---- address/space helpers ----

func (h *Heap) inYoung(a Addr) bool  { return a >= h.youngBeg && a < h.youngEnd }
func (h *Heap) inOld(a Addr) bool    { return a >= h.oldBeg && a < h.oldEnd }
func (h *Heap) inRegion(a Addr) bool { return a >= h.regionBeg && a < h.regionEnd }

// InRegion reports whether a points into the Yak epoch region. Exposed
// for tests asserting escape behavior.
func (h *Heap) InRegion(a Addr) bool { return h.inRegion(a) }

// InOld reports whether a points into the old generation.
func (h *Heap) InOld(a Addr) bool { return h.inOld(a) }

// mem returns the backing bytes at address a. It panics on wild
// addresses: such a panic indicates an engine or interpreter bug, not a
// user-program error.
func (h *Heap) mem(a Addr) []byte {
	switch {
	case h.inYoung(a):
		return h.young[a-h.youngBeg:]
	case h.inOld(a):
		return h.old[a-h.oldBeg:]
	case h.inRegion(a):
		return h.region[a-h.regionBeg:]
	default:
		panic(fmt.Sprintf("heap: wild address %#x", a))
	}
}

func (h *Heap) word0(a Addr) uint64       { return binary.LittleEndian.Uint64(h.mem(a)) }
func (h *Heap) setWord0(a Addr, v uint64) { binary.LittleEndian.PutUint64(h.mem(a), v) }
func (h *Heap) word1(a Addr) uint64       { return binary.LittleEndian.Uint64(h.mem(a)[8:]) }
func (h *Heap) setWord1(a Addr, v uint64) { binary.LittleEndian.PutUint64(h.mem(a)[8:], v) }

// ClassOf returns the class of the object at a, or nil for arrays.
func (h *Heap) ClassOf(a Addr) *model.Class {
	w := h.word0(a)
	if w&flagArray != 0 {
		return nil
	}
	return h.reg.ByID(uint32(w))
}

// IsArray reports whether a refers to an array object.
func (h *Heap) IsArray(a Addr) bool { return h.word0(a)&flagArray != 0 }

// ElemKind returns the element kind of the array at a.
func (h *Heap) ElemKind(a Addr) model.Kind {
	return model.Kind((h.word0(a) & elemKindMask) >> elemKindShift)
}

// ArrayLen returns the length of the array at a.
func (h *Heap) ArrayLen(a Addr) int {
	return int(int32(binary.LittleEndian.Uint32(h.mem(a)[model.HeaderSize:])))
}

// SizeOf returns the heap size in bytes of the object at a, header included.
func (h *Heap) SizeOf(a Addr) int {
	w := h.word0(a)
	if w&flagArray != 0 {
		return model.ArraySize(model.Kind((w&elemKindMask)>>elemKindShift), h.ArrayLen(a))
	}
	c := h.reg.ByID(uint32(w))
	if c == nil {
		panic(fmt.Sprintf("heap: object %#x has unknown class id %d", a, uint32(w)))
	}
	return c.Size
}

// ---- allocation ----

// AllocObject allocates a zeroed instance of class c. It may trigger a
// collection, which can move previously allocated objects: any reference
// the caller holds across an allocation must be reachable from a
// registered root.
func (h *Heap) AllocObject(c *model.Class) (Addr, error) {
	a, err := h.allocRaw(c.Size)
	if err != nil {
		return 0, err
	}
	h.setWord0(a, uint64(c.ID))
	h.stats.AllocObjects++
	h.stats.AllocBytes += int64(c.Size)
	return a, nil
}

// AllocArray allocates a zeroed array of n elements of the given kind
// (model.KindRef for reference arrays).
func (h *Heap) AllocArray(elem model.Kind, n int) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("heap: negative array length %d", n)
	}
	size := model.ArraySize(elem, n)
	a, err := h.allocRaw(size)
	if err != nil {
		return 0, err
	}
	h.setWord0(a, flagArray|uint64(elem)<<elemKindShift)
	binary.LittleEndian.PutUint32(h.mem(a)[model.HeaderSize:], uint32(n))
	h.stats.AllocObjects++
	h.stats.AllocBytes += int64(size)
	return a, nil
}

func (h *Heap) allocRaw(size int) (Addr, error) {
	size = alignUp(size, model.ObjectAlign)
	if h.inEpoch && h.cfg.Policy == PolicyRegion {
		return h.allocRegion(size)
	}
	if size > h.cfg.YoungSize/2 {
		// Humongous allocations go straight to the old generation, as
		// HotSpot does for objects that would not fit the nursery.
		return h.allocOld(size)
	}
	if h.youngTop+size > h.cfg.YoungSize {
		if err := h.minorGC(); err != nil {
			return 0, err
		}
		if h.youngTop+size > h.cfg.YoungSize {
			return h.allocOld(size)
		}
	}
	a := h.youngBeg + int64(h.fromOff+h.youngTop)
	h.youngTop += size
	h.clear(a, size)
	h.trackPeak()
	return a, nil
}

func (h *Heap) allocOld(size int) (Addr, error) {
	if h.oldTop+size > h.cfg.OldSize {
		if err := h.fullGC(); err != nil {
			return 0, err
		}
		if h.oldTop+size > h.cfg.OldSize {
			return 0, fmt.Errorf("%w: old generation cannot fit %d bytes (%d used of %d)",
				ErrOutOfMemory, size, h.oldTop, h.cfg.OldSize)
		}
	}
	a := h.oldBeg + int64(h.oldTop)
	h.oldTop += size
	h.clear(a, size)
	h.trackPeak()
	return a, nil
}

// bumpOld is the non-collecting promotion allocator used inside GC.
func (h *Heap) bumpOld(size int) (Addr, bool) {
	if h.oldTop+size > h.cfg.OldSize {
		return 0, false
	}
	a := h.oldBeg + int64(h.oldTop)
	h.oldTop += size
	return a, true
}

func (h *Heap) allocRegion(size int) (Addr, error) {
	for h.regionTop+size > len(h.region) {
		// Yak appends pages to the epoch region as it fills; model that
		// by doubling the backing store.
		grow := len(h.region)
		if grow < h.cfg.RegionSize {
			grow = h.cfg.RegionSize
		}
		if int64(len(h.region)+grow) > regionVirtualSpan {
			return 0, fmt.Errorf("%w: epoch region cannot fit %d bytes", ErrOutOfMemory, size)
		}
		h.region = append(h.region, make([]byte, grow)...)
	}
	a := h.regionBeg + int64(h.regionTop)
	h.regionTop += size
	h.clear(a, size)
	h.trackPeak()
	return a, nil
}

func (h *Heap) clear(a Addr, size int) {
	m := h.mem(a)[:size]
	for i := range m {
		m[i] = 0
	}
}

func (h *Heap) trackPeak() {
	if u := h.UsedBytes(); u > h.stats.PeakUsedBytes {
		h.stats.PeakUsedBytes = u
	}
}

// ---- field and array access ----

// GetPrim reads the primitive field of the given kind at byte offset off,
// returning its raw bits widened to uint64 (floats as IEEE-754 bits).
func (h *Heap) GetPrim(a Addr, off int, k model.Kind) uint64 {
	m := h.mem(a)[off:]
	switch k.Size() {
	case 1:
		return uint64(m[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m))
	case 8:
		return binary.LittleEndian.Uint64(m)
	default:
		panic("heap: GetPrim of invalid kind")
	}
}

// SetPrim writes the primitive field at byte offset off.
func (h *Heap) SetPrim(a Addr, off int, k model.Kind, bits uint64) {
	m := h.mem(a)[off:]
	switch k.Size() {
	case 1:
		m[0] = byte(bits)
	case 2:
		binary.LittleEndian.PutUint16(m, uint16(bits))
	case 4:
		binary.LittleEndian.PutUint32(m, uint32(bits))
	case 8:
		binary.LittleEndian.PutUint64(m, bits)
	default:
		panic("heap: SetPrim of invalid kind")
	}
}

// GetRef reads the reference field at byte offset off.
func (h *Heap) GetRef(a Addr, off int) Addr {
	return int64(binary.LittleEndian.Uint64(h.mem(a)[off:]))
}

// SetRef writes the reference field at byte offset off, running the
// generational write barrier.
func (h *Heap) SetRef(holder Addr, off int, val Addr) {
	binary.LittleEndian.PutUint64(h.mem(holder)[off:], uint64(val))
	h.writeBarrier(holder, val)
}

// ArrayGetPrim reads element i of a primitive array.
func (h *Heap) ArrayGetPrim(a Addr, i int, k model.Kind) uint64 {
	h.boundsCheck(a, i)
	return h.GetPrim(a, model.ArrayDataOffset+i*k.Size(), k)
}

// ArraySetPrim writes element i of a primitive array.
func (h *Heap) ArraySetPrim(a Addr, i int, k model.Kind, bits uint64) {
	h.boundsCheck(a, i)
	h.SetPrim(a, model.ArrayDataOffset+i*k.Size(), k, bits)
}

// ArrayGetRef reads element i of a reference array.
func (h *Heap) ArrayGetRef(a Addr, i int) Addr {
	h.boundsCheck(a, i)
	return h.GetRef(a, model.ArrayDataOffset+i*model.RefSize)
}

// ArraySetRef writes element i of a reference array with the write barrier.
func (h *Heap) ArraySetRef(a Addr, i int, val Addr) {
	h.boundsCheck(a, i)
	h.SetRef(a, model.ArrayDataOffset+i*model.RefSize, val)
}

// boundsCheck models the JVM's mandatory array bounds check — one of the
// per-access runtime costs the transformation eliminates (paper section 2).
func (h *Heap) boundsCheck(a Addr, i int) {
	if n := h.ArrayLen(a); i < 0 || i >= n {
		panic(fmt.Sprintf("heap: index %d out of bounds for length %d", i, n))
	}
}

// writeBarrier maintains the old-to-young remembered set. Every reference
// store pays for it, modeling the card-marking barrier whose per-write
// cost the paper calls out (sections 2 and 4.3).
func (h *Heap) writeBarrier(holder, val Addr) {
	h.stats.BarrierStores++
	if val == 0 {
		return
	}
	cross := (h.inOld(holder) || h.inRegion(holder)) && h.inYoung(val)
	if h.cfg.Policy == PolicyRegion && h.inEpoch && !h.inRegion(holder) && h.inRegion(val) {
		// Yak's barrier additionally records references into the region
		// from outside it so the epoch-end escape scan has its roots.
		cross = true
	}
	if !cross {
		return
	}
	w := h.word0(holder)
	if w&flagRemembered != 0 {
		return
	}
	h.setWord0(holder, w|flagRemembered)
	h.remembered = append(h.remembered, holder)
	h.stats.RememberedAdds++
}

// ---- garbage collection ----

// Collect forces a full collection.
func (h *Heap) Collect() error { return h.fullGC() }

// minorGC scavenges the nursery: live young objects are copied to
// to-space (or promoted once tenured), and all root and remembered-set
// slots are updated.
func (h *Heap) minorGC() error {
	// Pre-flight: if the worst case (everything survives and promotes)
	// cannot fit the old generation, compact it first so promotion
	// cannot fail mid-scavenge.
	if h.oldTop+h.youngTop > h.cfg.OldSize {
		if err := h.fullGC(); err != nil {
			return err
		}
		if h.oldTop+h.youngTop > h.cfg.OldSize {
			return fmt.Errorf("%w: old generation too full to guarantee scavenge", ErrOutOfMemory)
		}
		return nil // fullGC emptied the nursery
	}
	start := time.Now()
	before := h.UsedBytes()
	defer func() {
		pause := time.Since(start)
		h.stats.GCTime += pause
		h.stats.MinorGCs++
		h.traceGC("minor-gc", pause, before)
	}()
	return h.scavenge(h.cfg.TenureAge)
}

// scavenge performs the copying collection of the nursery, promoting
// objects that reach tenureAge scavenges. The caller guarantees
// promotions fit.
func (h *Heap) scavenge(tenureAge int) error {
	h.toTop = 0
	var err error
	forward := func(slot *Addr) {
		if err != nil {
			return
		}
		if e := h.evacuate(slot, tenureAge); e != nil {
			err = e
		}
	}
	h.visitAllRoots(forward)
	rem := h.remembered
	h.remembered = h.remembered[:0]
	for _, holder := range rem {
		h.setWord0(holder, h.word0(holder)&^flagRemembered)
		h.visitRefSlots(holder, forward)
	}
	if err != nil {
		return err
	}
	// Gray-set drain: Cheney scan of to-space, interleaved with scanning
	// freshly promoted objects (evacuate appends them to h.remembered),
	// whose slots may still point into from-space.
	scan, promScan := 0, 0
	for scan < h.toTop || promScan < len(h.remembered) {
		for scan < h.toTop {
			a := h.youngBeg + int64(h.toOff+scan)
			size := h.SizeOf(a)
			h.visitRefSlots(a, forward)
			if err != nil {
				return err
			}
			scan += size
		}
		for promScan < len(h.remembered) {
			h.visitRefSlots(h.remembered[promScan], forward)
			promScan++
			if err != nil {
				return err
			}
		}
	}
	// Re-remember holders that still reference the nursery or region.
	for _, holder := range rem {
		h.reRemember(holder)
	}
	h.fromOff, h.toOff = h.toOff, h.fromOff
	h.youngTop = h.toTop
	return nil
}

func (h *Heap) reRemember(holder Addr) {
	if !h.inOld(holder) && !h.inRegion(holder) {
		return
	}
	if h.word0(holder)&flagRemembered != 0 {
		return
	}
	found := false
	h.visitRefSlots(holder, func(slot *Addr) {
		if h.inYoung(*slot) || (h.inEpoch && h.inRegion(*slot) && !h.inRegion(holder)) {
			found = true
		}
	})
	if found {
		h.setWord0(holder, h.word0(holder)|flagRemembered)
		h.remembered = append(h.remembered, holder)
	}
}

// evacuate copies the young object referenced by *slot out of from-space
// and updates the slot. Old and region objects are left in place.
func (h *Heap) evacuate(slot *Addr, tenureAge int) error {
	a := *slot
	if a == 0 || !h.inYoung(a) {
		return nil
	}
	w := h.word0(a)
	if w&flagForward != 0 {
		*slot = int64(h.word1(a))
		return nil
	}
	size := h.SizeOf(a)
	age := int((w & ageMask) >> ageShift)
	var na Addr
	if age+1 >= tenureAge || h.toTop+size > h.cfg.YoungSize {
		na2, ok := h.bumpOld(size)
		if !ok {
			return fmt.Errorf("%w: promotion of %d bytes failed", ErrOutOfMemory, size)
		}
		na = na2
		copy(h.old[na-h.oldBeg:na-h.oldBeg+int64(size)], h.mem(a)[:size])
		h.stats.PromotedBytes += int64(size)
		// The promoted object may reference young survivors: remember it.
		h.setWord0(na, (w&^(ageMask|flagRemembered))|flagRemembered)
		h.remembered = append(h.remembered, na)
	} else {
		na = h.youngBeg + int64(h.toOff+h.toTop)
		copy(h.young[h.toOff+h.toTop:h.toOff+h.toTop+size], h.mem(a)[:size])
		h.toTop += size
		h.setWord0(na, (w&^(ageMask|flagRemembered))|uint64(age+1)<<ageShift)
	}
	h.setWord0(a, w|flagForward)
	h.setWord1(a, uint64(na))
	*slot = na
	return nil
}

// fullGC performs a stop-the-world full collection: mark everything live,
// slide-compact the old generation, then scavenge the nursery with
// immediate tenuring so it drains into the compacted old space.
func (h *Heap) fullGC() error {
	start := time.Now()
	before := h.UsedBytes()
	defer func() {
		pause := time.Since(start)
		h.stats.GCTime += pause
		h.stats.MajorGCs++
		h.traceGC("major-gc", pause, before)
	}()

	// Phase 1: mark from roots and remembered holders.
	var stack []Addr
	mark := func(slot *Addr) {
		a := *slot
		if a == 0 {
			return
		}
		w := h.word0(a)
		if w&flagMark != 0 {
			return
		}
		h.setWord0(a, w|flagMark)
		stack = append(stack, a)
	}
	h.visitAllRoots(mark)
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.visitRefSlots(a, mark)
	}

	// Phase 2: compute forwarding addresses for live old objects
	// (sliding compaction to the left).
	newTop := 0
	for off := 0; off < h.oldTop; {
		a := h.oldBeg + int64(off)
		size := alignUp(h.SizeOf(a), model.ObjectAlign)
		w := h.word0(a)
		if w&flagMark != 0 {
			h.setWord0(a, w|flagForward)
			h.setWord1(a, uint64(h.oldBeg+int64(newTop)))
			newTop += size
		}
		off += size
	}

	// Phase 3: update every reference slot that may point into old gen:
	// roots, live young objects (from-space walk), live old objects,
	// and region objects.
	fix := func(slot *Addr) {
		a := *slot
		if a == 0 || !h.inOld(a) {
			return
		}
		if h.word0(a)&flagForward != 0 {
			*slot = int64(h.word1(a))
		}
	}
	h.visitAllRoots(fix)
	h.walkSpace(h.youngBeg+int64(h.fromOff), h.youngTop, func(a Addr) {
		if h.word0(a)&flagMark != 0 {
			h.visitRefSlots(a, fix)
		}
	})
	h.walkSpace(h.oldBeg, h.oldTop, func(a Addr) {
		if h.word0(a)&flagMark != 0 {
			h.visitRefSlots(a, fix)
		}
	})
	h.walkSpace(h.regionBeg, h.regionTop, func(a Addr) {
		if h.word0(a)&flagMark != 0 {
			h.visitRefSlots(a, fix)
		}
	})

	// Phase 4: move live old objects left and clear their flags; clear
	// flags in young and region.
	h.remembered = h.remembered[:0]
	for off := 0; off < h.oldTop; {
		a := h.oldBeg + int64(off)
		size := alignUp(h.SizeOf(a), model.ObjectAlign)
		w := h.word0(a)
		if w&flagMark != 0 {
			dst := int64(h.word1(a)) - h.oldBeg
			clean := w &^ (flagMark | flagForward | flagRemembered)
			h.setWord0(a, clean)
			h.setWord1(a, 0)
			copy(h.old[dst:dst+int64(size)], h.old[off:off+size])
		}
		off += size
	}
	h.oldTop = newTop
	h.walkSpace(h.youngBeg+int64(h.fromOff), h.youngTop, func(a Addr) {
		h.setWord0(a, h.word0(a)&^(flagMark|flagRemembered))
	})
	h.walkSpace(h.regionBeg, h.regionTop, func(a Addr) {
		w := h.word0(a) &^ flagMark
		h.setWord0(a, w)
	})
	// Rebuild the remembered set: old/region objects referencing young
	// or (in-epoch) region objects. Young survivors are about to be
	// promoted below, and region holders must be re-found.
	h.walkSpace(h.oldBeg, h.oldTop, func(a Addr) { h.reRemember(a) })
	h.walkSpace(h.regionBeg, h.regionTop, func(a Addr) {
		h.setWord0(a, h.word0(a)&^flagRemembered)
		h.reRemember(a)
	})

	// Phase 5: drain the nursery into the compacted old generation,
	// promoting everything that survives. The tenure age is an argument,
	// not a config edit, so a panic mid-collection cannot leave the
	// config changed for the heap's next user.
	return h.scavenge(1)
}

// walkSpace iterates object base addresses over a linearly allocated
// space of `top` used bytes starting at virtual address beg.
func (h *Heap) walkSpace(beg int64, top int, f func(a Addr)) {
	for off := 0; off < top; {
		a := beg + int64(off)
		size := alignUp(h.SizeOf(a), model.ObjectAlign)
		f(a)
		off += size
	}
}

func (h *Heap) visitAllRoots(visit func(slot *Addr)) {
	for _, p := range h.roots {
		if p != nil {
			p.VisitRoots(visit)
		}
	}
}

// visitRefSlots calls visit for each reference slot inside the object at
// a. The callback may rewrite the slot; the new value is stored back.
func (h *Heap) visitRefSlots(a Addr, visit func(slot *Addr)) {
	w := h.word0(a)
	if w&flagArray != 0 {
		if model.Kind((w&elemKindMask)>>elemKindShift) != model.KindRef {
			return
		}
		n := h.ArrayLen(a)
		m := h.mem(a)
		for i := 0; i < n; i++ {
			off := model.ArrayDataOffset + i*model.RefSize
			v := int64(binary.LittleEndian.Uint64(m[off:]))
			visit(&v)
			binary.LittleEndian.PutUint64(m[off:], uint64(v))
		}
		return
	}
	c := h.reg.ByID(uint32(w))
	if c == nil {
		panic(fmt.Sprintf("heap: visitRefSlots on unknown class id %d at %#x", uint32(w), a))
	}
	m := h.mem(a)
	for _, f := range c.Fields {
		if !f.Type.IsRef() {
			continue
		}
		v := int64(binary.LittleEndian.Uint64(m[f.Offset:]))
		visit(&v)
		binary.LittleEndian.PutUint64(m[f.Offset:], uint64(v))
	}
}

// ---- Yak-style epochs (PolicyRegion) ----

// EpochStart begins a Yak epoch: subsequent allocations go to the region.
// A no-op under other policies, so callers can be policy-agnostic.
func (h *Heap) EpochStart() {
	if h.cfg.Policy != PolicyRegion {
		return
	}
	h.inEpoch = true
}

// EpochEnd closes the epoch: objects in the region reachable from outside
// it (from roots, or from holders recorded by the write barrier) are
// copied to the old generation — Yak's escape handling — and the region
// is freed wholesale. This is the "scan before deallocation" cost that
// Gerenuk's compiler-guaranteed confinement avoids (paper section 4.3).
func (h *Heap) EpochEnd() error {
	if h.cfg.Policy != PolicyRegion || !h.inEpoch {
		return nil
	}
	start := time.Now()
	h.inEpoch = false

	var err error
	var work []Addr
	move := func(slot *Addr) {
		if err != nil {
			return
		}
		a := *slot
		if a == 0 || !h.inRegion(a) {
			return
		}
		w := h.word0(a)
		if w&flagForward != 0 {
			*slot = int64(h.word1(a))
			return
		}
		size := h.SizeOf(a)
		na, ok := h.bumpOld(alignUp(size, model.ObjectAlign))
		if !ok {
			err = fmt.Errorf("%w: epoch escape promotion failed", ErrOutOfMemory)
			return
		}
		copy(h.old[na-h.oldBeg:na-h.oldBeg+int64(size)], h.mem(a)[:size])
		h.setWord0(na, w&^flagRemembered)
		h.setWord0(a, w|flagForward)
		h.setWord1(a, uint64(na))
		*slot = na
		h.stats.EpochEscapes++
		work = append(work, na)
	}
	h.visitAllRoots(move)
	rem := h.remembered
	h.remembered = h.remembered[:0]
	for _, holder := range rem {
		if h.inRegion(holder) {
			continue // the holder dies with the region
		}
		h.setWord0(holder, h.word0(holder)&^flagRemembered)
		h.visitRefSlots(holder, move)
	}
	for i := 0; i < len(work); i++ {
		h.visitRefSlots(work[i], move)
	}
	if err != nil {
		return err
	}
	// Holders that still reference young objects must stay remembered.
	for _, holder := range rem {
		if !h.inRegion(holder) {
			h.reRemember(holder)
		}
	}
	for _, na := range work {
		h.reRemember(na)
	}
	freed := int64(h.regionTop)
	h.stats.FreedByEpoch += freed
	h.regionTop = 0
	h.stats.EpochsClosed++
	pause := time.Since(start)
	h.stats.GCTime += pause
	if sp := h.cfg.Trace; sp != nil {
		sp.Instant("gc", "epoch-end",
			trace.I64("pause_ns", int64(pause)),
			trace.I64("freed_bytes", freed),
			trace.I64("escapes", h.stats.EpochEscapes))
		sp.Counter("heap_used_bytes", h.UsedBytes())
		h.gcHist.Observe(float64(pause))
	}
	return nil
}

// ---- small utilities ----

// Float64FromBits converts stored IEEE-754 bits to a float64.
func Float64FromBits(b uint64) float64 { return math.Float64frombits(b) }

// Float64Bits converts a float64 to its storage bits.
func Float64Bits(f float64) uint64 { return math.Float64bits(f) }

func alignUp(n, a int) int       { return (n + a - 1) &^ (a - 1) }
func alignUp64(n, a int64) int64 { return (n + a - 1) &^ (a - 1) }
