// Package arena implements the native-memory side of the Gerenuk runtime:
// the buffers that hold inlined, pointer-free data records and the
// readNative/writeNative primitives the transformed code uses to access
// them (paper sections 3.5-3.6).
//
// Memory is organized into regions. A region holds the inlined records of
// one logical buffer — a task's input, a materialized RDD partition, a
// shuffle output — and is freed wholesale when the task that owns it
// finishes, which is the region-based memory management the paper gets
// "for free" from the confinement guarantee: the compiler has proven no
// heap object can reference into the buffer, so no scan is needed before
// deallocation.
//
// Addresses are 64-bit virtual values: the high 31 bits select the region
// and the low 32 bits are the offset within it, so cross-region addresses
// resolve in O(1) and never collide with simulated-heap addresses (which
// stay far below 2^32).
package arena

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/trace"
)

// Addr is a virtual native-memory address. 0 is the null/invalid address.
type Addr = int64

// Fault describes a native-memory access violation detected at run time:
// a wild address, an access into a freed region, or an out-of-bounds
// read/write. The data paths reachable from transformed code panic with
// *Fault so the engine's containment layer can classify the panic as a
// speculation violation (de-speculate and re-execute the heap path)
// rather than a runtime bug. API misuse by engine code itself — growing
// or appending to a region it already freed, or passing an invalid
// access size — keeps plain panics: those indicate bugs, not failed
// speculation.
type Fault struct{ Msg string }

func (f *Fault) Error() string { return "arena: " + f.Msg }

// fault raises a native access violation.
func fault(format string, args ...interface{}) {
	panic(&Fault{Msg: fmt.Sprintf(format, args...)})
}

const (
	regionShift = 32
	offsetMask  = (1 << regionShift) - 1
)

// Stats accumulates arena accounting for the metrics harness.
type Stats struct {
	AllocBytes int64 // total bytes ever appended
	FreedBytes int64 // bytes released by region frees
	PeakBytes  int64 // maximum simultaneously live bytes
	Regions    int64 // regions ever created
}

// arenaTraceGranularity is the minimum live-byte growth between two
// arena-occupancy counter samples: growth is traced at 64KB resolution
// rather than per append, keeping event volume bounded.
const arenaTraceGranularity = 64 << 10

// Arena manages a set of regions. Not safe for concurrent use; each
// task attempt holds one for its whole run, mirroring per-worker native
// buffers, and Reset lets the next attempt reuse its storage.
type Arena struct {
	regions []*Region // index+1 == region id; nil after free
	live    int64
	stats   Stats

	// spare holds the storage of regions the arena allocated itself,
	// kept by Reset for later NewRegion calls. The top of the stack is
	// the buffer of the lowest-numbered region, so an attempt that
	// creates its regions in the same order as the last one gets each
	// region's old storage back.
	spare [][]byte

	trace          *trace.Span
	lastTracedLive int64
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// SetTrace attaches the owning task attempt's trace span. The arena
// then emits region-adoption instants and live-byte counter samples
// (at arenaTraceGranularity resolution) on that span's row.
func (a *Arena) SetTrace(sp *trace.Span) { a.trace = sp }

// Stats returns a snapshot of the accounting counters.
func (a *Arena) Stats() Stats { return a.stats }

// LiveBytes returns the bytes currently held by unfreed regions.
func (a *Arena) LiveBytes() int64 { return a.live }

// Region is a growable native buffer holding inlined records back to back.
type Region struct {
	arena *Arena
	id    int // 1-based
	name  string
	buf   []byte
	freed bool
	// owned marks a region wrapped around a caller's payload
	// (AdoptBytesOwned): its bytes are never recycled.
	owned bool
}

// NewRegion creates a region. The name is used in diagnostics only.
func (a *Arena) NewRegion(name string) *Region {
	r := a.newRegion(name)
	if n := len(a.spare); n > 0 {
		r.buf = a.spare[n-1]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
	}
	return r
}

func (a *Arena) newRegion(name string) *Region {
	r := &Region{arena: a, id: len(a.regions) + 1, name: name}
	a.regions = append(a.regions, r)
	a.stats.Regions++
	return r
}

// Reset frees every region and zeroes the accounting, returning the
// arena to the state New left it in, except that the storage of regions
// the arena allocated itself is kept for later NewRegion calls. It
// clears no bytes: a region's length starts at zero, every extension
// (Append, grow, WriteNative) zero-fills, and every read is bounded by
// the length. Regions from AdoptBytesOwned are dropped, never recycled:
// their bytes are the caller's. Handles to the old regions read as
// freed.
func (a *Arena) Reset() {
	for i := len(a.regions) - 1; i >= 0; i-- {
		r := a.regions[i]
		if r == nil {
			continue
		}
		if !r.owned && cap(r.buf) > 0 {
			a.spare = append(a.spare, r.buf[:0])
		}
		r.freed, r.buf = true, nil
	}
	clear(a.regions)
	a.regions = a.regions[:0]
	a.live, a.stats, a.trace, a.lastTracedLive = 0, Stats{}, nil, 0
}

// AdoptBytes creates a region around an existing byte payload, e.g. a
// shuffle block received "from the network" or a generated input file.
// The bytes are copied, modeling the transfer into executor-local memory.
func (a *Arena) AdoptBytes(name string, data []byte) *Region {
	r := a.NewRegion(name)
	r.buf = append(r.buf, data...)
	a.account(int64(len(data)))
	a.trace.Instant("arena", "region-adopt",
		trace.Str("region", name), trace.I64("bytes", int64(len(data))))
	return r
}

// AdoptBytesOwned creates a region directly over a payload whose
// ownership transfers to the arena — the zero-copy path for native
// shuffle blocks the exchange assembled fresh for this task. The caller
// must not retain or mutate data. The slice is re-capped to its length
// so a later Grow/Append reallocates instead of scribbling past it.
func (a *Arena) AdoptBytesOwned(name string, data []byte) *Region {
	r := a.newRegion(name)
	r.buf = data[:len(data):len(data)]
	r.owned = true
	a.account(int64(len(data)))
	a.trace.Instant("arena", "region-adopt",
		trace.Str("region", name), trace.I64("bytes", int64(len(data))),
		trace.I64("zero_copy", 1))
	return r
}

func (a *Arena) account(delta int64) {
	a.live += delta
	if delta > 0 {
		a.stats.AllocBytes += delta
	}
	if a.live > a.stats.PeakBytes {
		a.stats.PeakBytes = a.live
	}
	if a.trace != nil && a.live-a.lastTracedLive >= arenaTraceGranularity {
		a.lastTracedLive = a.live
		a.trace.Counter("arena_live_bytes", a.live)
	}
}

// Free releases the region wholesale — no per-record scan, the payoff of
// compiler-guaranteed confinement.
func (r *Region) Free() {
	if r.freed {
		return
	}
	r.freed = true
	r.arena.account(-int64(len(r.buf)))
	r.arena.stats.FreedBytes += int64(len(r.buf))
	r.arena.regions[r.id-1] = nil
	r.buf = nil
}

// Freed reports whether the region has been released.
func (r *Region) Freed() bool { return r.freed }

// Name returns the diagnostic name.
func (r *Region) Name() string { return r.name }

// Len returns the used bytes of the region.
func (r *Region) Len() int { return len(r.buf) }

// Base returns the virtual address of offset 0 in the region.
func (r *Region) Base() Addr { return int64(r.id) << regionShift }

// AddrOf returns the virtual address of the given offset.
func (r *Region) AddrOf(off int) Addr { return r.Base() + int64(off) }

// Bytes returns the raw region contents (e.g. to ship through a shuffle).
// The slice aliases the region; callers must copy before the region grows
// or is freed.
func (r *Region) Bytes() []byte { return r.buf }

// Append reserves n zeroed bytes at the end of the region and returns
// their virtual address. This is the appendToBuffer primitive of
// Algorithm 1 (Case 6).
func (r *Region) Append(n int) Addr {
	if r.freed {
		panic(fmt.Sprintf("arena: append to freed region %q", r.name))
	}
	off := len(r.buf)
	r.extend(n)
	r.arena.account(int64(n))
	return r.AddrOf(off)
}

// extend appends n zero bytes to the region's buffer. It allocates only
// when the buffer's capacity runs out — append(buf, make(n)...) does the
// same, but not when the build is race-instrumented.
func (r *Region) extend(n int) {
	off := len(r.buf)
	r.buf = slices.Grow(r.buf, n)[:off+n]
	clear(r.buf[off:])
}

// AppendBytes appends a prebuilt byte payload (e.g. a serialized record)
// and returns its virtual address.
func (r *Region) AppendBytes(p []byte) Addr {
	if r.freed {
		panic(fmt.Sprintf("arena: append to freed region %q", r.name))
	}
	off := len(r.buf)
	r.buf = append(r.buf, p...)
	r.arena.account(int64(len(p)))
	return r.AddrOf(off)
}

// resolve maps a virtual address to (region, offset). Panics with *Fault
// on invalid or freed addresses: the transformation must guarantee that
// only live buffer addresses flow, so hitting one of these during a
// speculative attempt is a speculation violation the engine converts
// into an abort-and-re-execute.
func (a *Arena) resolve(addr Addr) (*Region, int) {
	id := int(addr >> regionShift)
	if id <= 0 || id > len(a.regions) {
		fault("wild native address %#x", addr)
	}
	r := a.regions[id-1]
	if r == nil {
		fault("address %#x into freed region", addr)
	}
	return r, int(addr & offsetMask)
}

// RegionAt resolves the region containing addr, with the same fault
// semantics as an access through it: a wild or freed address panics
// with *Fault. Compiled code uses it to pre-bind a region across a run
// of accesses instead of re-resolving per read; the returned region
// stays valid until Free.
func (a *Arena) RegionAt(addr Addr) *Region { r, _ := a.resolve(addr); return r }

// ReadNative reads sz bytes at base+off, zero/sign-extended to int64 (4-
// and smaller reads sign-extend like JVM int loads; 8-byte reads return
// raw bits). It implements expr.NativeReader, so symbolic offsets resolve
// against the arena directly.
func (a *Arena) ReadNative(base Addr, off int64, sz int) int64 {
	r, o := a.resolve(base)
	return readLE(r.buf, o+int(off), sz)
}

// WriteNative writes the low sz bytes of val at base+off. Writing past
// the current end of the region extends it (zero-filled), supporting
// in-order record construction where field stores land just beyond the
// bytes appended so far.
func (a *Arena) WriteNative(base Addr, off int64, sz int, val int64) {
	r, o := a.resolve(base)
	end := o + int(off) + sz
	if end > len(r.buf) {
		r.grow(end)
	}
	writeLE(r.buf, o+int(off), sz, val)
}

// ReadNative reads from this region (offset-addressed convenience).
func (r *Region) ReadNative(base Addr, off int64, sz int) int64 {
	return r.arena.ReadNative(base, off, sz)
}

func (r *Region) grow(to int) {
	if r.freed {
		panic(fmt.Sprintf("arena: grow of freed region %q", r.name))
	}
	delta := to - len(r.buf)
	r.extend(delta)
	r.arena.account(int64(delta))
}

// CopyRecord appends the len bytes starting at src (possibly in another
// region) and returns the new address. Used by gWriteObject to move a
// record into an output buffer without any deserialization.
func (r *Region) CopyRecord(src Addr, n int) Addr {
	sr, so := r.arena.resolve(src)
	if so+n > len(sr.buf) {
		fault("CopyRecord reads past region %q end (%d+%d > %d)", sr.name, so, n, len(sr.buf))
	}
	return r.AppendBytes(sr.buf[so : so+n])
}

// Slice returns the n bytes at addr. The slice aliases region memory.
func (a *Arena) Slice(addr Addr, n int) []byte {
	r, o := a.resolve(addr)
	if o+n > len(r.buf) {
		fault("slice past region %q end", r.name)
	}
	return r.buf[o : o+n]
}

func readLE(b []byte, off, sz int) int64 {
	if off < 0 || off+sz > len(b) {
		fault("read [%d:%d) out of bounds (len %d)", off, off+sz, len(b))
	}
	switch sz {
	case 1:
		return int64(int8(b[off]))
	case 2:
		return int64(int16(uint16(b[off]) | uint16(b[off+1])<<8))
	case 4:
		return int64(int32(uint32(b[off]) | uint32(b[off+1])<<8 |
			uint32(b[off+2])<<16 | uint32(b[off+3])<<24))
	case 8:
		return int64(uint64(b[off]) | uint64(b[off+1])<<8 |
			uint64(b[off+2])<<16 | uint64(b[off+3])<<24 |
			uint64(b[off+4])<<32 | uint64(b[off+5])<<40 |
			uint64(b[off+6])<<48 | uint64(b[off+7])<<56)
	default:
		panic(fmt.Sprintf("arena: read of invalid size %d", sz))
	}
}

func writeLE(b []byte, off, sz int, v int64) {
	if off < 0 || off+sz > len(b) {
		fault("write [%d:%d) out of bounds (len %d)", off, off+sz, len(b))
	}
	switch sz {
	case 1:
		b[off] = byte(v)
	case 2:
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
	case 4:
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	case 8:
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	default:
		panic(fmt.Sprintf("arena: write of invalid size %d", sz))
	}
}

// verify interface satisfaction
var _ expr.NativeReader = (*Arena)(nil)
