package workload

import (
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/serde"
)

// Unbounded is a deterministic unbounded record source: At(i) returns
// record i of an infinite stream, computable in any order and any
// number of times. Determinism is the streaming subsystem's whole
// correctness story — the batch reference run, the streamed run, and a
// resumed-after-crash run all regenerate byte-identical records from
// the same indices, so window outputs stay byte-comparable.
//
// Record i is drawn from math/rand's stream seeded with Hash(seed, i),
// seeded lazily and exactly (recSource): a record pays only for the
// entries its draws read, not for math/rand's full 607-entry seeding.
type Unbounded struct {
	// Class is the serde class of the emitted records.
	Class string
	// At returns record i (i >= 0). It is safe for concurrent use.
	At func(i int64) serde.Obj
}

// Slice materializes records [lo, hi) in index order.
func (u *Unbounded) Slice(lo, hi int64) []serde.Obj {
	if hi <= lo {
		return nil
	}
	objs := make([]serde.Obj, 0, hi-lo)
	for i := lo; i < hi; i++ {
		objs = append(objs, u.At(i))
	}
	return objs
}

// Hash is FNV-1a over seed and i as 16 little-endian bytes: the
// per-record seed of the unbounded sources and the streaming arrival
// clock's jitter. It does not allocate.
func Hash(seed, i int64) uint64 {
	h := uint64(14695981039346656037) // offset basis
	for _, v := range [2]uint64{uint64(seed), uint64(i)} {
		for k := 0; k < 64; k += 8 {
			h = (h ^ v>>k&0xff) * 1099511628211 // FNV prime
		}
	}
	return h
}

// math/rand's lagged Fibonacci generator and the Lehmer one its Seed runs.
const (
	rngLen = 607
	rngTap = 273
	lcgMod = 1<<31 - 1
	lcgMul = 48271
)

// lcgPow[n] is lcgMul^n mod lcgMod: Seed's n-th Lehmer step from x_0
// is lcgPow[n]·x_0 mod lcgMod, and vec[i] reads steps 21+3i to 23+3i.
var lcgPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * lcgMul % lcgMod
	}
	return p
}()

// recSource is math/rand's rngSource with a lazy Seed: Seed normalises
// the seed and bumps a generation, and each feedback-register entry is
// computed on its first read in that generation by jumping the Lehmer
// generator ahead. Every draw equals rand.NewSource(seed)'s.
type recSource struct {
	tap, feed int
	x0        uint64
	gen       uint32
	stamp     [rngLen]uint32 // vec[i] is current when stamp[i] == gen
	vec       [rngLen]int64
}

func (s *recSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's stand-in for a zero seed
	}
	s.x0 = uint64(seed)
	if s.gen++; s.gen == 0 {
		clear(s.stamp[:])
		s.gen = 1
	}
}

// entry returns vec[i], computing it as rngSource.Seed would.
func (s *recSource) entry(i int) int64 {
	if s.stamp[i] != s.gen {
		x := func(n int) int64 { return int64(lcgPow[n] * s.x0 % lcgMod) }
		s.vec[i] = x(21+3*i)<<40 ^ x(22+3*i)<<20 ^ x(23+3*i) ^ rngCooked[i]
		s.stamp[i] = s.gen
	}
	return s.vec[i]
}

func (s *recSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.entry(s.feed) + s.entry(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *recSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// recGen is a recSource with its Rand and a Zipf over that Rand. A Zipf
// holds only its Rand and constants, so reseeding makes all three fresh.
type recGen struct {
	src  recSource
	r    *rand.Rand
	zipf *rand.Zipf
}

// recGens pools generators whose Zipf has exponent s over [0, imax].
func recGens(s float64, imax uint64) *sync.Pool {
	return &sync.Pool{New: func() any {
		g := &recGen{}
		g.r = rand.New(&g.src)
		g.zipf = rand.NewZipf(g.r, s, 1, imax)
		return g
	}}
}

// UnboundedDocs streams documents of class "Doc" ({text String}) with
// Zipf-weighted word frequencies — the wordcount-style source.
func UnboundedDocs(wordsPerDoc int, seed int64) *Unbounded {
	gens := recGens(1.3, uint64(len(vocab)-1))
	return &Unbounded{Class: "Doc", At: func(i int64) serde.Obj {
		g := gens.Get().(*recGen)
		defer gens.Put(g)
		g.r.Seed(int64(Hash(seed, i)))
		var text strings.Builder
		text.Grow(8 * wordsPerDoc)
		for w := 0; w < wordsPerDoc; w++ {
			if w > 0 {
				text.WriteByte(' ')
			}
			text.WriteString(vocab[g.zipf.Uint64()])
		}
		return serde.Obj{"text": text.String()}
	}}
}

// UnboundedLinks streams adjacency records of class "Links"
// ({src long, dsts long[]}) over a fixed vertex universe: record i
// describes vertex i % universe with power-law out-degree — the
// PageRank-style source. Repeated visits to a vertex emit the same
// edges (the stream re-describes a stable graph), so contribution sums
// stay deterministic.
func UnboundedLinks(universe, avgDeg int, seed int64) *Unbounded {
	if universe <= 1 {
		universe = 2
	}
	gens := recGens(2.2, uint64(4*avgDeg))
	return &Unbounded{Class: "Links", At: func(i int64) serde.Obj {
		src := i % int64(universe)
		g := gens.Get().(*recGen)
		defer gens.Put(g)
		g.r.Seed(int64(Hash(seed, src)))
		deg := int(g.zipf.Uint64()) + 1
		dsts := make([]int64, 0, deg)
		for len(dsts) < deg {
			d := int64(g.r.Intn(universe))
			if d == src || slices.Contains(dsts, d) {
				if len(dsts) >= universe-1 {
					break
				}
				continue
			}
			dsts = append(dsts, d)
		}
		return serde.Obj{"src": src, "dsts": dsts}
	}}
}
