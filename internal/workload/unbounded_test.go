package workload

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/serde"
)

// TestUnboundedMatchesMathRand holds the lazily seeded source to
// math/rand's: the same Int63 draws for seeds around every
// normalisation edge (0, negative, the modulus and its multiples, past
// 32 bits). One source is reseeded for every seed, so a stale entry
// from an earlier generation would show.
func TestUnboundedMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, 1, 89482311, lcgMod, 2 * lcgMod, 1 << 40, -(1 << 62)}
	var src recSource
	got := rand.New(&src)
	for _, s := range seeds {
		got.Seed(s)
		want := rand.New(rand.NewSource(s))
		for n := 0; n < 3000; n++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, draw %d: Int63 = %d, math/rand gives %d", s, n, g, w)
			}
		}
	}
}

// refDocs and refLinks are the sources as built on stock math/rand: a
// fresh rand.NewSource per record.
func refRand(seed, i int64) *rand.Rand {
	h := fnv.New64a()
	var b [16]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(seed) >> (8 * k))
		b[8+k] = byte(uint64(i) >> (8 * k))
	}
	h.Write(b[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func refDocs(wordsPerDoc int, seed, i int64) serde.Obj {
	zipf := rand.NewZipf(refRand(seed, i), 1.3, 1, uint64(len(vocab)-1))
	text := ""
	for w := 0; w < wordsPerDoc; w++ {
		if w > 0 {
			text += " "
		}
		text += vocab[zipf.Uint64()]
	}
	return serde.Obj{"text": text}
}

func refLinks(universe, avgDeg int, seed, i int64) serde.Obj {
	src := i % int64(universe)
	r := refRand(seed, src)
	zipf := rand.NewZipf(r, 2.2, 1, uint64(4*avgDeg))
	deg := int(zipf.Uint64()) + 1
	dsts := make([]int64, 0, deg)
	seen := map[int64]bool{}
	for len(dsts) < deg {
		d := int64(r.Intn(universe))
		if d == src || seen[d] {
			if len(seen) >= universe-1 {
				break
			}
			continue
		}
		seen[d] = true
		dsts = append(dsts, d)
	}
	return serde.Obj{"src": src, "dsts": dsts}
}

func TestUnboundedSourcesMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 42, -7} {
		docs, links := UnboundedDocs(6, seed), UnboundedLinks(24, 3, seed)
		for i := int64(0); i < 10000; i++ {
			if got, want := docs.At(i), refDocs(6, seed, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: UnboundedDocs.At(%d) = %v, want %v", seed, i, got, want)
			}
			if got, want := links.At(i), refLinks(24, 3, seed, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: UnboundedLinks.At(%d) = %v, want %v", seed, i, got, want)
			}
		}
	}
}

func TestHashIsFNV1aAndAllocFree(t *testing.T) {
	for _, c := range [][2]int64{{0, 0}, {1, 2}, {-1, 1 << 40}, {42, -9}} {
		h := fnv.New64a()
		var b [16]byte
		for k := 0; k < 8; k++ {
			b[k] = byte(uint64(c[0]) >> (8 * k))
			b[8+k] = byte(uint64(c[1]) >> (8 * k))
		}
		h.Write(b[:])
		if got, want := Hash(c[0], c[1]), h.Sum64(); got != want {
			t.Errorf("Hash(%d, %d) = %#x, want %#x", c[0], c[1], got, want)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += Hash(7, int64(sink)) }); n != 0 {
		t.Errorf("Hash allocates %.0f times per call, want 0", n)
	}
}

// TestUnboundedDocsAtAllocs bounds a document's allocations: the
// record map, its text and the boxed value, not a math/rand seeding.
func TestUnboundedDocsAtAllocs(t *testing.T) {
	docs := UnboundedDocs(6, 1)
	i := int64(0)
	if n := testing.AllocsPerRun(200, func() { docs.At(i); i++ }); n > 6 {
		t.Errorf("UnboundedDocs.At allocates %.1f times per record, bound 6", n)
	}
}

// TestUnboundedConcurrentAt calls one source's At from several
// goroutines at once: each call must get a generator of its own.
func TestUnboundedConcurrentAt(t *testing.T) {
	docs := UnboundedDocs(6, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 2000; i++ {
				if got, want := docs.At(i), refDocs(6, 3, i); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent UnboundedDocs.At(%d) = %v, want %v", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

var sinkObj serde.Obj

func BenchmarkUnboundedDocsAt(b *testing.B) {
	docs := UnboundedDocs(6, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkObj = docs.At(int64(i))
	}
}
