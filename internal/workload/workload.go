// Package workload generates the synthetic datasets standing in for the
// paper's inputs: power-law graphs for LiveJournal/Orkut/UK-2005/Twitter
// (Figure 5, PageRank, CC, TC), synthetic ML points (KMeans, LR, CS, GB —
// Table 1 lists the paper's own inputs as synthetic), StackOverflow-like
// posts/users (Table 2, SOA) and Wikipedia-like documents (IMC, TFC).
//
// Generators emit wire-format records directly (via the serde codec), so
// "reading the input" in either execution mode starts from the same
// bytes a disk split would contain.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/serde"
)

// Encode encodes objs as wire records of the class, split round-robin
// into nparts partitions.
func Encode(c *serde.Codec, class string, objs []serde.Obj, nparts int) ([][]byte, error) {
	if nparts <= 0 {
		nparts = 1
	}
	parts := make([][]byte, nparts)
	for i, o := range objs {
		var err error
		p := i % nparts
		parts[p], err = c.Encode(class, o, parts[p])
		if err != nil {
			return nil, fmt.Errorf("workload: encoding %s record %d: %w", class, i, err)
		}
	}
	return parts, nil
}

// GraphSpec parameterizes the power-law graph generator.
type GraphSpec struct {
	Name     string
	Vertices int
	AvgDeg   int
	// Alpha is the power-law exponent of the out-degree distribution
	// (real social graphs sit near 2.0-2.5).
	Alpha float64
	Seed  int64
}

// StandardGraphs mirrors the paper's four graph datasets, scaled down.
// Relative sizes roughly track LiveJournal < Orkut < UK-2005 < Twitter.
func StandardGraphs(scale int) []GraphSpec {
	if scale <= 0 {
		scale = 1
	}
	return []GraphSpec{
		{Name: "LiveJournal", Vertices: 600 * scale, AvgDeg: 9, Alpha: 2.3, Seed: 11},
		{Name: "Orkut", Vertices: 800 * scale, AvgDeg: 19, Alpha: 2.2, Seed: 12},
		{Name: "UK-2005", Vertices: 1200 * scale, AvgDeg: 12, Alpha: 2.1, Seed: 13},
		{Name: "Twitter-2010", Vertices: 1500 * scale, AvgDeg: 14, Alpha: 2.0, Seed: 14},
	}
}

// Links is one adjacency record: a source vertex and its out-neighbors.
type Links struct {
	Src  int64
	Dsts []int64
}

// GenGraph produces adjacency lists with power-law out-degrees. Every
// vertex appears as a source (possibly with no out-edges) so iterative
// algorithms keep full vertex coverage.
func GenGraph(spec GraphSpec) []Links {
	r := rand.New(rand.NewSource(spec.Seed))
	n := spec.Vertices
	out := make([]Links, n)
	// Zipf-distributed degrees normalized to the requested average.
	zipf := rand.NewZipf(r, spec.Alpha, 1, uint64(4*spec.AvgDeg))
	for v := 0; v < n; v++ {
		deg := int(zipf.Uint64()) + 1
		dsts := make([]int64, 0, deg)
		seen := map[int64]bool{}
		for len(dsts) < deg {
			d := int64(r.Intn(n))
			if d == int64(v) || seen[d] {
				// Tolerate duplicates by bounded retries on tiny graphs.
				if len(seen) >= n-1 {
					break
				}
				continue
			}
			seen[d] = true
			dsts = append(dsts, d)
		}
		out[v] = Links{Src: int64(v), Dsts: dsts}
	}
	return out
}

// LinksObjs converts adjacency records to serde objects of class "Links"
// (schema: {src long, dsts long[]}).
func LinksObjs(links []Links) []serde.Obj {
	objs := make([]serde.Obj, len(links))
	for i, l := range links {
		objs[i] = serde.Obj{"src": l.Src, "dsts": l.Dsts}
	}
	return objs
}

// GenDensePoints produces n points of dimension d clustered around k
// Gaussian centers, as DenseVector objects ({size int, values double[]}).
// It also returns the true centers for validation.
func GenDensePoints(n, d, k int, seed int64) ([]serde.Obj, [][]float64) {
	r := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for j := range centers {
		c := make([]float64, d)
		for t := range c {
			c[t] = r.Float64() * 100
		}
		centers[j] = c
	}
	objs := make([]serde.Obj, n)
	for i := range objs {
		c := centers[i%k]
		vals := make([]float64, d)
		for t := range vals {
			vals[t] = c[t] + r.NormFloat64()*3
		}
		objs[i] = serde.Obj{"size": int64(d), "values": vals}
	}
	return objs, centers
}

// GenLabeledPoints produces linearly separable LabeledPoint objects
// ({label double, features {size int, values double[]}}) with labels in
// {0, 1}, plus the true separating weights.
func GenLabeledPoints(n, d int, seed int64) ([]serde.Obj, []float64) {
	r := rand.New(rand.NewSource(seed))
	w := make([]float64, d)
	for t := range w {
		w[t] = r.NormFloat64()
	}
	objs := make([]serde.Obj, n)
	for i := range objs {
		vals := make([]float64, d)
		dot := 0.0
		for t := range vals {
			vals[t] = r.NormFloat64()
			dot += vals[t] * w[t]
		}
		label := 0.0
		if dot+r.NormFloat64()*0.1 > 0 {
			label = 1.0
		}
		objs[i] = serde.Obj{
			"label":    label,
			"features": serde.Obj{"size": int64(d), "values": vals},
		}
	}
	return objs, w
}

// GenSparsePoints produces SparseLabeledPoint objects
// ({label double, features {size int, indices long[], values double[]}})
// with nnz non-zeros of dim d.
func GenSparsePoints(n, d, nnz int, seed int64) []serde.Obj {
	r := rand.New(rand.NewSource(seed))
	objs := make([]serde.Obj, n)
	for i := range objs {
		idx := r.Perm(d)[:nnz]
		indices := make([]int64, nnz)
		values := make([]float64, nnz)
		for t := 0; t < nnz; t++ {
			indices[t] = int64(idx[t])
			values[t] = math.Abs(r.NormFloat64())
		}
		label := float64(i % 2)
		objs[i] = serde.Obj{
			"label": label,
			"features": serde.Obj{
				"size": int64(d), "indices": indices, "values": values,
			},
		}
	}
	return objs
}

// vocabulary used by text generators; word lengths vary to exercise
// variable-size records.
var vocab = []string{
	"the", "of", "and", "data", "system", "java", "heap", "object", "query",
	"stream", "compile", "native", "buffer", "shuffle", "spark", "hadoop",
	"reduce", "map", "serialize", "garbage", "collector", "pointer",
	"immutable", "speculative", "transformation", "region", "executor",
	"task", "stage", "partition", "vector", "gradient", "cluster", "graph",
}

// GenDocs produces documents of class "Doc" ({text String}) with
// Zipf-weighted word frequencies, the Wikipedia stand-in.
func GenDocs(nDocs, wordsPerDoc int, seed int64) []serde.Obj {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.3, 1, uint64(len(vocab)-1))
	objs := make([]serde.Obj, nDocs)
	for i := range objs {
		text := ""
		for w := 0; w < wordsPerDoc; w++ {
			if w > 0 {
				text += " "
			}
			text += vocab[zipf.Uint64()]
		}
		objs[i] = serde.Obj{"text": text}
	}
	return objs
}

// GenPosts produces StackOverflow-like records of class "Post" ({user
// long, score long, hour long, body String}) with skewed posts-per-user:
// most users post about avgPosts times, and roughly one in ten is a
// heavy user with ~5x the volume (the heavy tail that makes SOA's
// vectors resize) — the StackOverflow stand-in.
func GenPosts(nUsers, avgPosts int, seed int64) []serde.Obj {
	r := rand.New(rand.NewSource(seed))
	var objs []serde.Obj
	for u := 0; u < nUsers; u++ {
		n := 1 + r.Intn(2*avgPosts)
		if r.Intn(10) == 0 {
			n += 4 * avgPosts
		}
		for p := 0; p < n; p++ {
			nw := 3 + r.Intn(8)
			body := ""
			for w := 0; w < nw; w++ {
				if w > 0 {
					body += " "
				}
				body += vocab[r.Intn(len(vocab))]
			}
			objs = append(objs, serde.Obj{
				"user":  int64(u),
				"score": int64(r.Intn(100) - 20),
				"hour":  int64(r.Intn(24)),
				"body":  body,
			})
		}
	}
	// Shuffle so same-user posts are scattered, as in a real dump.
	r.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	return objs
}

// GenUsers produces user records of class "User"
// ({id long, lastActive long, posts long, reputation long, about String}).
func GenUsers(n int, seed int64) []serde.Obj {
	r := rand.New(rand.NewSource(seed))
	objs := make([]serde.Obj, n)
	for i := range objs {
		nw := 4 + r.Intn(10)
		about := ""
		for w := 0; w < nw; w++ {
			if w > 0 {
				about += " "
			}
			about += vocab[r.Intn(len(vocab))]
		}
		objs[i] = serde.Obj{
			"id":         int64(i),
			"lastActive": int64(r.Intn(365)),
			"posts":      int64(r.Intn(200)),
			"reputation": int64(r.Intn(10000)),
			"about":      about,
		}
	}
	return objs
}
