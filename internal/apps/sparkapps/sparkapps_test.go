package sparkapps

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/spark"
	"repro/internal/workload"
)

func makeContext(t *testing.T, mode engine.Mode, topTypes ...string) (*spark.Context, *engine.Compiled) {
	t.Helper()
	prog := NewProgram(topTypes...)
	comp := engine.Compile(prog)
	ctx := spark.NewContext(comp, mode)
	ctx.Workers = 2
	ctx.Partitions = 2
	return ctx, comp
}

func graphRDD(t *testing.T, ctx *spark.Context, comp *engine.Compiled, vertices int) *spark.RDD {
	t.Helper()
	links := workload.GenGraph(workload.GraphSpec{
		Name: "test", Vertices: vertices, AvgDeg: 3, Alpha: 2.2, Seed: 7,
	})
	parts, err := workload.Encode(comp.Codec, ClsLinks, workload.LinksObjs(links), ctx.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return ctx.Parallelize(ClsLinks, parts)
}

func TestPageRankBothModes(t *testing.T) {
	var results []map[int64]float64
	var stats []int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsLinks, ClsRank, ClsContrib)
		pr := PageRank{Iters: 3}
		pr.Register(comp.Prog)
		links := graphRDD(t, ctx, comp, 40)
		ranks, err := pr.Run(ctx, links)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		m, err := DecodeRanks(comp.Codec, ranks)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, m)
		stats = append(stats, ctx.Stats.Aborts)
	}
	if stats[1] != 0 {
		t.Errorf("gerenuk PageRank aborted %d times", stats[1])
	}
	if len(results[0]) != 40 {
		t.Errorf("expected 40 ranks, got %d", len(results[0]))
	}
	for v, r := range results[0] {
		if g, ok := results[1][v]; !ok || math.Abs(g-r) > 1e-9 {
			t.Fatalf("rank of %d differs: %v vs %v", v, r, results[1][v])
		}
		if r < 0.15-1e-9 {
			t.Errorf("rank of %d below damping floor: %v", v, r)
		}
	}
}

func TestConnectedComponentsBothModes(t *testing.T) {
	var results []map[int64]int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsLinks, ClsLabel)
		cc := ConnectedComponents{Iters: 4}
		cc.Register(comp.Prog)
		links := graphRDD(t, ctx, comp, 30)
		labels, err := cc.Run(ctx, links)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		m, err := DecodeLabels(comp.Codec, labels)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, m)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("CC labels differ between modes")
	}
	if len(results[0]) != 30 {
		t.Errorf("expected 30 labels, got %d", len(results[0]))
	}
	// Labels must be non-increasing relative to vertex ids (min-propagation).
	for v, l := range results[0] {
		if l > v {
			t.Errorf("label(%d) = %d exceeds vertex id", v, l)
		}
	}
}

func TestTriangleCountingBothModes(t *testing.T) {
	var counts []int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsLinks, ClsTriRec, ClsCountRec)
		tc := TriangleCounting{Vertices: 1000, MaxWedges: 64}
		tc.Register(comp.Prog)
		links := graphRDD(t, ctx, comp, 25)
		n, err := tc.Run(ctx, links)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Fatalf("triangle counts differ: %d vs %d", counts[0], counts[1])
	}
}

func TestKMeansBothModes(t *testing.T) {
	const k, dim = 3, 4
	points, _ := workload.GenDensePoints(90, dim, k, 5)
	var all [][][]float64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsDenseVector, ClsClusterStat)
		km := KMeans{K: k, Dim: dim, Iters: 3}
		km.Register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsDenseVector, points, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		rdd := ctx.Parallelize(ClsDenseVector, parts)
		initial := [][]float64{
			{10, 10, 10, 10}, {50, 50, 50, 50}, {90, 90, 90, 90},
		}
		centers, err := km.Run(ctx, rdd, initial)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		all = append(all, centers)
		if ctx.Stats.Aborts != 0 {
			t.Errorf("%v: kmeans aborted", mode)
		}
	}
	for j := range all[0] {
		for d := range all[0][j] {
			if math.Abs(all[0][j][d]-all[1][j][d]) > 1e-9 {
				t.Fatalf("centers differ at [%d][%d]: %v vs %v",
					j, d, all[0][j][d], all[1][j][d])
			}
		}
	}
}

func TestLogRegBothModes(t *testing.T) {
	const dim = 5
	points, trueW := workload.GenLabeledPoints(200, dim, 9)
	var weights [][]float64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsLabeled, ClsGrad)
		lr := LogReg{Dim: dim, Iters: 4, Rate: 1.0}
		lr.Register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsLabeled, points, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		w, err := lr.Run(ctx, ctx.Parallelize(ClsLabeled, parts))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		weights = append(weights, w)
	}
	if len(weights[0]) != dim {
		t.Fatalf("weight dim %d", len(weights[0]))
	}
	for d := range weights[0] {
		if math.Abs(weights[0][d]-weights[1][d]) > 1e-9 {
			t.Fatalf("weights differ at %d: %v vs %v", d, weights[0][d], weights[1][d])
		}
	}
	// Direction check: learned weights should correlate with the truth.
	dot := 0.0
	for d := range trueW {
		dot += trueW[d] * weights[0][d]
	}
	if dot <= 0 {
		t.Errorf("learned weights anti-correlated with truth (dot=%v)", dot)
	}
}

func TestChiSqBothModes(t *testing.T) {
	points := workload.GenSparsePoints(120, 10, 3, 21)
	var stats []map[int64]float64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsSparsePoint, ClsFeatObs)
		cs := ChiSqSelector{Dim: 10}
		cs.Register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsSparsePoint, points, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cs.Run(ctx, ctx.Parallelize(ClsSparsePoint, parts))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		stats = append(stats, m)
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("chi-square stats differ between modes")
	}
	if len(stats[0]) == 0 {
		t.Errorf("no features observed")
	}
}

func TestGBoostBothModes(t *testing.T) {
	points, _ := workload.GenLabeledPoints(150, 4, 33)
	var models [][]Stump
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsLabeled, ClsSplitStat)
		gb := GBoost{Dim: 4, Rounds: 3, Buckets: 8, Shrinkage: 0.5, Range: 4}
		gb.Register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsLabeled, points, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		mdl, err := gb.Run(ctx, ctx.Parallelize(ClsLabeled, parts))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		models = append(models, mdl)
	}
	if !reflect.DeepEqual(models[0], models[1]) {
		t.Fatalf("models differ:\n%v\n%v", models[0], models[1])
	}
	if len(models[0]) == 0 {
		t.Errorf("empty model")
	}
}

func TestWordCountBothModes(t *testing.T) {
	docs := workload.GenDocs(20, 12, 3)
	var counts []map[string]int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsDoc, ClsWordCount)
		wc := WordCount{}
		wc.Register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsDoc, docs, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		out, err := wc.Run(ctx, ctx.Parallelize(ClsDoc, parts))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		m, err := DecodeCounts(comp.Codec, out)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, m)
		if mode == engine.Gerenuk && ctx.Stats.Aborts != 0 {
			t.Errorf("wordcount aborted %d times", ctx.Stats.Aborts)
		}
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("word counts differ between modes")
	}
	total := int64(0)
	for _, n := range counts[0] {
		total += n
	}
	if total != 20*12 {
		t.Errorf("total words = %d, want 240", total)
	}
}

func TestSOAAbortsOnResize(t *testing.T) {
	posts := workload.GenPosts(30, 6, 17)
	var results []map[int64]int64
	var aborts []int64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx, comp := makeContext(t, mode, ClsPost, ClsAccount)
		soa := StackOverflowAnalytics{InitialCap: 4}
		soa.Register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsPost, posts, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		accounts, err := soa.Run(ctx, ctx.Parallelize(ClsPost, parts))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		m, err := DecodeAccounts(comp.Codec, accounts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, m)
		aborts = append(aborts, ctx.Stats.Aborts)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("account summaries differ between modes")
	}
	// The compiler must have found the resize violation, and the heavy
	// users (Zipf head exceeds the initial capacity) must trigger aborts.
	if aborts[1] == 0 {
		t.Errorf("SOA never aborted despite vector resizes")
	}
	// Total posts must be preserved.
	total := int64(0)
	for _, n := range results[0] {
		total += n
	}
	if total != int64(len(posts)) {
		t.Errorf("posts preserved = %d, want %d", total, len(posts))
	}
}

func TestSOAViolationIsStaticallyDetected(t *testing.T) {
	prog := NewProgram(ClsPost, ClsAccount)
	soa := StackOverflowAnalytics{InitialCap: 4}
	soa.Register(prog)
	comp := engine.Compile(prog)
	if err := comp.CompileDriver("soaCombineStage"); err != nil {
		t.Fatal(err)
	}
	ser := comp.SERs["soaCombineStage"]
	if !ser.Transformable {
		t.Fatalf("SOA combine not transformable: %s", ser.Reason)
	}
	if len(ser.Violations) == 0 {
		t.Fatalf("no violation detected at the Vector resize")
	}
}
