package sparkapps

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/spark"
	"repro/internal/workload"
)

// TestTungstenPageRankMatchesPageRank: the DataFrame port Figure 8(a)
// times computes the same ranks as the RDD program, and re-plans once for
// the conversion plus once per iteration.
func TestTungstenPageRankMatchesPageRank(t *testing.T) {
	const iters = 3
	ctx, comp := makeContext(t, engine.Gerenuk, ClsLinks, ClsRank, ClsContrib)
	pr := PageRank{Iters: iters}
	pr.Register(comp.Prog)
	ranks, err := pr.Run(ctx, graphRDD(t, ctx, comp, 40))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeRanks(comp.Codec, ranks)
	if err != nil {
		t.Fatal(err)
	}

	ctx, comp = makeContext(t, engine.Gerenuk, ClsLinks, ClsEdge, ClsRank, ClsContrib)
	tp := TungstenPageRank{Iters: iters}
	tp.Register(comp.Prog)
	var c Catalyst
	ranks, err = tp.Run(ctx, graphRDD(t, ctx, comp, 40), &c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRanks(comp.Codec, ranks)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) || len(want) != 40 {
		t.Fatalf("tungsten ranked %d vertices, PageRank %d, want 40", len(got), len(want))
	}
	for v, r := range want {
		if g, ok := got[v]; !ok || math.Abs(g-r) > 1e-9 {
			t.Errorf("rank of %d: tungsten %v, PageRank %v", v, got[v], r)
		}
	}
	if c.Plans != 1+iters || c.PlanTime <= 0 {
		t.Errorf("catalyst = %+v, want %d plans and PlanTime > 0", c, 1+iters)
	}
}

// TestTungstenWordCountMatchesWordCount: the fused-tokenizer port Figure
// 8(b) times counts every word as the RDD program does, with one plan.
func TestTungstenWordCountMatchesWordCount(t *testing.T) {
	docs := workload.GenDocs(20, 12, 3)
	count := func(register func(*ir.Program), run func(*spark.Context, *spark.RDD) (*spark.RDD, error)) map[string]int64 {
		ctx, comp := makeContext(t, engine.Gerenuk, ClsDoc, ClsWordCount)
		register(comp.Prog)
		parts, err := workload.Encode(comp.Codec, ClsDoc, docs, ctx.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		out, err := run(ctx, ctx.Parallelize(ClsDoc, parts))
		if err != nil {
			t.Fatal(err)
		}
		counts, err := DecodeCounts(comp.Codec, out)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	want := count(WordCount{}.Register, WordCount{}.Run)
	var c Catalyst
	got := count(TungstenWordCount{}.Register, func(ctx *spark.Context, docs *spark.RDD) (*spark.RDD, error) {
		return TungstenWordCount{}.Run(ctx, docs, &c)
	})

	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("tungsten counts %v, WordCount %v", got, want)
	}
	if c.Plans != 1 || c.PlanTime <= 0 {
		t.Errorf("catalyst = %+v, want 1 plan and PlanTime > 0", c)
	}
}

// TestPlanGrowthIsSuperlinear: the cumulative plan cost makes later
// iterations more expensive — the SPARK-13346 behavior. The last five
// rounds do about nine times the work of the first five; comparing the
// medians of each keeps a preempted round from deciding the outcome.
func TestPlanGrowthIsSuperlinear(t *testing.T) {
	var c Catalyst
	var times []time.Duration
	const rounds = 30
	runtime.GC()
	for i := 0; i < rounds; i++ {
		before := c.PlanTime
		c.Grow(32)
		times = append(times, c.PlanTime-before)
	}
	if c.nodes != 32*rounds {
		t.Fatalf("plan node accumulation wrong: %d", c.nodes)
	}
	median5 := func(ds []time.Duration) time.Duration {
		ds = slices.Clone(ds)
		slices.Sort(ds)
		return ds[2]
	}
	if first, last := median5(times[:5]), median5(times[rounds-5:]); last <= first {
		t.Errorf("plan time did not grow: first rounds %v, last rounds %v", first, last)
	}
}
