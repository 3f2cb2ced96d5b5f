package sparkapps

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/spark"
)

// Catalyst models Spark SQL's planner for the Tungsten ports: every Grow
// adds nodes to the logical plan and rebuilds (re-"generates code" for)
// all of it, so planning cost grows with the accumulated plan size — the
// SPARK-13346 behavior that forced the paper to cap DataFrame PageRank at
// 10 iterations.
type Catalyst struct {
	Plans    int           // plans built
	PlanTime time.Duration // time spent building them
	nodes    int64         // accumulated plan nodes
}

// Grow adds nodes to the plan and rebuilds it. The work is real and
// proportional to the accumulated plan: codegen is simulated by hashing
// 256 bytes of plan-node descriptors per node.
func (c *Catalyst) Grow(nodes int) {
	start := time.Now()
	c.Plans++
	c.nodes += int64(nodes)
	buf := make([]byte, 256*c.nodes)
	var h uint64 = 1469598103934665603
	for i := range buf {
		buf[i] = byte(i)
		h = (h ^ uint64(buf[i])) * 1099511628211
	}
	_ = h
	c.PlanTime += time.Since(start)
}

// TungstenPageRank runs PageRank the DataFrame/Tungsten way on the same
// execution substrate as the other two systems (the native path — rows
// are native, like UnsafeRow), with Tungsten's structural costs:
//
//   - complex types cannot live in rows, so the adjacency lists are
//     exploded into flat Edge{src,dst,deg} rows (a conversion stage) and
//     every iteration joins the full edge table;
//   - zero-contribution rows are materialized per iteration to keep
//     rank-less vertices alive (DataFrame union, an extra stage);
//   - Catalyst re-plans the growing query every iteration (the
//     SPARK-13346 cost, charged through Catalyst.Grow).
type TungstenPageRank struct {
	Iters int
}

// Register defines the flat-schema UDFs and stage drivers.
func (t TungstenPageRank) Register(prog *ir.Program) {
	// tpExplode(links): Links -> one Edge row per neighbor.
	b := ir.NewFuncBuilder(prog, "tpExplode", model.Type{})
	l := b.Param("l", model.Object(ClsLinks))
	src := b.Load(l, "src")
	dsts := b.Load(l, "dsts")
	n := b.Len(dsts)
	b.For(n, func(i *ir.Var) {
		d := b.Elem(dsts, i)
		e := b.New(ClsEdge)
		b.Store(e, "src", src)
		b.Store(e, "dst", d)
		b.Store(e, "deg", n)
		b.EmitRecord(e)
	})
	b.Ret(nil)
	b.Done()

	// tpInit(links): rank 1 per vertex.
	ib := ir.NewFuncBuilder(prog, "tpInit", model.Type{})
	il := ib.Param("l", model.Object(ClsLinks))
	isrc := ib.Load(il, "src")
	one := ib.FConst(1)
	ro := ib.New(ClsRank)
	ib.Store(ro, "v", isrc)
	ib.Store(ro, "r", one)
	ib.EmitRecord(ro)
	ib.Ret(nil)
	ib.Done()

	// tpJoin(rank, edge): contrib = rank/deg to the edge destination.
	jb := ir.NewFuncBuilder(prog, "tpJoin", model.Type{})
	jr := jb.Param("r", model.Object(ClsRank))
	je := jb.Param("e", model.Object(ClsEdge))
	rank := jb.Load(jr, "r")
	dst := jb.Load(je, "dst")
	deg := jb.Load(je, "deg")
	degF := jb.Un(ir.OpI2D, deg)
	share := jb.Bin(ir.OpDiv, rank, degF)
	c := jb.New(ClsContrib)
	jb.Store(c, "v", dst)
	jb.Store(c, "c", share)
	jb.EmitRecord(c)
	jb.Ret(nil)
	jb.Done()

	// tpZero(rank): the zero-contribution row per vertex.
	zb := ir.NewFuncBuilder(prog, "tpZero", model.Type{})
	zr := zb.Param("r", model.Object(ClsRank))
	zv := zb.Load(zr, "v")
	zf := zb.FConst(0)
	zo := zb.New(ClsContrib)
	zb.Store(zo, "v", zv)
	zb.Store(zo, "c", zf)
	zb.EmitRecord(zo)
	zb.Ret(nil)
	zb.Done()

	// tpCombine / tpUpdate mirror the RDD versions over flat rows.
	cb := ir.NewFuncBuilder(prog, "tpCombine", model.Object(ClsContrib))
	ca := cb.Param("a", model.Object(ClsContrib))
	cc := cb.Param("b", model.Object(ClsContrib))
	v := cb.Load(ca, "v")
	s := cb.Bin(ir.OpAdd, cb.Load(ca, "c"), cb.Load(cc, "c"))
	acc := cb.New(ClsContrib)
	cb.Store(acc, "v", v)
	cb.Store(acc, "c", s)
	cb.Ret(acc)
	cb.Done()

	ub := ir.NewFuncBuilder(prog, "tpUpdate", model.Type{})
	uc := ub.Param("c", model.Object(ClsContrib))
	uv := ub.Load(uc, "v")
	usum := ub.Load(uc, "c")
	d085 := ub.FConst(0.85)
	d015 := ub.FConst(0.15)
	nr := ub.Bin(ir.OpAdd, ub.Bin(ir.OpMul, usum, d085), d015)
	uo := ub.New(ClsRank)
	ub.Store(uo, "v", uv)
	ub.Store(uo, "r", nr)
	ub.EmitRecord(uo)
	ub.Ret(nil)
	ub.Done()

	spark.BuildMapDriver(prog, "tpExplodeStage", "tpExplode", ClsLinks)
	spark.BuildMapDriver(prog, "tpInitStage", "tpInit", ClsLinks)
	spark.BuildJoinManyDriver(prog, "tpJoinStage", "tpJoin", ClsRank, ClsEdge)
	spark.BuildMapDriver(prog, "tpZeroStage", "tpZero", ClsRank)
	spark.BuildReduceDriver(prog, "tpCombineStage", "tpCombine", ClsContrib)
	spark.BuildMapDriver(prog, "tpUpdateStage", "tpUpdate", ClsContrib)
}

// Run executes DataFrame-style PageRank; plan-construction cost accrues
// on c.
func (t TungstenPageRank) Run(ctx *spark.Context, links *spark.RDD, c *Catalyst) (*spark.RDD, error) {
	c.Grow(6) // RDD -> DataFrame conversion plan
	edges, err := links.MapPartitions("tpExplodeStage", ClsEdge)
	if err != nil {
		return nil, err
	}
	ranks, err := links.MapPartitions("tpInitStage", ClsRank)
	if err != nil {
		return nil, err
	}
	for it := 0; it < t.Iters; it++ {
		c.Grow(8) // the growing iterative plan
		contribs, err := ranks.JoinMany(edges, "tpJoinStage", "v", "src", ClsContrib)
		if err != nil {
			return nil, fmt.Errorf("tungsten pagerank iter %d: %w", it, err)
		}
		zeros, err := ranks.MapPartitions("tpZeroStage", ClsContrib)
		if err != nil {
			return nil, err
		}
		all, err := contribs.Union(zeros)
		if err != nil {
			return nil, err
		}
		summed, err := all.ReduceByKey("tpCombineStage", "v")
		if err != nil {
			return nil, err
		}
		ranks, err = summed.MapPartitions("tpUpdateStage", ClsRank)
		if err != nil {
			return nil, err
		}
	}
	return ranks, nil
}

// TungstenWordCount is WordCount with Tungsten's string optimization: the
// per-document tokenizer is a fused native operator (modeling whole-stage
// codegen over binary strings) instead of a per-character IR loop. The
// aggregation side shares the IR combiner with the other systems.
type TungstenWordCount struct{}

// Register defines the intrinsic-split map UDF; the combiner is the
// shared wcCombine.
func (TungstenWordCount) Register(prog *ir.Program) {
	if _, ok := prog.Funcs["wcCombine"]; !ok {
		WordCount{}.Register(prog)
	}
	b := ir.NewFuncBuilder(prog, "twcSplit", model.Type{})
	doc := b.Param("doc", model.Object(ClsDoc))
	text := b.Load(doc, "text")
	// The fused operator scans the binary string once and emits
	// WordCount records directly (interp intrinsic).
	b.Emit(&ir.NativeCall{Name: "splitToWordCounts", Recv: text, RecvClass: ClsString})
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "twcSplitStage", "twcSplit", ClsDoc)
}

// Run executes Tungsten WordCount (native mode contexts only);
// plan-construction cost accrues on c.
func (t TungstenWordCount) Run(ctx *spark.Context, docs *spark.RDD, c *Catalyst) (*spark.RDD, error) {
	c.Grow(3)
	words, err := docs.MapPartitions("twcSplitStage", ClsWordCount)
	if err != nil {
		return nil, err
	}
	return words.ReduceByKey("wcCombineStage", "word")
}
