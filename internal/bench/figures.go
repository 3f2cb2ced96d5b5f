package bench

import (
	"fmt"
	"path"
	"strings"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/spark"
	"repro/internal/workload"
)

// Figure4 regenerates the section 2 analytical comparison: the heap vs
// inlined representation of an array of three LabeledPoints. The paper
// reports 312 heap bytes vs 112 inlined (object overhead ≈ 1.8x the
// payload); our heap model yields the same shape with slightly different
// constants (it charges a header for the double[] object the paper's
// arithmetic folds away).
func Figure4() (*Result, error) {
	r := newResult("Figure 4", "LabeledPoint layout: heap vs inlined bytes",
		"representation", "bytes", "per-record", "overhead ratio")
	prog := sparkapps.NewProgram(sparkapps.ClsLabeled)
	comp := engine.Compile(prog)
	h := heap.New(prog.Reg, heap.Config{})

	var roots []heap.Addr
	remove := h.AddRoots(heap.RootFunc(func(visit func(*heap.Addr)) {
		for i := range roots {
			visit(&roots[i])
		}
	}))
	defer remove()

	var heapBytes, wireBytes int64
	for i := 0; i < 3; i++ {
		obj := serde.Obj{
			"label": float64(i),
			"features": serde.Obj{
				"size":   int64(3),
				"values": []float64{1, 2, 3},
			},
		}
		a, err := comp.Codec.Build(h, sparkapps.ClsLabeled, obj)
		if err != nil {
			return nil, err
		}
		roots = append(roots, a)
		foot, err := comp.Codec.HeapFootprint(h, a, sparkapps.ClsLabeled)
		if err != nil {
			return nil, err
		}
		heapBytes += foot
		wire, err := comp.Codec.Serialize(h, a, sparkapps.ClsLabeled, nil)
		if err != nil {
			return nil, err
		}
		wireBytes += int64(len(wire) - serde.SizePrefixBytes)
	}
	// The outer array holding the three records.
	heapBytes += int64(model.ArrayRefSize(3))
	wireBytes += 4 // array length slot

	ratio := metrics.Ratio(float64(heapBytes), float64(wireBytes))
	r.Table.AddRow("heap objects", fmt.Sprint(heapBytes), fmt.Sprintf("%d", heapBytes/3), metrics.F(ratio))
	r.Table.AddRow("inlined native", fmt.Sprint(wireBytes), fmt.Sprintf("%d", wireBytes/3), "1.00")
	r.Table.AddRow("paper (heap)", "312", "104", "2.79")
	r.Table.AddRow("paper (inlined)", "112", "36", "1.00")
	r.Checks["heap_bytes"] = float64(heapBytes)
	r.Checks["inline_bytes"] = float64(wireBytes)
	r.Checks["ratio"] = ratio
	r.Notes = append(r.Notes,
		"paper reports 312/112 = 2.79x; shape criterion: heap/inlined between 2x and 3.5x")
	return r, nil
}

// Figure5 regenerates the object-bytes to serialized-bytes ratios for
// PR, CC and TC over the four standard graphs (paper overall: 3.5x).
func Figure5(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 5", "heap bytes / serialized bytes at shuffles",
		"graph", "PR", "CC", "TC")
	graphs := workload.StandardGraphs(cfg.Scale)
	var all []float64
	for _, g := range graphs {
		// Keep graphs modest: the ratio is size-independent.
		g.Vertices = min(g.Vertices, 150*cfg.Scale)
		links := workload.GenGraph(g)
		row := []string{g.Name}
		for _, app := range []string{"PR", "CC", "TC"} {
			ratio, err := shuffleRatio(app, links, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s/%s: %w", g.Name, app, err)
			}
			row = append(row, metrics.F(ratio))
			all = append(all, ratio)
			r.Checks[g.Name+"/"+app] = ratio
		}
		r.Table.AddRow(row...)
	}
	overall := metrics.GeoMean(all)
	r.Checks["overall"] = overall
	r.Table.AddRow("overall (geomean)", metrics.F(overall), "", "")
	r.Notes = append(r.Notes, "paper overall ratio: 3.5x; shape criterion: > 2x")
	return r, nil
}

// shuffleRatio runs one iteration of the app far enough to obtain its
// first shuffle block, then compares the heap footprint of the
// deserialized records against their serialized size.
func shuffleRatio(app string, links []workload.Links, cfg Config) (float64, error) {
	entry := suiteApp(app)
	if app == "TC" {
		// Pack keys modulo this graph's vertex count, not the catalog's.
		entry.Register = sparkapps.TriangleCounting{Vertices: int64(len(links)) + 1, MaxWedges: 32}.Register
	}
	ctx, rdd, err := sparkJob(cfg, engine.Baseline, entry, sparkapps.ClsLinks, workload.LinksObjs(links))
	if err != nil {
		return 0, err
	}

	var shuffled *spark.RDD
	var class string
	switch app {
	case "PR":
		ranks, err := rdd.MapPartitions("prInitStage", sparkapps.ClsRank)
		if err != nil {
			return 0, err
		}
		shuffled, err = rdd.JoinPairs(ranks, "prJoinStage", "src", "v", sparkapps.ClsContrib)
		if err != nil {
			return 0, err
		}
		class = sparkapps.ClsContrib
	case "CC":
		labels, err := rdd.MapPartitions("ccInitStage", sparkapps.ClsLabel)
		if err != nil {
			return 0, err
		}
		shuffled, err = rdd.JoinPairs(labels, "ccJoinStage", "src", "v", sparkapps.ClsLabel)
		if err != nil {
			return 0, err
		}
		class = sparkapps.ClsLabel
	case "TC":
		shuffled, err = rdd.MapPartitions("tcWedgeStage", sparkapps.ClsTriRec)
		if err != nil {
			return 0, err
		}
		class = sparkapps.ClsTriRec
	}

	// Total the heap bytes the shuffle records occupy as a JVM would
	// hold them — generic tuple records with boxed primitive fields,
	// which is exactly the "before Kryo" number the paper's modified
	// Kryo reported for GraphX shuffles.
	buf := shuffled.CollectBytes()
	if len(buf) == 0 {
		return 0, fmt.Errorf("no shuffle records")
	}
	var heapBytes, wire int64
	for off := 0; off < len(buf); {
		sz := serde.RecordSize(buf, off)
		foot, err := ctx.C.Codec.BoxedWireFootprint(class, buf, off)
		if err != nil {
			return 0, err
		}
		heapBytes += foot
		wire += int64(sz - serde.SizePrefixBytes)
		off += sz
	}
	return metrics.Ratio(float64(heapBytes), float64(wire)), nil
}

// Table1 regenerates the Spark program inventory; each dataset size is
// the record count the row's input generates at cfg.Scale.
func Table1(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := newResult("Table 1", "Spark programs and inputs (scaled)",
		"name", "dataset (scaled)", "data type T")
	for _, app := range SparkAppNames {
		row := table1[app]
		_, objs := row.input(cfg.Scale)
		r.Table.AddRow(row.title, fmt.Sprintf(row.dataset, len(objs)), row.dataType)
	}
	return r
}

// Table2 regenerates the Hadoop program inventory; each dataset size is
// the record count hadoopInput generates at cfg.Scale.
func Table2(cfg Config) *Result {
	cfg = cfg.withDefaults()
	r := newResult("Table 2", "Hadoop programs and inputs (scaled)",
		"name", "dataset (scaled)", "description")
	datasets := map[string]string{
		"stackoverflow-users": "StackOverflow-like, %d users",
		"stackoverflow-posts": "StackOverflow-like, %d posts",
		"wikipedia":           "Wikipedia-like, %d docs",
	}
	for _, row := range [][2]string{
		{"IUF", "Inactive Users Filtering"},
		{"UAH", "Active User Activity Histogram"},
		{"SPF", "Spam Posts Filtering"},
		{"UED", "User Engagement Distribution"},
		{"CED", "Community Expert Detection"},
		{"IMC", "In-Map Combiner word count"},
		{"TFC", "Term Frequency Calculation"},
	} {
		_, objs := hadoopInput(row[0], cfg.Scale)
		r.Table.AddRow(row[0], fmt.Sprintf(datasets[hadoopapps.Dataset(row[0])], len(objs)), row[1])
	}
	return r
}

// Figure6a renders the Spark runtime breakdown comparison.
func Figure6a(s *Suite) *Result {
	return figure6("Figure 6(a)", "Spark running time: baseline vs Gerenuk", "1.96x", s)
}

// Figure6b renders the Hadoop runtime comparison.
func Figure6b(s *Suite) *Result {
	return figure6("Figure 6(b)", "Hadoop running time: baseline vs Gerenuk", "1.4x", s)
}

// figure6 tabulates each pair's phase breakdown; Checks carries each
// pair's speedup under its app (and heap, when it has one).
func figure6(id, title, paper string, s *Suite) *Result {
	r := newResult(id, title,
		"app", "heap", "mode", "total", "compute", "gc", "ser", "deser", "shuf", "native", "onheap", "speedup")
	var speedups []float64
	for _, pair := range s.pairs() {
		base, ger := pair[0], pair[1]
		sp := metrics.Ratio(float64(base.Stats.Total), float64(ger.Stats.Total))
		speedups = append(speedups, sp)
		r.Checks[path.Join(base.App, base.HeapName)] = sp
		for _, run := range pair {
			r.Table.AddRow(run.App, run.HeapName, run.Mode.String(),
				metrics.D(run.Stats.Total), metrics.D(run.Stats.Compute()),
				metrics.D(run.Stats.GC), metrics.D(run.Stats.Ser),
				metrics.D(run.Stats.Deser),
				metrics.D(run.Stats.ShuffleWrite+run.Stats.ShuffleRead),
				metrics.D(run.Stats.NativeTime), metrics.D(run.Stats.HeapTime),
				map[bool]string{true: metrics.F(sp), false: ""}[run.Mode == engine.Gerenuk])
		}
	}
	overall := metrics.GeoMean(speedups)
	r.Checks["overall_speedup"] = overall
	r.Notes = append(r.Notes,
		fmt.Sprintf("overall Gerenuk speedup (geomean): %s (paper: %s)", metrics.F(overall), paper))
	return r
}

// Figure7a renders the Spark peak-memory comparison.
func Figure7a(s *Suite) *Result {
	return figure7("Figure 7(a)", "Spark peak memory", s)
}

// Figure7b renders the Hadoop peak-memory comparison.
func Figure7b(s *Suite) *Result {
	return figure7("Figure 7(b)", "Hadoop peak memory", s)
}

func figure7(id, title string, s *Suite) *Result {
	r := newResult(id, title, "app", "heap", "baseline", "gerenuk", "ratio")
	var ratios []float64
	for _, pair := range s.pairs() {
		base, ger := pair[0], pair[1]
		ratio := metrics.Ratio(float64(ger.Stats.PeakBytes()), float64(base.Stats.PeakBytes()))
		ratios = append(ratios, ratio)
		r.Checks[base.App+"/"+base.HeapName] = ratio
		r.Table.AddRow(base.App, base.HeapName,
			metrics.FmtBytes(base.Stats.PeakBytes()),
			metrics.FmtBytes(ger.Stats.PeakBytes()), metrics.F(ratio))
	}
	overall := metrics.GeoMean(ratios)
	r.Checks["overall_ratio"] = overall
	r.Notes = append(r.Notes, fmt.Sprintf(
		"overall gerenuk/baseline memory (geomean): %s (paper: 0.82 Spark, 0.69 Hadoop)",
		metrics.F(overall)))
	return r
}

// Table3 renders the normalized performance summary (lower is better).
func Table3(sp, hd *Suite) *Result {
	r := newResult("Table 3", "Gerenuk normalized to baseline (lower is better)",
		"framework", "overall", "gc", "app", "mem")
	addRows := func(name string, s *Suite) {
		var overall, gc, app, mem []float64
		for _, pair := range s.pairs() {
			base, ger := pair[0].Stats, pair[1].Stats
			overall = append(overall, metrics.Ratio(float64(ger.Total), float64(base.Total)))
			if base.GC > 0 {
				gc = append(gc, metrics.Ratio(float64(ger.GC), float64(base.GC)))
			}
			app = append(app, metrics.Ratio(float64(ger.Compute()), float64(base.Compute())))
			mem = append(mem, metrics.Ratio(float64(ger.PeakBytes()), float64(base.PeakBytes())))
		}
		fmtCell := func(vals []float64) string {
			lo, hi := metrics.MinMax(vals)
			return fmt.Sprintf("%s~%s (%s)", metrics.F(lo), metrics.F(hi), metrics.F(metrics.GeoMean(vals)))
		}
		r.Table.AddRow(name, fmtCell(overall), fmtCell(gc), fmtCell(app), fmtCell(mem))
		r.Checks[name+"/overall"] = metrics.GeoMean(overall)
		r.Checks[name+"/gc"] = metrics.GeoMean(gc)
		r.Checks[name+"/app"] = metrics.GeoMean(app)
		r.Checks[name+"/mem"] = metrics.GeoMean(mem)
	}
	addRows("Spark", sp)
	addRows("Hadoop", hd)
	r.Table.AddRow("paper Spark", "0.28~0.93 (0.51)", "0.44~0.89 (0.63)", "0.28~0.93 (0.50)", "0.62~0.92 (0.82)")
	r.Table.AddRow("paper Hadoop", "0.51~0.87 (0.72)", "0.23~0.87 (0.54)", "0.49~0.88 (0.74)", "0.58~0.84 (0.69)")
	return r
}

// sparkJob builds what one measured Spark run starts from, all of it
// fresh so no run inherits another's compilation caches: app's program,
// compiled; a context in the given mode under cfg's run environment; and
// objs encoded into the context's partitions.
func sparkJob(cfg Config, mode engine.Mode, app sparkapps.App,
	class string, objs []serde.Obj) (*spark.Context, *spark.RDD, error) {
	comp := engine.Compile(app.Program())
	ctx := spark.NewContext(comp, mode)
	ctx.Env = cfg.env(app.Name, mode)
	ctx.Partitions = cfg.Partitions
	parts, err := workload.Encode(comp.Codec, class, objs, cfg.Partitions)
	if err != nil {
		return nil, nil, err
	}
	return ctx, ctx.Parallelize(class, parts), nil
}

// figure8 is the comparison Figures 8(a) and 8(b) both make: one input
// through the RDD program under the baseline and under Gerenuk, and
// through its Tungsten/DataFrame port, which runs on the same native
// substrate but with flat exploded schemas, per-iteration re-planning
// and extra materializations (see sparkapps/tungsten.go).
type figure8 struct {
	id, title string
	class     string // input record class
	objs      []serde.Obj
	app       sparkapps.App // the RDD program's catalog entry
	runRDD    func(*spark.Context, *spark.RDD) (*spark.RDD, error)
	tungsten  interface {
		Register(*ir.Program)
		Run(*spark.Context, *spark.RDD, *sparkapps.Catalyst) (*spark.RDD, error)
	}
	tungstenTypes []string
}

// run measures the three systems and tabulates them against the
// baseline; Checks carries each system's median as <system>_ns.
func (f figure8) run(cfg Config) (*Result, error) {
	r := newResult(f.id, f.title, "system", "time", "vs baseline")
	rdd := func(mode engine.Mode) func() (AppRun, error) {
		return func() (AppRun, error) {
			ctx, in, err := sparkJob(cfg, mode, f.app, f.class, f.objs)
			if err != nil {
				return AppRun{}, err
			}
			_, err = f.runRDD(ctx, in)
			return AppRun{Stats: ctx.Stats}, err
		}
	}
	names := []string{"baseline", "gerenuk", "tungsten"}
	runs, err := medianRuns(rdd(engine.Baseline), rdd(engine.Gerenuk), func() (AppRun, error) {
		tungsten := sparkapps.App{Name: f.app.Name + "-tungsten", Types: f.tungstenTypes, Register: f.tungsten.Register}
		ctx, in, err := sparkJob(cfg, engine.Gerenuk, tungsten, f.class, f.objs)
		if err != nil {
			return AppRun{}, err
		}
		var c sparkapps.Catalyst
		_, err = f.tungsten.Run(ctx, in, &c)
		run := AppRun{Stats: ctx.Stats}
		run.Stats.Total += c.PlanTime
		return run, err
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		r.Table.AddRow(name, metrics.D(runs[i].Stats.Total),
			metrics.F(metrics.Ratio(float64(runs[i].Stats.Total), float64(runs[0].Stats.Total))))
		r.Checks[name+"_ns"] = float64(runs[i].Stats.Total)
	}
	return r, nil
}

// Figure8a compares PageRank across vanilla Spark, Tungsten/DataFrame,
// and Gerenuk, at a fixed 10 iterations (the paper had to cap DataFrame
// PR because of plan growth).
func Figure8a(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	const iters = 10
	links := workload.GenGraph(workload.GraphSpec{
		Name: "LiveJournal", Vertices: 100 * cfg.Scale, AvgDeg: 6, Alpha: 2.3, Seed: 11,
	})
	r, err := figure8{
		id: "Figure 8(a)", title: "PageRank: baseline vs Tungsten vs Gerenuk (10 iters)",
		class: sparkapps.ClsLinks, objs: workload.LinksObjs(links),
		app:           suiteApp("PR"),
		runRDD:        sparkapps.PageRank{Iters: iters}.Run,
		tungsten:      sparkapps.TungstenPageRank{Iters: iters},
		tungstenTypes: []string{sparkapps.ClsLinks, sparkapps.ClsEdge, sparkapps.ClsRank, sparkapps.ClsContrib},
	}.run(cfg)
	if err != nil {
		return nil, err
	}
	r.Checks["gerenuk_vs_tungsten"] = metrics.Ratio(r.Checks["tungsten_ns"], r.Checks["gerenuk_ns"])
	r.Notes = append(r.Notes, fmt.Sprintf(
		"Gerenuk is %sx faster than Tungsten (paper: 2.2x)",
		metrics.F(r.Checks["gerenuk_vs_tungsten"])))
	return r, nil
}

// Figure8b compares WordCount across the three systems; Tungsten's
// string optimizations win here (paper: by ~20%).
func Figure8b(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	wc := suiteApp("WC")
	r, err := figure8{
		id: "Figure 8(b)", title: "WordCount: baseline vs Tungsten vs Gerenuk",
		class: sparkapps.ClsDoc, objs: workload.GenDocs(30*cfg.Scale, 30, 3),
		app: wc, runRDD: sparkapps.WordCount{}.Run,
		tungsten: sparkapps.TungstenWordCount{}, tungstenTypes: wc.Types,
	}.run(cfg)
	if err != nil {
		return nil, err
	}
	r.Checks["tungsten_vs_gerenuk"] = metrics.Ratio(r.Checks["gerenuk_ns"], r.Checks["tungsten_ns"])
	r.Notes = append(r.Notes, fmt.Sprintf(
		"Tungsten is %sx faster than Gerenuk on WordCount (paper: ~1.2x)",
		metrics.F(r.Checks["tungsten_vs_gerenuk"])))
	return r, nil
}

// Figure9 compares Hadoop IMC under Parallel Scavenge, Yak and Gerenuk
// (paper: Gerenuk cuts GC 13.7x vs PS, runs 2.4x faster than PS and
// 1.8x faster than Yak).
func Figure9(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 9", "Hadoop IMC: Parallel Scavenge vs Yak vs Gerenuk",
		"system", "total", "compute", "gc", "ser+deser")
	type row struct {
		name string
		mode engine.Mode
		yak  bool
	}
	rows := []row{
		{"parallel-scavenge", engine.Baseline, false},
		{"yak", engine.Baseline, true},
		{"gerenuk", engine.Gerenuk, false},
	}
	// The paper's Yak comparison deliberately uses tight heaps (3GB map
	// + 2GB reduce) so collection effort is visible; scale the workload
	// up and the heaps down accordingly.
	tight := cfg
	tight.Scale = cfg.Scale * 4
	variants := make([]func() (AppRun, error), len(rows))
	for i, rw := range rows {
		variants[i] = func() (AppRun, error) {
			res, err := runHadoopApp("IMC", tight, rw.mode, rw.yak,
				heap.Config{YoungSize: 8 << 10, OldSize: 64 << 10, RegionSize: 512 << 10},
				heap.Config{YoungSize: 8 << 10, OldSize: 96 << 10, RegionSize: 512 << 10})
			if err != nil {
				return AppRun{}, fmt.Errorf("fig9 %s: %w", rw.name, err)
			}
			return AppRun{Stats: res.Stats}, nil
		}
	}
	runs, err := medianRuns(variants...)
	if err != nil {
		return nil, err
	}
	for i, rw := range rows {
		stats := runs[i].Stats
		r.Table.AddRow(rw.name, metrics.D(stats.Total), metrics.D(stats.Compute()),
			metrics.D(stats.GC), metrics.D(stats.Ser+stats.Deser))
	}
	ps, yak, ger := runs[0].Stats, runs[1].Stats, runs[2].Stats
	gerGC := float64(ger.GC)
	if gerGC == 0 {
		gerGC = float64(time.Microsecond) // Gerenuk eliminated GC entirely
	}
	r.Checks["gc_reduction_vs_ps"] = metrics.Ratio(float64(ps.GC), gerGC)
	r.Checks["speedup_vs_ps"] = metrics.Ratio(float64(ps.Total), float64(ger.Total))
	r.Checks["speedup_vs_yak"] = metrics.Ratio(float64(yak.Total), float64(ger.Total))
	r.Notes = append(r.Notes, fmt.Sprintf(
		"Gerenuk GC reduction vs PS: %sx (paper 13.7x); speedup vs PS %sx (paper 2.4x), vs Yak %sx (paper 1.8x)",
		metrics.F(r.Checks["gc_reduction_vs_ps"]),
		metrics.F(r.Checks["speedup_vs_ps"]),
		metrics.F(r.Checks["speedup_vs_yak"])))
	return r, nil
}

// Figure10a measures the StackOverflow Analytics application, whose
// Vector resizes trigger real aborts (paper: Gerenuk ends up 7% slower).
func Figure10a(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 10(a)", "SOA with real aborts",
		"mode", "total", "aborts", "vs baseline")
	// The combine phase (quadratic in posts per user) dominates; the
	// initial capacity is sized so that only the ~10% heavy users make
	// their vectors resize, matching the paper's observation that about
	// 10% of Vector instances resized.
	posts := workload.GenPosts(64*cfg.Scale, 20, 17)

	soa := sparkapps.StackOverflowAnalytics{InitialCap: 40}
	app := suiteApp("SOA")
	app.Register = soa.Register // this figure's capacity, not the catalog's
	variant := func(mode engine.Mode) func() (AppRun, error) {
		return func() (AppRun, error) {
			ctx, in, err := sparkJob(cfg, mode, app, sparkapps.ClsPost, posts)
			if err != nil {
				return AppRun{}, err
			}
			_, err = soa.Run(ctx, in)
			return AppRun{Stats: ctx.Stats}, err
		}
	}
	runs, err := medianRuns(variant(engine.Baseline), variant(engine.Gerenuk))
	if err != nil {
		return nil, err
	}
	base, ger := runs[0].Stats, runs[1].Stats
	slowdown := metrics.Ratio(float64(ger.Total), float64(base.Total))
	r.Table.AddRow("baseline", metrics.D(base.Total), "0", "1.00")
	r.Table.AddRow("gerenuk", metrics.D(ger.Total), fmt.Sprint(ger.Aborts), metrics.F(slowdown))
	r.Checks["slowdown"] = slowdown
	r.Checks["aborts"] = float64(ger.Aborts)
	r.Notes = append(r.Notes,
		"paper: transformed version 7% slower due to abort-and-re-execute waste")
	return r, nil
}

// Figure10b measures PageRank with 0..20 forced aborts (paper: each
// re-execution costs ~9% of a baseline SER).
func Figure10b(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 10(b)", "PageRank with forced aborts",
		"config", "total", "aborts", "vs gerenuk-0")
	links := workload.GenGraph(workload.GraphSpec{
		Name: "LiveJournal", Vertices: 80 * cfg.Scale, AvgDeg: 6, Alpha: 2.3, Seed: 11,
	})
	iters := max(cfg.Iters, 4)

	variant := func(mode engine.Mode, forced int) func() (AppRun, error) {
		return func() (AppRun, error) {
			ctx, rdd, err := sparkJob(cfg, mode, suiteApp("PR"), sparkapps.ClsLinks, workload.LinksObjs(links))
			if err != nil {
				return AppRun{}, err
			}
			// The init stage runs unforced; the abort budget is armed for
			// the iteration SERs, as in the paper's manual abort injection.
			ranks, err := rdd.MapPartitions("prInitStage", sparkapps.ClsRank)
			if err != nil {
				return AppRun{}, err
			}
			ctx.ForcedAbortBudget = forced
			for it := 0; it < iters; it++ {
				contribs, err := rdd.JoinPairs(ranks, "prJoinStage", "src", "v", sparkapps.ClsContrib)
				if err != nil {
					return AppRun{}, err
				}
				summed, err := contribs.ReduceByKey("prCombineStage", "v")
				if err != nil {
					return AppRun{}, err
				}
				ranks, err = summed.MapPartitions("prUpdateStage", sparkapps.ClsRank)
				if err != nil {
					return AppRun{}, err
				}
			}
			return AppRun{Stats: ctx.Stats}, nil
		}
	}

	forced := []int{0, 1, 2, 5, 10, 15, 20}
	variants := []func() (AppRun, error){variant(engine.Baseline, 0)}
	for _, k := range forced {
		variants = append(variants, variant(engine.Gerenuk, k))
	}
	runs, err := medianRuns(variants...)
	if err != nil {
		return nil, err
	}
	base, zero := runs[0].Stats, runs[1].Stats
	r.Table.AddRow("baseline", metrics.D(base.Total), "0", "")
	for i, k := range forced {
		st := runs[i+1].Stats
		rel := metrics.Ratio(float64(st.Total), float64(zero.Total))
		r.Table.AddRow(fmt.Sprintf("gerenuk-%d", k), metrics.D(st.Total),
			fmt.Sprint(st.Aborts), metrics.F(rel))
		r.Checks[fmt.Sprintf("aborts_%d", k)] = float64(st.Aborts)
		r.Checks[fmt.Sprintf("rel_%d", k)] = rel
	}
	r.Checks["baseline_ns"] = float64(base.Total)
	r.Checks["gerenuk0_ns"] = float64(zero.Total)
	r.Notes = append(r.Notes,
		"paper: each re-execution adds ~9% of a baseline SER; serde and GC grow with aborts")
	return r, nil
}

// StaticStats regenerates the section 4.1/4.2 compiler statistics: how
// many classes were touched and how many violation points were inserted
// across the full application suite — every sparkapps catalog program and
// every Table 2 program, each compiled on its own.
func StaticStats() (*Result, error) {
	r := newResult("Static stats", "compiler statistics across all drivers",
		"suite", "drivers", "classes", "violation points", "rewritten stmts", "inlined calls")

	// tally sums the compiler's report over each driver of each program.
	type tally struct {
		drivers, viols, stmts, inlined int
		classes                        map[string]bool
	}
	add := func(t *tally, prog *ir.Program, drivers []string) error {
		comp := engine.Compile(prog)
		for _, d := range drivers {
			if err := comp.CompileDriver(d); err != nil {
				return err
			}
			ser := comp.SERs[d]
			for c := range ser.ClassesTouched {
				t.classes[c] = true
			}
			t.viols += len(ser.Violations)
			st := comp.XStats[d]
			t.stmts += st.RewrittenStmts
			t.inlined += st.InlinedCalls
			t.drivers++
		}
		return nil
	}
	sparkT, hadoopT := tally{classes: map[string]bool{}}, tally{classes: map[string]bool{}}
	for _, a := range sparkapps.Apps {
		if err := add(&sparkT, a.Program(), a.Drivers); err != nil {
			return nil, err
		}
	}
	for _, app := range hadoopapps.AllApps {
		prog, conf := hadoopapps.NewProgram(app)
		if err := add(&hadoopT, prog, conf.Drivers()); err != nil {
			return nil, err
		}
	}
	for _, row := range []struct {
		name string
		t    tally
	}{{"Spark", sparkT}, {"Hadoop", hadoopT}} {
		t := row.t
		r.Table.AddRow(row.name, fmt.Sprint(t.drivers), fmt.Sprint(len(t.classes)),
			fmt.Sprint(t.viols), fmt.Sprint(t.stmts), fmt.Sprint(t.inlined))
		key := strings.ToLower(row.name)
		r.Checks[key+"_classes"] = float64(len(t.classes))
		r.Checks[key+"_violations"] = float64(t.viols)
	}
	r.Notes = append(r.Notes,
		"paper: 55 Spark classes, >126 violation points (none triggered); 22 Hadoop classes")
	return r, nil
}
