// Package bench implements one experiment driver per table and figure of
// the paper's evaluation (section 4). Each driver returns a Result whose
// text table mirrors the paper's presentation and whose Checks map holds
// the scalar outcomes EXPERIMENTS.md records (and the tests assert on).
//
// The drivers are used by cmd/gerenukbench (full runs) and by the
// repository-root benchmarks in bench_test.go (quick runs).
package bench

import (
	"bytes"
	"fmt"
	"path"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/hadoop"
	"repro/internal/heap"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/spark"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales the experiments and carries the run environment every
// job they start runs under. The embedded job.Env is where each
// cross-cutting knob (workers, backend, hedging, checkpointing, watchdog,
// fault injection, tracing, shuffle, job identity) is declared and
// documented; Mode is set per run and OnStage is derived from StageHook.
type Config struct {
	job.Env
	// Scale multiplies workload sizes; 1 is the quick/test size.
	Scale int
	// Partitions is the RDD/shuffle partition count.
	Partitions int
	// Iters is the iteration count for iterative apps.
	Iters int
	// HeapName selects the HeapSizes configuration RunApp uses for Spark
	// apps: "10GB", "15GB" or "20GB" (default "20GB", the least
	// pressured; pick "10GB" to see GC activity in traces).
	HeapName string
	// StageHook, when set, observes every stage boundary of every job the
	// experiments run, before the stage's stats fold into job totals.
	// The observability plane uses it to charge real GC pause time to
	// the active (app, mode).
	StageHook func(app string, mode engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration)
}

// Quick returns the configuration used by `go test`.
func Quick() Config { return sized(1, 2, 2, 2) }

// Full returns the default harness configuration.
func Full() Config { return sized(6, 4, 4, 5) }

func sized(scale, workers, partitions, iters int) Config {
	c := Config{Scale: scale, Partitions: partitions, Iters: iters}
	c.Workers = workers
	return c
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Partitions <= 0 {
		c.Partitions = 2
	}
	if c.Iters <= 0 {
		c.Iters = 2
	}
	return c
}

// env is the run environment one job of app runs under in mode.
func (c Config) env(app string, mode engine.Mode) job.Env {
	e := c.Env
	e.Mode = mode
	if c.StageHook != nil {
		e.OnStage = func(stage string, stats *metrics.Breakdown, wall time.Duration) {
			c.StageHook(app, mode, stage, stats, wall)
		}
	}
	return e
}

// Result is one regenerated table/figure.
type Result struct {
	ID     string
	Title  string
	Table  metrics.Table
	Notes  []string
	Checks map[string]float64
}

func newResult(id, title string, header ...string) *Result {
	r := &Result{ID: id, Title: title, Checks: map[string]float64{}}
	r.Table.Title = fmt.Sprintf("%s — %s", id, title)
	r.Table.Header = header
	return r
}

// Render returns the printable form.
func (r *Result) Render() string {
	out := r.Table.Render()
	for _, n := range r.Notes {
		out += "  note: " + n + "\n"
	}
	return out
}

// HeapSizeConfig names one of the paper's three per-executor heap sizes,
// scaled to the simulated per-task heaps.
type HeapSizeConfig struct {
	Name string
	Cfg  heap.Config
}

// HeapSizes mirrors the paper's 10GB/15GB/20GB executor heaps, scaled so
// that per-task working sets actually pressure the nursery (the paper's
// inputs are sized relative to the heap the same way).
func HeapSizes(scale int) []HeapSizeConfig {
	if scale <= 0 {
		scale = 1
	}
	kb := 1 << 10
	return []HeapSizeConfig{
		{Name: "10GB", Cfg: heap.Config{YoungSize: scale * 24 * kb, OldSize: scale * 192 * kb}},
		{Name: "15GB", Cfg: heap.Config{YoungSize: scale * 36 * kb, OldSize: scale * 288 * kb}},
		{Name: "20GB", Cfg: heap.Config{YoungSize: scale * 48 * kb, OldSize: scale * 384 * kb}},
	}
}

// AppRun is one (app, heap size, mode) measurement. Hadoop runs have no
// heap size: HeapName is empty.
type AppRun struct {
	App      string
	HeapName string
	Mode     engine.Mode
	Stats    metrics.Breakdown
}

// Suite holds paired measurements: every app (at every heap size) in both
// modes. RunSparkSuite fills one for Figures 6(a)/7(a) and Table 3,
// RunHadoopSuite one for Figures 6(b)/7(b) and Table 3.
type Suite struct {
	Runs []AppRun
}

// Find returns the run for (app, heapName, mode).
func (s *Suite) Find(app, heapName string, mode engine.Mode) (AppRun, bool) {
	for _, r := range s.Runs {
		if r.App == app && r.HeapName == heapName && r.Mode == mode {
			return r, true
		}
	}
	return AppRun{}, false
}

// pairs returns each baseline run, in run order, with its Gerenuk twin.
func (s *Suite) pairs() [][2]AppRun {
	var out [][2]AppRun
	for _, base := range s.Runs {
		if base.Mode != engine.Baseline {
			continue
		}
		if ger, ok := s.Find(base.App, base.HeapName, engine.Gerenuk); ok {
			out = append(out, [2]AppRun{base, ger})
		}
	}
	return out
}

// AppResult is one application run: a canonical byte rendering of the
// program's result — two runs of the same app in the same configuration
// must return identical bytes regardless of hedging, retries or
// scheduling, which the differential tests pin — plus its accumulated
// job statistics.
type AppResult struct {
	Out   []byte
	Stats metrics.Breakdown
}

// sparkApp is one Table 1 program as the paper presents and bench runs
// it: its title, dataset and data type, the one place its input records
// and their count are decided, and a run over the program's catalog
// entry that renders the result as canonical bytes.
type sparkApp struct {
	title, dataset, dataType string
	input                    func(scale int) (class string, objs []serde.Obj)
	run                      func(ctx *spark.Context, in *spark.RDD, iters int) ([]byte, error)
}

// table1 is Table 1, keyed by sparkapps catalog name.
var table1 = map[string]sparkApp{
	"PR": {
		title: "PageRank (PR)", dataset: "power-law graph, %d vertices", dataType: "Links (long, long[])",
		input: func(scale int) (string, []serde.Obj) {
			links := workload.GenGraph(workload.GraphSpec{
				Name: "LiveJournal", Vertices: 150 * scale, AvgDeg: 6, Alpha: 2.3, Seed: 11,
			})
			return sparkapps.ClsLinks, workload.LinksObjs(links)
		},
		run: func(ctx *spark.Context, in *spark.RDD, iters int) ([]byte, error) {
			ranks, err := sparkapps.PageRank{Iters: iters}.Run(ctx, in)
			if err != nil {
				return nil, err
			}
			return ranks.CollectBytes(), nil
		},
	},
	"KM": {
		title: "KMeans (KM)", dataset: "synthetic %d points, 8 features", dataType: "DenseVector",
		input: func(scale int) (string, []serde.Obj) {
			points, _ := workload.GenDensePoints(120*scale, 8, 4, 5)
			return sparkapps.ClsDenseVector, points
		},
		run: func(ctx *spark.Context, in *spark.RDD, iters int) ([]byte, error) {
			initial := make([][]float64, 4)
			for j := range initial {
				initial[j] = make([]float64, 8)
				for d := range initial[j] {
					initial[j][d] = float64(25 * (j + 1))
				}
			}
			centers, err := sparkapps.KMeans{K: 4, Dim: 8, Iters: iters}.Run(ctx, in, initial)
			var buf bytes.Buffer
			for _, c := range centers {
				fmt.Fprintf(&buf, "%v\n", c)
			}
			return buf.Bytes(), err
		},
	},
	"LR": {
		title: "Logistic Regression (LR)", dataset: "synthetic %d points, 10 features", dataType: "LabeledPoint, DenseVector",
		input: func(scale int) (string, []serde.Obj) {
			points, _ := workload.GenLabeledPoints(150*scale, 10, 9)
			return sparkapps.ClsLabeled, points
		},
		run: func(ctx *spark.Context, in *spark.RDD, iters int) ([]byte, error) {
			weights, err := sparkapps.LogReg{Dim: 10, Iters: iters, Rate: 0.5}.Run(ctx, in)
			return fmt.Appendf(nil, "%v\n", weights), err
		},
	},
	"CS": {
		title: "Chi Square Selector (CS)", dataset: "synthetic %d points, 28 features", dataType: "LabeledPoint, SparseVector",
		input: func(scale int) (string, []serde.Obj) {
			return sparkapps.ClsSparsePoint, workload.GenSparsePoints(200*scale, 28, 6, 21)
		},
		run: func(ctx *spark.Context, in *spark.RDD, _ int) ([]byte, error) {
			stats, err := sparkapps.ChiSqSelector{Dim: 28}.Run(ctx, in)
			var buf bytes.Buffer
			feats := make([]int64, 0, len(stats))
			for f := range stats {
				feats = append(feats, f)
			}
			sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
			for _, f := range feats {
				fmt.Fprintf(&buf, "%d=%v\n", f, stats[f])
			}
			return buf.Bytes(), err
		},
	},
	"GB": {
		title: "Gradient Boosting (GB)", dataset: "synthetic %d points, 8 features", dataType: "LabeledPoint, DenseVector",
		input: func(scale int) (string, []serde.Obj) {
			points, _ := workload.GenLabeledPoints(150*scale, 8, 33)
			return sparkapps.ClsLabeled, points
		},
		run: func(ctx *spark.Context, in *spark.RDD, iters int) ([]byte, error) {
			model, err := sparkapps.GBoost{Dim: 8, Rounds: iters, Buckets: 8, Shrinkage: 0.5, Range: 4}.Run(ctx, in)
			var buf bytes.Buffer
			for _, stump := range model {
				fmt.Fprintf(&buf, "%+v\n", stump)
			}
			return buf.Bytes(), err
		},
	},
}

// SparkAppNames lists the Table 1 programs in catalog (paper) order.
var SparkAppNames = func() []string {
	var names []string
	for _, a := range sparkapps.Apps {
		if _, ok := table1[a.Name]; ok {
			names = append(names, a.Name)
		}
	}
	return names
}()

// suiteApp returns the sparkapps catalog entry named name; bench only
// names programs the catalog declares.
func suiteApp(name string) sparkapps.App {
	a, ok := sparkapps.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("bench: %q is not in the sparkapps catalog", name))
	}
	return a
}

// runSparkApp executes one Table 1 program end to end: its catalog
// program, a context, its encoded input, and its run.
func runSparkApp(app string, cfg Config, mode engine.Mode) (AppResult, error) {
	span := cfg.Trace.StartSpan("job", app, trace.Str("mode", mode.String()))
	defer span.End()
	row := table1[app]
	class, objs := row.input(cfg.Scale)
	ctx, in, err := sparkJob(cfg, mode, suiteApp(app), class, objs)
	if err != nil {
		return AppResult{}, err
	}
	ctx.HeapCfg = appHeap(cfg)
	out, err := row.run(ctx, in, cfg.Iters)
	if err != nil {
		return AppResult{}, err
	}
	return AppResult{Out: out, Stats: ctx.Stats}, nil
}

// Reps is how many times each configuration runs; the median total is
// reported, as in the paper ("run three times, median reported").
const Reps = 3

// RunSparkSuite measures every Table 1 app under every heap size in both
// modes — the data behind Figures 6(a), 7(a) and Table 3.
func RunSparkSuite(cfg Config) (*Suite, error) {
	cfg = cfg.withDefaults()
	var heaps []string
	for _, hc := range HeapSizes(cfg.Scale) {
		heaps = append(heaps, hc.Name)
	}
	return runSuite(cfg, heaps, SparkAppNames)
}

// RunHadoopSuite measures every Table 2 app in both modes — the data
// behind Figures 6(b), 7(b) and Table 3.
func RunHadoopSuite(cfg Config) (*Suite, error) {
	return runSuite(cfg, []string{""}, hadoopapps.AllApps)
}

// runSuite measures every app under every named heap (RunApp's HeapName)
// in both modes, keeping each mode's median run.
func runSuite(cfg Config, heaps, apps []string) (*Suite, error) {
	suite := &Suite{}
	for _, heapName := range heaps {
		cfg.HeapName = heapName
		for _, app := range apps {
			variant := func(mode engine.Mode) func() (AppRun, error) {
				return func() (AppRun, error) {
					res, err := RunApp(app, cfg, mode)
					if err != nil {
						return AppRun{}, fmt.Errorf("%s/%v: %w", path.Join(app, heapName), mode, err)
					}
					return AppRun{App: app, HeapName: heapName, Mode: mode, Stats: res.Stats}, nil
				}
			}
			runs, err := medianRuns(variant(engine.Baseline), variant(engine.Gerenuk))
			if err != nil {
				return nil, err
			}
			suite.Runs = append(suite.Runs, runs...)
		}
	}
	return suite, nil
}

// medianRuns measures each variant Reps times and returns, per variant,
// the run with the median total time. The variants run interleaved —
// A,B,C,A,B,C…, the Go collector quiesced before each run so none pays
// for another's garbage — because every figure divides one variant's
// total by another's: measure all of A before any of B and a burst of
// machine load lands on one side of that ratio; interleaved, it lands
// on both.
func medianRuns(variants ...func() (AppRun, error)) ([]AppRun, error) {
	runs := make([][]AppRun, len(variants))
	for rep := 0; rep < Reps; rep++ {
		for v, measure := range variants {
			runtime.GC()
			run, err := measure()
			if err != nil {
				return nil, err
			}
			runs[v] = append(runs[v], run)
		}
	}
	medians := make([]AppRun, len(variants))
	for v, rs := range runs {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Stats.Total < rs[j].Stats.Total })
		medians[v] = rs[Reps/2]
	}
	return medians, nil
}

// hadoopInput generates one Table 2 program's input records: the one
// place its dataset and size are decided, read by the runs and Table 2.
func hadoopInput(app string, scale int) (class string, objs []serde.Obj) {
	switch hadoopapps.Dataset(app) {
	case "stackoverflow-users":
		return hadoopapps.ClsUser, workload.GenUsers(300*scale, 3)
	case "stackoverflow-posts":
		return hadoopapps.ClsPost, workload.GenPosts(80*scale, 5, 3)
	}
	return hadoopapps.ClsDoc, workload.GenDocs(40*scale, 30, 3)
}

// hadoopHeaps returns the map and reduce task heaps of a Hadoop app at
// scale: what RunApp runs with and what AppMemoryEstimate reserves.
func hadoopHeaps(scale int) (mapHeap, reduceHeap heap.Config) {
	kb := 1 << 10
	return heap.Config{YoungSize: scale * 24 * kb, OldSize: scale * 192 * kb},
		heap.Config{YoungSize: scale * 24 * kb, OldSize: scale * 288 * kb}
}

// runHadoopApp executes one Table 2 program end to end with the given
// task heaps, each task in a Yak epoch when yak is set.
func runHadoopApp(app string, cfg Config, mode engine.Mode, yak bool, mapHeap, reduceHeap heap.Config) (*hadoop.Result, error) {
	prog, conf := hadoopapps.NewProgram(app)
	conf.Env = cfg.env(app, mode)
	conf.Reducers = cfg.Partitions
	conf.EpochPerTask = yak
	conf.MapHeap = mapHeap
	conf.ReduceHeap = reduceHeap
	comp := engine.Compile(prog)
	class, objs := hadoopInput(app, cfg.Scale)
	splits, err := workload.Encode(comp.Codec, class, objs, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	return hadoop.Run(comp, conf, splits)
}

// appHeap resolves the Spark heap configuration named by cfg.HeapName.
func appHeap(cfg Config) heap.Config {
	sizes := HeapSizes(cfg.Scale)
	hc := sizes[len(sizes)-1].Cfg
	for _, hs := range sizes {
		if hs.Name == cfg.HeapName {
			hc = hs.Cfg
		}
	}
	return hc
}

// RunApp executes one named application (Spark or Hadoop) in the given
// mode. A failed Hadoop job still returns its partial stats.
func RunApp(app string, cfg Config, mode engine.Mode) (AppResult, error) {
	cfg = cfg.withDefaults()
	switch {
	case slices.Contains(SparkAppNames, app):
		return runSparkApp(app, cfg, mode)
	case slices.Contains(hadoopapps.AllApps, app):
		mapHeap, reduceHeap := hadoopHeaps(cfg.Scale)
		res, err := runHadoopApp(app, cfg, mode, false, mapHeap, reduceHeap)
		if res == nil {
			return AppResult{}, err
		}
		if err != nil {
			return AppResult{Stats: res.Stats}, err
		}
		return AppResult{Out: res.Out, Stats: res.Stats}, nil
	}
	return AppResult{}, fmt.Errorf("bench: unknown app %q", app)
}
