package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/hadoop"
	"repro/internal/heap"
	"repro/internal/metrics"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/spark"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every job below drives the system the way examples/ do, through
// public functions only; README.md lists the symbols this pins.

const (
	partitions    = 4 // RDD / shuffle partitions and Hadoop splits / reducers
	prIters       = 3
	kmIters       = 3
	kmK           = 4
	kmDim         = 8
	kmStartOffset = 5.0
	tfcWords      = 30
)

// sizes fixes every workload's input size. scale follows the repo's own
// convention (bench.Config.Scale): PR has 150*scale vertices, KM
// 120*scale points, TFC 40*scale documents, and the simulated heaps are
// bench.HeapSizes(scale) "10GB". Frozen after this PR: changing a size
// changes the workload.
type sizes struct {
	prScale, kmScale, tfcScale int
	streamWindows              int
	svcDiv                     int // svc-mixed runs PR/KM/TFC at 1/svcDiv of the scales above
	// maxSweeps caps how often the layer replay re-runs a small input to
	// make one timing long enough to read.
	maxSweeps int64
}

var (
	fullSizes  = sizes{prScale: 96, kmScale: 400, tfcScale: 160, streamWindows: 128, svcDiv: 16, maxSweeps: 16}
	quickSizes = sizes{prScale: 4, kmScale: 8, tfcScale: 6, streamWindows: 3, svcDiv: 2, maxSweeps: 1}
)

// env is what every workload shares: the pool size, the input sizes and
// a benchmark-owned scratch directory inside the checkout.
type env struct {
	workers int
	sz      sizes
	tmp     string
}

// jobOpts are the outside hooks one job runs with.
type jobOpts struct {
	mode    engine.Mode
	backend engine.Backend // compiled closures (zero value) or the interpreter
	workers int
	tracer  *trace.Tracer       // the existing tracer, attached for the overhead row only
	hooked  bool                // observe stage boundaries through OnStage
	jc      *cluster.JobContext // set when the job runs inside the service
}

// jobObs is what the benchmark sees of one job from outside.
type jobObs struct {
	app     string
	out     []byte
	wall    time.Duration // wire partitions in hand -> output bytes in hand
	front   time.Duration // program build + engine.Compile, timed inside the job
	stats   metrics.Breakdown
	records int64
	comp    *engine.Compiled

	// Stage hook observations (hooked passes only).
	stageWall time.Duration // sum of stage wall
	taskTime  time.Duration // sum of task Stats.Total
	capacity  time.Duration // sum of stage wall x workers
	stages    []stageObs

	stream *stream.Result // stream-wc only

	start     time.Time     // job start on the process clock, for spans
	queueWait time.Duration // svc-mixed: Submit -> Run entry
	finish    time.Duration // svc-mixed: Run return -> Await return
}

type stageObs struct {
	name string
	end  time.Time
	wall time.Duration
}

// stageHook returns the OnStage closure that folds stage boundaries into
// obs, or nil when the pass is not hooked.
func stageHook(o jobOpts, obs *jobObs) func(string, *metrics.Breakdown, time.Duration) {
	if !o.hooked {
		return nil
	}
	return func(stage string, st *metrics.Breakdown, wall time.Duration) {
		obs.stageWall += wall
		obs.taskTime += st.Total
		obs.capacity += wall * time.Duration(o.workers)
		obs.stages = append(obs.stages, stageObs{stage, time.Now(), wall})
	}
}

// app is one application over one generated input: its wire partitions,
// the objects they were encoded from, and how to run one job.
type app struct {
	name  string
	class string
	objs  []serde.Obj
	parts [][]byte
	heap  heap.Config
	// Layer-replay shape: the first narrow stage and the shuffle +
	// fold that follows it.
	mapDriver, midClass, keyField, reduceDriver string
	// mid, when set, produces the shuffle input from a finished job's
	// Compiled (PageRank's contributions come out of a join, not the
	// first narrow stage).
	mid func(comp *engine.Compiled) ([][]byte, error)

	run func(o jobOpts) (jobObs, error)
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sparkHeap(scale int) heap.Config { return bench.HeapSizes(scale)[0].Cfg }

// sparkContext builds the spark.Context one job runs under.
func sparkContext(comp *engine.Compiled, hc heap.Config, o jobOpts, obs *jobObs) *spark.Context {
	ctx := spark.NewContext(comp, o.mode)
	ctx.Workers = o.workers
	ctx.Partitions = partitions
	ctx.HeapCfg = hc
	ctx.Backend = o.backend
	ctx.Trace = o.tracer
	ctx.OnStage = stageHook(o, obs)
	if jc := o.jc; jc != nil {
		ctx.Tenant, ctx.JobID = jc.Tenant, jc.JobID
		ctx.Breaker = jc.Breaker
		ctx.Checkpoints, ctx.Lineage = jc.Checkpoints, jc.Lineage
		ctx.Canceled = jc.Canceled
	}
	return ctx
}

// prVariant is what separates pr-native, pr-spill and pr-deopt.
type prVariant struct {
	shuffle    shuffle.Config
	abortAfter int64
}

func newPR(seed int64, scale int, v prVariant) (*app, error) {
	tops := []string{sparkapps.ClsLinks, sparkapps.ClsRank, sparkapps.ClsContrib}
	links := workload.GenGraph(workload.GraphSpec{
		Name: "LiveJournal", Vertices: 150 * scale, AvgDeg: 6, Alpha: 2.3, Seed: seed,
	})
	a := &app{
		name: "PR", class: sparkapps.ClsLinks, objs: workload.LinksObjs(links), heap: sparkHeap(scale),
		mapDriver: "prInitStage", midClass: sparkapps.ClsContrib, keyField: "v", reduceDriver: "prCombineStage",
	}
	var err error
	a.parts, err = workload.Encode(engine.Compile(sparkapps.NewProgram(tops...)).Codec, a.class, a.objs, partitions)
	if err != nil {
		return nil, err
	}
	a.run = func(o jobOpts) (jobObs, error) {
		obs := jobObs{app: a.name, start: time.Now()}
		comp := engine.Compile(sparkapps.NewProgram(tops...))
		pr := sparkapps.PageRank{Iters: prIters}
		pr.Register(comp.Prog)
		obs.front = time.Since(obs.start)
		ctx := sparkContext(comp, a.heap, o, &obs)
		ctx.Shuffle = v.shuffle
		ctx.AbortAfterRecords = v.abortAfter
		ranks, err := pr.Run(ctx, ctx.Parallelize(a.class, a.parts))
		if err != nil {
			return obs, err
		}
		obs.out = ranks.CollectBytes()
		obs.wall = time.Since(obs.start)
		obs.stats, obs.records, obs.comp = ctx.Stats, ctx.Stats.Records, comp
		return obs, nil
	}
	a.mid = func(comp *engine.Compiled) ([][]byte, error) {
		ctx := spark.NewContext(comp, engine.Gerenuk)
		ctx.Workers, ctx.Partitions, ctx.HeapCfg = 1, partitions, a.heap
		in := ctx.Parallelize(a.class, a.parts)
		ranks, err := in.MapPartitions("prInitStage", sparkapps.ClsRank)
		if err != nil {
			return nil, err
		}
		contribs, err := in.JoinPairs(ranks, "prJoinStage", "src", "v", sparkapps.ClsContrib)
		if err != nil {
			return nil, err
		}
		return contribs.Parts, nil
	}
	return a, nil
}

func newKM(seed int64, scale int) (*app, error) {
	tops := []string{sparkapps.ClsDenseVector, sparkapps.ClsClusterStat}
	points, truth := workload.GenDensePoints(120*scale, kmDim, kmK, seed)
	a := &app{
		name: "KM", class: sparkapps.ClsDenseVector, objs: points, heap: sparkHeap(scale),
		mapDriver: "kmAssignStage_0", midClass: sparkapps.ClsClusterStat, keyField: "cluster", reduceDriver: "kmCombineStage",
	}
	var err error
	a.parts, err = workload.Encode(engine.Compile(sparkapps.NewProgram(tops...)).Codec, a.class, a.objs, partitions)
	if err != nil {
		return nil, err
	}
	a.run = func(o jobOpts) (jobObs, error) {
		obs := jobObs{app: a.name, start: time.Now()}
		comp := engine.Compile(sparkapps.NewProgram(tops...))
		km := sparkapps.KMeans{K: kmK, Dim: kmDim, Iters: kmIters}
		km.Register(comp.Prog)
		obs.front = time.Since(obs.start)
		ctx := sparkContext(comp, a.heap, o, &obs)
		// Start a fixed offset away from the generator's centres: every
		// seed then keeps all K clusters populated, so the fold's shape
		// (key groups, reduce tasks) does not depend on the seed.
		initial := make([][]float64, kmK)
		for j := range initial {
			initial[j] = make([]float64, kmDim)
			for d := range initial[j] {
				initial[j][d] = truth[j][d] + kmStartOffset
			}
		}
		centers, err := km.Run(ctx, ctx.Parallelize(a.class, a.parts), initial)
		if err != nil {
			return obs, err
		}
		var buf bytes.Buffer
		for _, c := range centers {
			fmt.Fprintf(&buf, "%v\n", c)
		}
		obs.out = buf.Bytes()
		obs.wall = time.Since(obs.start)
		obs.stats, obs.records, obs.comp = ctx.Stats, ctx.Stats.Records, comp
		return obs, nil
	}
	return a, nil
}

func newTFC(seed int64, scale int) (*app, error) {
	kb := 1 << 10
	a := &app{
		name: "TFC", class: hadoopapps.ClsDoc, objs: workload.GenDocs(40*scale, tfcWords, seed),
		heap:      heap.Config{YoungSize: scale * 24 * kb, OldSize: scale * 192 * kb},
		mapDriver: "wcSplitStage", midClass: hadoopapps.ClsWordCount, keyField: "word", reduceDriver: "wcCombineStage",
	}
	reduceHeap := heap.Config{YoungSize: scale * 24 * kb, OldSize: scale * 288 * kb}
	prog, _ := hadoopapps.NewProgram(hadoopapps.TFC)
	var err error
	a.parts, err = workload.Encode(engine.Compile(prog).Codec, a.class, a.objs, partitions)
	if err != nil {
		return nil, err
	}
	a.run = func(o jobOpts) (jobObs, error) {
		obs := jobObs{app: a.name, start: time.Now()}
		prog, conf := hadoopapps.NewProgram(hadoopapps.TFC)
		comp := engine.Compile(prog)
		obs.front = time.Since(obs.start)
		conf.Mode = o.mode
		conf.Backend = o.backend
		conf.Workers = o.workers
		conf.Reducers = partitions
		conf.MapHeap, conf.ReduceHeap = a.heap, reduceHeap
		conf.Trace = o.tracer
		conf.OnStage = stageHook(o, &obs)
		if jc := o.jc; jc != nil {
			conf.Tenant, conf.JobID = jc.Tenant, jc.JobID
			conf.Breaker = jc.Breaker
			conf.Checkpoints, conf.Lineage = jc.Checkpoints, jc.Lineage
			conf.Canceled = jc.Canceled
		}
		res, err := hadoop.Run(comp, conf, a.parts)
		if err != nil {
			return obs, err
		}
		obs.out = res.Out
		obs.wall = time.Since(obs.start)
		obs.stats, obs.records, obs.comp = res.Stats, res.Stats.Records, comp
		return obs, nil
	}
	return a, nil
}

// Streaming shape: 16-record batches, 64 ms tumbling windows at 1 ms
// inter-arrival, so every window is four tiny map phases and one fold.
const (
	streamInterval = time.Millisecond
	streamWindow   = 64 * time.Millisecond
	streamCut      = 16
)

func newStreamWC(seed int64, windows int) (*app, error) {
	spec, err := stream.App("wordcount")
	if err != nil {
		return nil, err
	}
	kb := 1 << 10
	a := &app{
		name: "WC", class: spec.InClass, heap: heap.Config{YoungSize: 24 * kb, OldSize: 192 * kb},
		mapDriver: spec.MapDriver, midClass: spec.MapOutClass, keyField: spec.KeyField, reduceDriver: spec.ReduceDriver,
	}
	// The source lives inside stream.Run; the same records are
	// materialised here for the input digest and the layer replay.
	a.objs = spec.Source(seed).Slice(0, int64(windows)*int64(streamWindow/streamInterval))
	a.parts, err = workload.Encode(spec.NewProgram().Codec, a.class, a.objs, partitions)
	if err != nil {
		return nil, err
	}
	a.run = func(o jobOpts) (jobObs, error) {
		obs := jobObs{app: a.name, start: time.Now()}
		timed := spec
		timed.NewProgram = func() *engine.Compiled {
			t := time.Now()
			obs.comp = spec.NewProgram()
			obs.front = time.Since(t)
			return obs.comp
		}
		cfg := stream.Config{
			App: timed, Mode: o.mode, Backend: o.backend, Workers: o.workers, HeapCfg: a.heap,
			Seed: seed, Interval: streamInterval, Windows: windows,
			CutBy:    stream.Cut{Count: streamCut},
			WindowBy: stream.Window{Size: streamWindow},
			Trace:    o.tracer,
		}
		if o.mode == engine.Baseline {
			// The reference is the one-shot run: every window in one batch.
			cfg.CutBy = stream.Cut{Count: 1 << 30}
		}
		res, err := stream.Run(cfg)
		if err != nil {
			return obs, err
		}
		obs.out = []byte(digest(res.Windows...))
		obs.wall = time.Since(obs.start)
		obs.stats, obs.records, obs.stream = res.Stats, res.Records, res
		if o.hooked {
			// stream.Config has no stage hook: task time is known, stage
			// wall is not, so capacity is the whole run.
			obs.taskTime = res.Stats.Total
			obs.capacity = res.Wall * time.Duration(o.workers)
		}
		return obs, nil
	}
	return a, nil
}

// instance is one workload set up for a seed: its apps, the digests of
// their inputs and of the Baseline reference outputs.
type instance struct {
	name string
	apps []*app
	// inputSHA and refSHA are per app, in apps order.
	inputSHA []string
	refSHA   []string
	refWall  []time.Duration // the Baseline reference runs' job wall
	svc      bool
}

// buildApps generates and encodes the workload's inputs.
func buildApps(name string, seed int64, e env) ([]*app, error) {
	sz := e.sz
	one := func(a *app, err error) ([]*app, error) {
		if err != nil {
			return nil, err
		}
		return []*app{a}, nil
	}
	switch name {
	case "pr-native":
		return one(newPR(seed, sz.prScale, prVariant{}))
	case "km-native":
		return one(newKM(seed, sz.kmScale))
	case "tfc-hadoop":
		return one(newTFC(seed, sz.tfcScale))
	case "pr-spill":
		return one(newPR(seed, sz.prScale, prVariant{shuffle: spillConfig(e)}))
	case "pr-deopt":
		return one(newPR(seed, sz.prScale/2, prVariant{abortAfter: 1}))
	case "stream-wc":
		return one(newStreamWC(seed, sz.streamWindows))
	case "svc-mixed":
		var apps []*app
		for _, mk := range []func() (*app, error){
			func() (*app, error) { return newPR(seed, max(1, sz.prScale/sz.svcDiv), prVariant{}) },
			func() (*app, error) { return newKM(seed, max(1, sz.kmScale/sz.svcDiv)) },
			func() (*app, error) { return newTFC(seed, max(1, sz.tfcScale/sz.svcDiv)) },
		} {
			a, err := mk()
			if err != nil {
				return nil, err
			}
			apps = append(apps, a)
		}
		return apps, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// spillConfig is the pr-spill exchange: a budget small enough that every
// map-side writer spills several sorted runs, LZ4 blocks, two replicas.
func spillConfig(e env) shuffle.Config {
	return shuffle.Config{
		MemoryBudget: 64 << 10,
		Compression:  shuffle.LZ4,
		Replicas:     2,
		SpillDir:     filepath.Join(e.tmp, "spill"),
	}
}

// setup generates and encodes the inputs, runs every app once in
// Baseline mode — untransformed IR over the simulated heap, the
// independent reference — and runs one untimed warm-up job whose output
// must already match.
func setup(name string, seed int64, e env) (*instance, error) {
	apps, err := buildApps(name, seed, e)
	if err != nil {
		return nil, err
	}
	in := &instance{name: name, apps: apps, svc: name == "svc-mixed"}
	workers := e.workers
	if in.svc {
		workers = svcJobWorkers
	}
	for _, a := range apps {
		in.inputSHA = append(in.inputSHA, digest(a.parts...))
		ref, err := a.run(jobOpts{mode: engine.Baseline, workers: workers})
		if err != nil {
			return nil, fmt.Errorf("%s/%s reference run: %w", name, a.name, err)
		}
		in.refSHA = append(in.refSHA, digest(ref.out))
		in.refWall = append(in.refWall, ref.wall)
		warm, err := a.run(jobOpts{mode: engine.Gerenuk, workers: workers})
		if err != nil {
			return nil, fmt.Errorf("%s/%s warm-up: %w", name, a.name, err)
		}
		if got := digest(warm.out); got != in.refSHA[len(in.refSHA)-1] {
			return nil, fmt.Errorf("%s/%s: gerenuk output %s != baseline reference %s",
				name, a.name, got[:12], in.refSHA[len(in.refSHA)-1][:12])
		}
	}
	return in, nil
}
