package job_test

import (
	"testing"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hadoop"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/shuffle"
	"repro/internal/spark"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The one-record rule: a job's Breakdown is charged only by RunStage and
// ShuffleBy, Total is summed busy time, and every
// registry series that mirrors a breakdown field is published from the
// record itself.

var modes = []engine.Mode{engine.Baseline, engine.Gerenuk}

// unclamped is Compute without its clamp at zero: a negative value is
// attributed time that Total never held.
func unclamped(b metrics.Breakdown) time.Duration {
	return b.Total - b.GC - b.Ser - b.Deser - b.ShuffleWrite - b.ShuffleRead
}

// wordCountParts runs the word-count split stage and returns its map
// outputs, the parts an exchange shuffles.
func wordCountParts(t *testing.T, mode engine.Mode) (*engine.Compiled, [][]byte) {
	t.Helper()
	rt, specs := wordCountSplits(t, mode, 4)
	parts, err := rt.RunStage("wcSplitStage", nil, heapCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return rt.C, parts
}

// An exchange nets to zero in Compute: it charges Total exactly the busy
// time it attributes to the shuffle and serde columns, its key-order
// merge included.
func TestShuffleByChargesItsBusyTime(t *testing.T) {
	for _, mode := range modes {
		c, parts := wordCountParts(t, mode)
		for _, keyOrder := range []bool{false, true} {
			rt := &job.Runtime{Env: job.Env{Mode: mode, Workers: 2}, C: c}
			rt.Shuffle = shuffle.Config{MemoryBudget: 512, SpillDir: t.TempDir(), Compression: shuffle.LZ4, Replicas: 2}
			if _, err := rt.ShuffleBy("ledger", sparkapps.ClsWordCount, "word", 3, keyOrder, parts); err != nil {
				t.Fatal(err)
			}
			st := rt.Stats
			if st.Total <= 0 || st.Spills == 0 {
				t.Fatalf("%v/keyOrder=%v: total %v, %d spills: the exchange did no measurable work", mode, keyOrder, st.Total, st.Spills)
			}
			if want := st.ShuffleWrite + st.ShuffleRead + st.Ser + st.Deser; st.Total != want {
				t.Errorf("%v/keyOrder=%v: Total = %v, want write+read+ser+deser = %v", mode, keyOrder, st.Total, want)
			}
			if c := unclamped(st); c != 0 {
				t.Errorf("%v/keyOrder=%v: unclamped compute = %v, want 0", mode, keyOrder, c)
			}
		}
	}
}

// pageRank runs two PageRank iterations over a 40-vertex graph under env
// and returns the job's record.
func pageRank(t *testing.T, env job.Env, abortAfter int64) (metrics.Breakdown, error) {
	t.Helper()
	app, _ := sparkapps.Lookup("PR")
	comp := engine.Compile(app.Program())
	ctx := spark.NewContext(comp, env.Mode)
	ctx.Env = env
	ctx.Partitions = 2
	ctx.AbortAfterRecords = abortAfter
	links := workload.GenGraph(workload.GraphSpec{Name: "ledger", Vertices: 40, AvgDeg: 3, Alpha: 2.2, Seed: 7})
	parts, err := workload.Encode(comp.Codec, sparkapps.ClsLinks, workload.LinksObjs(links), ctx.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sparkapps.PageRank{Iters: 2}.Run(ctx, ctx.Parallelize(sparkapps.ClsLinks, parts))
	return ctx.Stats, err
}

// A job's compute is its stages' compute: the exchanges net to zero and
// driver-side grouping is not charged, whatever the fan-out.
func TestJobComputeIsStageCompute(t *testing.T) {
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			var stages time.Duration
			env := job.Env{Mode: mode, Workers: workers,
				OnStage: func(_ string, st *metrics.Breakdown, _ time.Duration) { stages += unclamped(*st) }}
			bd, err := pageRank(t, env, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := unclamped(bd); got != stages {
				t.Errorf("%v/workers=%d: job compute %v, stages' compute %v", mode, workers, got, stages)
			}
		}
	}
}

// mirrors pairs each registry series that mirrors a breakdown field with
// that field.
var mirrors = []struct {
	series string
	field  func(metrics.Breakdown) int64
}{
	{"aborts_total", func(b metrics.Breakdown) int64 { return b.Aborts }},
	{"native_skips_total", func(b metrics.Breakdown) int64 { return b.NativeSkips }},
	{"hedges_total", func(b metrics.Breakdown) int64 { return b.Hedges }},
	{"hedge_wins_total", func(b metrics.Breakdown) int64 { return b.HedgeWins }},
	{"retries_total", func(b metrics.Breakdown) int64 { return b.Retries }},
	{"shuffle_spills_total", func(b metrics.Breakdown) int64 { return b.Spills }},
	{"shuffle_bytes_spilled_total", func(b metrics.Breakdown) int64 { return b.ShuffleBytesSpilled }},
	{"shuffle_bytes_written_total", func(b metrics.Breakdown) int64 { return b.ShuffleBytesWritten }},
	{"shuffle_bytes_fetched_total", func(b metrics.Breakdown) int64 { return b.ShuffleBytesFetched }},
	{"shuffle_fetch_retries_total", func(b metrics.Breakdown) int64 { return b.ShuffleFetchRetries }},
}

// Every mirrored series on a job's tracer equals the job's summed field,
// through every front-end and both modes, while lineage rebuilds rewrite
// lost map outputs (which must not count twice), tasks retry, fetches
// retry and — on the Spark run — every speculation aborts until the
// breaker skips it.
func TestMirroredSeriesMatchBreakdown(t *testing.T) {
	hadoopJob := func(app string) func(*testing.T, job.Env) (metrics.Breakdown, error) {
		return func(t *testing.T, env job.Env) (metrics.Breakdown, error) {
			prog, conf := hadoopapps.NewProgram(app)
			comp := engine.Compile(prog)
			splits, err := workload.Encode(comp.Codec, hadoopapps.ClsDoc, docs, 3)
			if err != nil {
				t.Fatal(err)
			}
			conf.Env = env
			conf.Reducers = 2
			res, err := hadoop.Run(comp, conf, splits)
			return res.Stats, err
		}
	}
	runs := []struct {
		name string
		run  func(*testing.T, job.Env) (metrics.Breakdown, error)
	}{
		{"spark-PR", func(t *testing.T, env job.Env) (metrics.Breakdown, error) {
			env.Breaker = engine.NewBreaker(2)
			return pageRank(t, env, 2)
		}},
		{"hadoop-TFC", hadoopJob(hadoopapps.TFC)},
		{"hadoop-IMC", hadoopJob(hadoopapps.IMC)},
		{"stream-wordcount", func(t *testing.T, env job.Env) (metrics.Breakdown, error) {
			spec, err := stream.App("wordcount")
			if err != nil {
				t.Fatal(err)
			}
			res, err := stream.Run(stream.Config{
				App: spec, Reducers: 2, Seed: 7, Interval: time.Millisecond,
				CutBy: stream.Cut{Count: 8}, WindowBy: stream.Window{Size: 16 * time.Millisecond}, Windows: 2,
			}.WithEnv(env))
			return res.Stats, err
		}},
	}
	for _, r := range runs {
		for _, mode := range modes {
			tr := trace.New()
			env := job.Env{Mode: mode, Workers: 2, Trace: tr,
				Injector: &faults.Injector{Seed: 3, ReplicaLossRate: 1, ReplicaLosses: 2,
					TransientRate: 0.3, Transient: 1, FetchFailRate: 0.5, FetchFails: 1},
				Shuffle: shuffle.Config{Replicas: 2, MemoryBudget: 512, SpillDir: t.TempDir()},
			}
			bd, err := r.run(t, env)
			if err != nil {
				t.Fatalf("%s/%v: %v", r.name, mode, err)
			}
			reg := tr.Registry()
			if reg.Counter("recovery_reexec_total").Value() == 0 {
				t.Errorf("%s/%v: no lineage rebuild ran", r.name, mode)
			}
			for _, m := range mirrors {
				if got, want := reg.Counter(m.series).Value(), m.field(bd); got != want {
					t.Errorf("%s/%v: %s = %d, breakdown %d", r.name, mode, m.series, got, want)
				}
			}
		}
	}
}
