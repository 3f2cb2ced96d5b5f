package job_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hadoop"
	"repro/internal/heap"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/shuffle"
	"repro/internal/spark"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/workload"
)

// frontEnd runs one small word-count job under env through one of the
// three front-ends and reports its canonical output bytes and the job
// totals — the totals even when the job fails.
type frontEnd struct {
	name string
	// hooked: the front-end can carry Env.OnStage (stream.Config has no
	// flat field for it until it embeds job.Env).
	hooked bool
	run    func(t *testing.T, env job.Env) ([]byte, metrics.Breakdown, error)
}

var docs = workload.GenDocs(12, 12, 3)

var frontEnds = []frontEnd{
	{name: "spark", hooked: true, run: func(t *testing.T, env job.Env) ([]byte, metrics.Breakdown, error) {
		prog := sparkapps.NewProgram(sparkapps.ClsDoc, sparkapps.ClsWordCount)
		comp := engine.Compile(prog)
		sparkapps.WordCount{}.Register(prog)
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsDoc, docs, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx := spark.NewContext(comp, env.Mode)
		ctx.Env = env
		ctx.Partitions = 2
		counts, err := sparkapps.WordCount{}.Run(ctx, ctx.Parallelize(sparkapps.ClsDoc, parts))
		if err != nil {
			return nil, ctx.Stats, err
		}
		return counts.CollectBytes(), ctx.Stats, nil
	}},
	{name: "hadoop", hooked: true, run: func(t *testing.T, env job.Env) ([]byte, metrics.Breakdown, error) {
		prog, conf := hadoopapps.NewProgram(hadoopapps.TFC)
		comp := engine.Compile(prog)
		splits, err := workload.Encode(comp.Codec, hadoopapps.ClsDoc, docs, 2)
		if err != nil {
			t.Fatal(err)
		}
		conf.Env = env
		conf.Reducers = 2
		res, err := hadoop.Run(comp, conf, splits)
		return res.Out, res.Stats, err
	}},
	{name: "stream", run: func(t *testing.T, env job.Env) ([]byte, metrics.Breakdown, error) {
		spec, err := stream.App("wordcount")
		if err != nil {
			t.Fatal(err)
		}
		// One batch per run: every window closes right behind the only
		// map stage, so a cancel raised at that stage's end is first seen
		// by the fetch, not by the next batch boundary.
		res, err := stream.Run(stream.Config{
			App: spec, Reducers: 2, Seed: 7, Interval: time.Millisecond,
			CutBy: stream.Cut{Count: 1 << 30}, WindowBy: stream.Window{Size: 8 * time.Millisecond}, Windows: 2,
		}.WithEnv(env))
		return bytes.Join(res.Windows, nil), res.Stats, err
	}},
}

func count(events []trace.Event, cat, name string) int {
	n := 0
	for _, e := range events {
		if e.Cat == cat && (name == "" || e.Name == name) && e.Ph != "B" {
			n++
		}
	}
	return n
}

// TestStageRunnerContract pins what job.Runtime promises every
// front-end, by running the same cases through all three.
func TestStageRunnerContract(t *testing.T) {
	base := func() job.Env { return job.Env{Mode: engine.Gerenuk, Workers: 2} }
	for _, fe := range frontEnds {
		fe := fe
		t.Run(fe.name+"/canceled-before-stage", func(t *testing.T) {
			env, tr := base(), trace.New()
			env.Trace = tr
			done := make(chan struct{})
			close(done)
			env.Canceled = done
			_, _, err := fe.run(t, env)
			if !errors.Is(err, engine.ErrCanceled) {
				t.Fatalf("err = %v, want engine.ErrCanceled", err)
			}
			if n := count(tr.Events(), "task", ""); n != 0 {
				t.Fatalf("%d tasks ran under a closed Canceled", n)
			}
		})

		t.Run(fe.name+"/canceled-before-fetch", func(t *testing.T) {
			env, tr := base(), trace.New()
			env.Trace = tr
			cancel := make(chan struct{})
			env.Canceled = cancel
			var once sync.Once
			tr.Subscribe(func(e trace.Event) {
				if e.Cat == "stage" && e.Ph == "X" {
					once.Do(func() { close(cancel) })
				}
			})
			_, _, err := fe.run(t, env)
			if !errors.Is(err, engine.ErrCanceled) {
				t.Fatalf("err = %v, want engine.ErrCanceled", err)
			}
			ev := tr.Events()
			if count(ev, "shuffle", "shuffle-write") == 0 {
				t.Fatal("the job never reached its exchange — the case did not test the fetch")
			}
			if n := count(ev, "shuffle", "fetch"); n != 0 {
				t.Fatalf("%d reducers fetched under a closed Canceled", n)
			}
		})

		t.Run(fe.name+"/hung-stage-retried-once", func(t *testing.T) {
			want, _, err := fe.run(t, base())
			if err != nil {
				t.Fatal(err)
			}
			// The hang: the first task to persist a checkpoint never gets
			// past its next trace call (the tracer reads its clock outside
			// its lock, so only that one worker wedges). One worker, so the
			// goroutine that saved is the goroutine that wedges; released
			// at cleanup, it drains into a job that is long over.
			var armed atomic.Bool
			var once sync.Once
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			tr := trace.NewWithClock(func() time.Time {
				if armed.CompareAndSwap(true, false) {
					<-release
				}
				return time.Now()
			})
			tr.Subscribe(func(e trace.Event) {
				if e.Cat == "recovery" && e.Name == "checkpoint-save" {
					once.Do(func() { armed.Store(true) })
				}
			})
			env := base()
			env.Workers = 1
			env.Trace = tr
			env.CheckpointEvery = 1
			env.StageDeadline = 500 * time.Millisecond
			got, _, err := fe.run(t, env)
			if err != nil {
				t.Fatalf("a stage hung once must succeed on its retry: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("output after a watchdog retry differs from the clean run")
			}
			reg := tr.Registry()
			if n := reg.Counter("recovery_watchdog_timeouts_total").Value(); n != 1 {
				t.Fatalf("watchdog fired %d times, want 1 (one hang, one #retry guard)", n)
			}
			if reg.Counter("recovery_checkpoint_resumes_total").Value() == 0 {
				t.Fatal("the retried stage restarted its checkpointed task instead of resuming it")
			}
		})

		t.Run(fe.name+"/lineage-released", func(t *testing.T) {
			// A service shares one lineage registry for its whole life;
			// every finished job must leave it empty, or each job's map
			// outputs stay reachable through their rebuild closures.
			shared := recovery.NewLineage()
			for j := 0; j < 3; j++ {
				env := base()
				env.JobID, env.Lineage = fmt.Sprintf("job-%d", j), shared
				if _, _, err := fe.run(t, env); err != nil {
					t.Fatal(err)
				}
				if n := shared.Len(); n != 0 {
					t.Fatalf("after job %d: %d lineage producers retained", j, n)
				}
			}
		})

		t.Run(fe.name+"/failed-stage-folds-partial-stats", func(t *testing.T) {
			env := base()
			env.Injector = &faults.Injector{Seed: 5, TransientRate: 1, Transient: 9}
			_, stats, err := fe.run(t, env)
			if err == nil {
				t.Fatal("every attempt of every task fails, yet the job succeeded")
			}
			if stats.Attempts == 0 || stats.Retries == 0 {
				t.Fatalf("failed stage left no trace in the job totals: %+v", stats)
			}
		})

		if !fe.hooked {
			continue
		}
		t.Run(fe.name+"/onstage-before-fold", func(t *testing.T) {
			env := base()
			calls := 0
			env.OnStage = func(stage string, stats *metrics.Breakdown, wall time.Duration) {
				calls++
				if wall <= 0 {
					t.Errorf("stage %s: wall = %v, want > 0", stage, wall)
				}
				stats.GCAttributed += time.Microsecond
			}
			_, stats, err := fe.run(t, env)
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatal("OnStage never ran")
			}
			if want := time.Duration(calls) * time.Microsecond; stats.GCAttributed != want {
				t.Fatalf("GCAttributed = %v, want %v: the hook's mutation must land in the totals",
					stats.GCAttributed, want)
			}
		})
	}
}

// wordCount binds a fresh runtime to the word-count program and returns
// the split stage's specs over docs; heapCfg sizes its tasks.
func wordCount(t *testing.T, mode engine.Mode) (*job.Runtime, []engine.TaskSpec) {
	return wordCountSplits(t, mode, 2)
}

// wordCountSplits is wordCount over docs cut into splits partitions.
func wordCountSplits(t *testing.T, mode engine.Mode, splits int) (*job.Runtime, []engine.TaskSpec) {
	t.Helper()
	prog := sparkapps.NewProgram(sparkapps.ClsDoc, sparkapps.ClsWordCount)
	comp := engine.Compile(prog)
	sparkapps.WordCount{}.Register(prog)
	in, err := workload.Encode(comp.Codec, sparkapps.ClsDoc, docs, splits)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]engine.TaskSpec, len(in))
	for i, p := range in {
		specs[i] = engine.TaskSpec{Name: fmt.Sprintf("wcSplitStage-p%d", i), Driver: "wcSplitStage",
			Invocations: []map[string]engine.Input{{"in": {Class: sparkapps.ClsDoc, Buf: p}}}}
	}
	return &job.Runtime{Env: job.Env{Mode: mode, Workers: 2}, C: comp}, specs
}

var heapCfg = heap.Config{YoungSize: 128 << 10, OldSize: 2 << 20}

// The same task name yields the same fault plan, whatever the mode: the
// plan is a function of (injector, name) alone, which is what keeps
// every differential suite comparing like with like.
func TestFaultPlanFollowsTaskName(t *testing.T) {
	inj := faults.Chaos(42)
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		rt, specs := wordCount(t, mode)
		rt.Injector = inj
		if _, err := rt.RunStage("wcSplitStage", nil, heapCfg, specs); err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if got, want := spec.Faults.String(), inj.ForTask(spec.Name).String(); got != want {
				t.Errorf("%v/%s: plan %q, want %q", mode, spec.Name, got, want)
			}
		}
	}
}

// Any error inside an exchange abandons it: no spill run stays in
// SpillDir and no block stays in the store.
func TestExchangeFailureLeaksNothing(t *testing.T) {
	cases := []struct {
		name  string
		setup func(rt *job.Runtime, parts [][]byte)
	}{
		{"truncated-record", func(rt *job.Runtime, parts [][]byte) {
			last := len(parts) - 1
			parts[last] = parts[last][:len(parts[last])-3]
		}},
		{"fetch-failures-exhausted", func(rt *job.Runtime, parts [][]byte) {
			rt.Injector = &faults.Injector{Seed: 1, FetchFailRate: 1, FetchFails: 99}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, specs := wordCount(t, engine.Gerenuk)
			parts, err := rt.RunStage("wcSplitStage", nil, heapCfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			rt.Shuffle.MemoryBudget = 1 // every record spills
			rt.Shuffle.SpillDir = dir
			rt.JobID, rt.Lineage = "leaky-job", recovery.NewLineage()
			tc.setup(rt, parts)
			if _, err := rt.ShuffleBy("leaky", sparkapps.ClsWordCount, "word", 2, false, parts); err == nil {
				t.Fatal("exchange succeeded")
			}
			assertNoLeak(t, rt, dir)
			if n := rt.Lineage.Len(); n != 0 {
				t.Errorf("%d lineage producers left in the shared registry", n)
			}
		})
	}
}

// ShuffleBy's blocks do not depend on how many writers and reducers run
// at once: Workers 1 and 4 produce byte-identical blocks, here through a
// spilling, compressed, replicated, key-merging exchange in both modes.
func TestShuffleByDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		var ref [][]byte
		for _, workers := range []int{1, 4} {
			rt, specs := wordCountSplits(t, mode, 6)
			rt.Workers = workers
			parts, err := rt.RunStage("wcSplitStage", nil, heapCfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			rt.Shuffle = shuffle.Config{MemoryBudget: 512, SpillDir: dir, Compression: shuffle.LZ4, Replicas: 2}
			blocks, err := rt.ShuffleBy("det", sparkapps.ClsWordCount, "word", 3, true, parts)
			if err != nil {
				t.Fatal(err)
			}
			if rt.Stats.Spills < int64(len(parts)) {
				t.Fatalf("%v/workers=%d: %d spills, want >= one per map task", mode, workers, rt.Stats.Spills)
			}
			assertNoLeak(t, rt, dir)
			if ref == nil {
				ref = blocks
				continue
			}
			for r := range ref {
				if !bytes.Equal(blocks[r], ref[r]) {
					t.Errorf("%v: reducer %d differs between Workers 1 and %d", mode, r, workers)
				}
			}
		}
	}
}

func assertNoLeak(t *testing.T, rt *job.Runtime, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d spill files left in SpillDir, first %s", len(left), left[0].Name())
	}
	if n := rt.LiveBlocks(); n != 0 {
		t.Errorf("%d blocks left in the store", n)
	}
}
