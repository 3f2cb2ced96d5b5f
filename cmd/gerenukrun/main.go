// Command gerenukrun executes one application end to end in both modes
// and prints the side-by-side cost breakdown — the quickest way to see
// the transformation's effect.
//
// Usage:
//
//	gerenukrun -app PR|KM|LR|CS|GB|IUF|UAH|SPF|UED|CED|IMC|TFC [-scale N]
//	           [-engine compiled|interp]
//	           [-hedge-after 5ms] [-trace out.json]
//	           [-metrics-json out.json] [-shuffle-budget N]
//	           [-shuffle-compress none|lz4] [-replicas 2]
//	           [-checkpoint-every N] [-stage-deadline 5s]
//	           [-recovery-faults seed]
//	           [-obs-addr 127.0.0.1:9477] [-obs-hold 30s]
//	           [-flame out.folded]
//	gerenukrun -stream -app wordcount|streamrank
//	           [-checkpoint-dir DIR] [-stream-resume]
//
// -trace streams a Chrome trace_event JSON file incrementally (load it
// in Perfetto or chrome://tracing) with job/stage/task/attempt/phase
// spans, shuffle write/spill/merge/fetch spans, and GC, abort, retry
// and breaker instants from both runs. -metrics-json writes the
// metrics-registry snapshot (counters, gauges, latency and GC-pause
// histograms) plus both modes' cost breakdowns.
//
// The -shuffle-* flags configure the exchange: a positive budget forces
// sorted spill runs on the map side, and the codec compresses blocks at
// rest and on the wire.
//
// The durability knobs arm the recovery layer: -replicas keeps N copies
// of every shuffle block, -checkpoint-every checkpoints reduce-side
// fold state every N invocations, and -stage-deadline converts stage
// hangs into retryable timeouts. -recovery-faults seeds the
// RecoveryChaos injector (replica loss, reduce-task kills, checkpoint
// corruption) so the recovery spans and counters show up in the trace
// and metrics output; output must stay byte-equal regardless.
//
// -stream switches to the micro-batch streaming engine: an unbounded
// source is cut into micro-batches, mapped through the same SER
// pipelines, accumulated per window, and shuffled and folded once when
// the window closes, in the shape bench.StreamRunConfig gives the app
// at -scale. Both modes run the identical record stream and the
// per-window outputs must stay byte-equal across modes. With
// -checkpoint-dir, window state checkpoints to disk and a killed run
// restarted with -stream-resume picks up mid-window instead of
// replaying from record zero; -stream-resume without -checkpoint-dir
// is rejected.
//
// The observability plane is opt-in: -obs-addr serves /metrics
// (Prometheus text exposition), /healthz, /statusz, /flamez and
// /debug/pprof/ for the duration of the run; -obs-hold keeps the
// process alive after the run until at least one /metrics scrape lands
// (or the duration expires), so an external scraper can always observe
// a short run. -flame writes the span stream folded into Brendan
// Gregg collapsed-stack text (feed it to flamegraph.pl or speedscope).
// Either of -obs-addr/-flame also arms the GC-pause attribution sampler, which
// charges real runtime GC pauses to the active job at each stage
// boundary (the gcAttr column and the gc_pause_ns{job,mode} histogram
// family).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/stream"
)

func main() {
	bench.Exit("gerenukrun", run(os.Args[1:], os.Stdout), 1)
}

// run parses args, runs the job or stream they name in both modes and
// writes the report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gerenukrun", flag.ContinueOnError)
	def := bench.Config{Scale: 2, Partitions: 4, Iters: 3, HeapName: "10GB"}
	def.Workers = 4
	shared := bench.BindFlags(fs, "gerenukrun", "workers", def,
		bench.HeapFlag|bench.TuningFlags|bench.CheckpointDirFlag|bench.ObsFlags)
	app := fs.String("app", "PR", "application name")
	recoveryFaults := fs.Int64("recovery-faults", 0, "inject recovery chaos (replica loss, kills, checkpoint corruption) with this seed (0 = off)")
	streamMode := fs.Bool("stream", false, "run the micro-batch streaming pipeline instead of a one-shot job (-app wordcount|streamrank)")
	streamResume := fs.Bool("stream-resume", false, "resume the stream from checkpointed window state (needs -checkpoint-dir)")
	if err := bench.ParseArgs(fs, args); err != nil {
		return err
	}
	// Without a directory the resume would read a fresh in-memory store
	// and silently restart from record zero.
	if *streamResume && (!*streamMode || fs.Lookup("checkpoint-dir").Value.String() == "") {
		return errors.New("-stream-resume needs -stream and -checkpoint-dir")
	}

	sess, err := shared.Open(stdout)
	if err != nil {
		return err
	}
	cfg := sess.Config
	rows := map[string]metrics.Breakdown{}
	// Close on every return: a failed run still ends its trace and server.
	defer func() {
		if cerr := sess.Close(map[string]any{"app": *app, "scale": cfg.Scale, "modes": rows}); err == nil {
			err = cerr
		}
	}()
	var streamStatus atomic.Value
	streamStatus.Store(map[string]any{"state": "idle"})
	sess.Server.AddStatus("run", func() any {
		return map[string]any{"app": *app, "scale": cfg.Scale}
	})
	if *streamMode {
		sess.Server.AddStatus("stream", func() any { return streamStatus.Load() })
	}
	if err := sess.Listen(); err != nil {
		return err
	}
	if *recoveryFaults != 0 {
		cfg.Injector = faults.RecoveryChaos(*recoveryFaults)
		if cfg.Shuffle.Replicas == 0 {
			cfg.Shuffle.Replicas = 2
		}
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = 1
		}
	}

	if *streamMode {
		appName := *app
		if _, err := stream.App(appName); err != nil {
			appName = "wordcount"
			fmt.Fprintf(stdout, "gerenukrun: -app %s is not a streaming app; running %s (streaming apps: %v)\n",
				*app, appName, stream.AppNames)
		}
		t := &metrics.Table{
			Title: fmt.Sprintf("%s streamed at scale %d", appName, cfg.Scale),
			Header: []string{"mode", "records", "batches", "windows", "rec/s",
				"batch p50", "batch p99", "resumed", "total", "gc", "peak mem"},
		}
		var order []*stream.Result
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			sc, err := bench.StreamRunConfig(cfg, appName, mode)
			if err != nil {
				return err
			}
			sc.Resume = *streamResume
			// Scope checkpoint keys per mode so both runs can share one
			// -checkpoint-dir store without clobbering each other.
			sc.JobID = appName + "-" + mode.String()
			res, err := stream.Run(sc)
			if err != nil {
				return err
			}
			rows[mode.String()] = res.Stats
			order = append(order, res)
			streamStatus.Store(map[string]any{
				"state": "ran", "app": appName, "mode": mode.String(),
				"records": res.Records, "batches": res.Batches,
				"windows": len(res.Windows), "records_per_sec": res.RecordsPerSec,
			})
			t.AddRow(mode.String(), fmt.Sprint(res.Records), fmt.Sprint(res.Batches),
				fmt.Sprint(len(res.Windows)), fmt.Sprintf("%.0f", res.RecordsPerSec),
				res.BatchP50.String(), res.BatchP99.String(),
				fmt.Sprint(res.Resumed),
				metrics.D(res.Stats.Total), metrics.D(res.Stats.GC),
				metrics.FmtBytes(res.Stats.PeakBytes()))
		}
		fmt.Fprintln(stdout, t.Render())
		same := len(order[0].Windows) == len(order[1].Windows)
		for i := 0; same && i < len(order[0].Windows); i++ {
			same = bytes.Equal(order[0].Windows[i], order[1].Windows[i])
		}
		if !same {
			return errors.New("window outputs diverged between modes — the streaming transformation is unsound")
		}
		if order[0].RecordsPerSec > 0 && order[1].RecordsPerSec > 0 {
			fmt.Fprintf(stdout, "windows byte-equal across modes; throughput: %.2fx   memory: %.2fx\n",
				metrics.Ratio(order[1].RecordsPerSec, order[0].RecordsPerSec),
				metrics.Ratio(float64(order[1].Stats.PeakBytes()), float64(order[0].Stats.PeakBytes())))
		} else {
			fmt.Fprintln(stdout, "windows byte-equal across modes (re-emitted from checkpoints; nothing left to stream)")
		}
	} else {
		t := &metrics.Table{
			Title: fmt.Sprintf("%s at scale %d", *app, cfg.Scale),
			Header: []string{"mode", "total", "compute", "gc", "gcAttr", "ser", "deser",
				"shufW", "shufR", "spills", "native", "onheap", "peak mem",
				"aborts", "attempts", "retries", "panics", "skips", "hedges"},
		}
		var order []metrics.Breakdown
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			res, err := bench.RunApp(*app, cfg, mode)
			if err != nil {
				return err
			}
			stats := res.Stats
			rows[mode.String()] = stats
			order = append(order, stats)
			t.AddRow(mode.String(), metrics.D(stats.Total), metrics.D(stats.Compute()),
				metrics.D(stats.GC), metrics.D(stats.GCAttributed),
				metrics.D(stats.Ser), metrics.D(stats.Deser),
				metrics.D(stats.ShuffleWrite), metrics.D(stats.ShuffleRead),
				fmt.Sprint(stats.Spills),
				metrics.D(stats.NativeTime), metrics.D(stats.HeapTime),
				metrics.FmtBytes(stats.PeakBytes()), fmt.Sprint(stats.Aborts),
				fmt.Sprint(stats.Attempts), fmt.Sprint(stats.Retries),
				fmt.Sprint(stats.PanicsContained), fmt.Sprint(stats.NativeSkips),
				fmt.Sprintf("%d/%d", stats.Hedges, stats.HedgeWins))
		}
		fmt.Fprintln(stdout, t.Render())
		fmt.Fprintf(stdout, "speedup: %.2fx   memory: %.2fx\n",
			metrics.Ratio(float64(order[0].Total), float64(order[1].Total)),
			metrics.Ratio(float64(order[1].PeakBytes()), float64(order[0].PeakBytes())))
	}
	return nil
}
