// Command gerenukbench regenerates the paper's evaluation tables and
// figures (section 4) at a configurable scale.
//
// Usage:
//
//	gerenukbench [-scale N] [-workers N] [-partitions N] [-iters N] [-only fig6a,fig9,...] [-faults seed]
//	             [-engine compiled|interp]
//	             [-hedge-after 5ms] [-shuffle-check]
//	             [-shuffle-budget N] [-shuffle-compress none|lz4]
//	             [-obs-addr 127.0.0.1:9477] [-obs-hold 30s]
//	             [-flame out.folded]
//
// Experiment ids: fig4 fig5 table1 table2 fig6a fig6b fig7a fig7b table3
// fig8a fig8b fig9 fig10a fig10b static. Default runs everything.
//
// -faults runs the chaos mode instead: WordCount under deterministic
// fault injection (seeded by the flag value), asserting that Gerenuk's
// output stays byte-equal to the fault-free baseline, that input
// corruption is detected rather than masked, and that hedging recovers
// injected straggler stalls (lower wall time, identical output).
//
// -shuffle-check runs the shuffle verification pass instead: every app
// in both modes through spilling and compressed exchanges, asserting
// byte-equal output against the in-memory configuration and the serde
// ledger (baseline decodes every fetched record, gerenuk none).
//
// -recovery-check runs the durability verification pass instead: every
// app in both modes under injected replica loss, reduce-task kills, and
// checkpoint corruption, asserting byte-equal output against the
// fault-free run and that losses were repaired by replica failover,
// lineage re-execution, and checkpoint resume. The -replicas,
// -checkpoint-every, and -stage-deadline knobs arm the same machinery
// in the regular experiments.
//
// -stream-check runs the streaming verification pass instead: both
// streaming apps in both modes through the micro-batch engine,
// asserting every window's output byte-equal to a one-shot batch run
// over the same records — clean, under recovery chaos, and across a
// kill-mid-window crash resumed from checkpoints — and that the two
// modes agree window-for-window.
//
// -stream runs the streaming throughput pass: both apps in both modes,
// reporting records/sec and batch-latency p50/p99.
//
// -hedge-after arms straggler hedging in every experiment executor (see
// engine.Executor.HedgeAfter). The -shuffle-* knobs configure the
// exchange every experiment routes through; -trace streams its file
// incrementally so long runs never buffer the whole event log.
//
// The observability flags mirror gerenukrun: -obs-addr serves /metrics,
// /healthz, /statusz, /flamez and /debug/pprof/ for the duration of the
// suite (-obs-hold lingers for a scrape), -flame writes collapsed-stack
// flame graph text, and either arms the GC-pause attribution sampler.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
	os.Exit(1)
}

func main() {
	def := bench.Config{Scale: 2, Partitions: 4, Iters: 3}
	def.Workers = 4
	shared := bench.BindFlags(flag.CommandLine, "gerenukbench", "workers", def, bench.TuningFlags|bench.ObsFlags)
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	faultSeed := flag.Int64("faults", 0, "run chaos mode with this fault-injection seed (0 = off)")
	shuffleCheck := flag.Bool("shuffle-check", false, "run the shuffle verification pass (spill/compressed vs in-memory, all apps)")
	recoveryCheck := flag.Bool("recovery-check", false, "run the recovery verification pass (replica loss, reduce kills, checkpoint corruption vs fault-free, all apps)")
	streamCheck := flag.Bool("stream-check", false, "run the streaming verification pass (micro-batched windows vs one-shot batch, chaos + kill/resume)")
	streamRun := flag.Bool("stream", false, "run the streaming throughput pass")
	flag.Parse()

	sess, err := shared.Open()
	if err != nil {
		fatal(err)
	}
	cfg := sess.Config
	sess.Server.AddStatus("bench", func() any {
		return map[string]any{"scale": cfg.Scale, "workers": cfg.Workers}
	})
	if err := sess.Listen(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := sess.Close(map[string]any{"scale": cfg.Scale, "workers": cfg.Workers}); err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
		}
	}()

	if *faultSeed != 0 {
		r, err := bench.Chaos(cfg, *faultSeed)
		if r != nil {
			fmt.Println(r.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *shuffleCheck {
		r, err := bench.ShuffleCheck(cfg)
		if r != nil {
			fmt.Println(r.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *recoveryCheck {
		r, err := bench.RecoveryCheck(cfg)
		if r != nil {
			fmt.Println(r.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *streamCheck {
		r, err := bench.StreamCheck(cfg)
		if r != nil {
			fmt.Println(r.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *streamRun {
		r, err := bench.StreamBench(cfg)
		if r != nil {
			fmt.Println(r.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	show := func(r *bench.Result, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.Render())
	}

	if sel("fig4") {
		r, err := bench.Figure4()
		show(r, err)
	}
	if sel("fig5") {
		r, err := bench.Figure5(cfg)
		show(r, err)
	}
	if sel("table1") {
		show(bench.Table1(cfg), nil)
	}
	if sel("table2") {
		show(bench.Table2(cfg), nil)
	}

	var sparkSuite *bench.SparkSuite
	var hadoopSuite *bench.HadoopSuite
	needSpark := sel("fig6a") || sel("fig7a") || sel("table3")
	needHadoop := sel("fig6b") || sel("fig7b") || sel("table3")
	if needSpark {
		s, err := bench.RunSparkSuite(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: spark suite: %v\n", err)
			os.Exit(1)
		}
		sparkSuite = s
	}
	if needHadoop {
		s, err := bench.RunHadoopSuite(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gerenukbench: hadoop suite: %v\n", err)
			os.Exit(1)
		}
		hadoopSuite = s
	}
	if sel("fig6a") {
		show(bench.Figure6a(sparkSuite), nil)
	}
	if sel("fig6b") {
		show(bench.Figure6b(hadoopSuite), nil)
	}
	if sel("fig7a") {
		show(bench.Figure7a(sparkSuite), nil)
	}
	if sel("fig7b") {
		show(bench.Figure7b(hadoopSuite), nil)
	}
	if sel("table3") {
		show(bench.Table3(sparkSuite, hadoopSuite), nil)
	}
	if sel("fig8a") {
		r, err := bench.Figure8a(cfg)
		show(r, err)
	}
	if sel("fig8b") {
		r, err := bench.Figure8b(cfg)
		show(r, err)
	}
	if sel("fig9") {
		r, err := bench.Figure9(cfg)
		show(r, err)
	}
	if sel("fig10a") {
		r, err := bench.Figure10a(cfg)
		show(r, err)
	}
	if sel("fig10b") {
		r, err := bench.Figure10b(cfg)
		show(r, err)
	}
	if sel("static") {
		r, err := bench.StaticStats()
		show(r, err)
	}
}
