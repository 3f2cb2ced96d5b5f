// Command gerenukbench regenerates the paper's evaluation tables and
// figures (section 4) at a configurable scale.
//
// Usage:
//
//	gerenukbench [-scale N] [-workers N] [-partitions N] [-iters N] [-only fig6a,fig9,...] [-faults seed]
//	             [-engine compiled|interp]
//	             [-hedge-after 5ms]
//	             [-shuffle-budget N] [-shuffle-compress none|lz4]
//	             [-obs-addr 127.0.0.1:9477] [-obs-hold 30s]
//	             [-flame out.folded]
//
// -only selects what runs, by id, in the order listed below. Experiment
// ids: fig4 fig5 table1 table2 fig6a fig6b fig7a fig7b table3 fig8a fig8b
// fig9 fig10a fig10b static. Without -only every experiment runs. An
// unknown id is an error (exit 2) before anything runs.
//
// Verification pass ids run only when named:
//
//   - shuffle-check: every app in both modes through spilling and
//     compressed exchanges, asserting byte-equal output against the
//     in-memory configuration and the serde ledger (baseline decodes every
//     fetched record, gerenuk none).
//   - recovery-check: every app in both modes under injected replica
//     loss, reduce-task kills, and checkpoint corruption, asserting
//     byte-equal output against the fault-free run and that losses were
//     repaired by replica failover, lineage re-execution, and checkpoint
//     resume. The -replicas, -checkpoint-every, and -stage-deadline knobs
//     arm the same machinery in the regular experiments.
//   - stream-check: both streaming apps in both modes through the
//     micro-batch engine, asserting every window's output byte-equal to a
//     one-shot batch run over the same records — clean, under recovery
//     chaos, and across a kill-mid-window crash resumed from checkpoints —
//     and that the two modes agree window-for-window.
//   - stream: the streaming throughput pass, both apps in both modes,
//     reporting records/sec and batch-latency p50/p99.
//
// A failing pass prints its table and exits 1.
//
// -faults runs the chaos mode instead of any id: WordCount under
// deterministic fault injection (seeded by the flag value), asserting that
// Gerenuk's output stays byte-equal to the fault-free baseline, that input
// corruption is detected rather than masked, and that hedging recovers
// injected straggler stalls (lower wall time, identical output).
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
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/bench"
)

// experiment is one -only id: a figure or table of the paper, or a
// verification pass, which runs only when named.
type experiment struct {
	id   string
	pass bool
	run  func() (*bench.Result, error)
}

// experiments lists every id in run order. The runs read *cfg when they
// run, not when they are listed; the Spark and Hadoop suites behind
// Figures 6/7 and Table 3 run at most once, on first use.
func experiments(cfg *bench.Config) []experiment {
	suite := func(name string, measure func(bench.Config) (*bench.Suite, error)) func() (*bench.Suite, error) {
		return sync.OnceValues(func() (*bench.Suite, error) {
			s, err := measure(*cfg)
			if err != nil {
				return nil, fmt.Errorf("%s suite: %w", name, err)
			}
			return s, nil
		})
	}
	sparkSuite, hadoopSuite := suite("spark", bench.RunSparkSuite), suite("hadoop", bench.RunHadoopSuite)
	figure := func(s func() (*bench.Suite, error), render func(*bench.Suite) *bench.Result) func() (*bench.Result, error) {
		return func() (*bench.Result, error) {
			suite, err := s()
			if err != nil {
				return nil, err
			}
			return render(suite), nil
		}
	}
	withCfg := func(run func(bench.Config) (*bench.Result, error)) func() (*bench.Result, error) {
		return func() (*bench.Result, error) { return run(*cfg) }
	}
	return []experiment{
		{id: "fig4", run: bench.Figure4},
		{id: "fig5", run: withCfg(bench.Figure5)},
		{id: "table1", run: func() (*bench.Result, error) { return bench.Table1(*cfg), nil }},
		{id: "table2", run: func() (*bench.Result, error) { return bench.Table2(*cfg), nil }},
		{id: "fig6a", run: figure(sparkSuite, bench.Figure6a)},
		{id: "fig6b", run: figure(hadoopSuite, bench.Figure6b)},
		{id: "fig7a", run: figure(sparkSuite, bench.Figure7a)},
		{id: "fig7b", run: figure(hadoopSuite, bench.Figure7b)},
		{id: "table3", run: func() (*bench.Result, error) {
			sp, err := sparkSuite()
			if err != nil {
				return nil, err
			}
			hd, err := hadoopSuite()
			if err != nil {
				return nil, err
			}
			return bench.Table3(sp, hd), nil
		}},
		{id: "fig8a", run: withCfg(bench.Figure8a)},
		{id: "fig8b", run: withCfg(bench.Figure8b)},
		{id: "fig9", run: withCfg(bench.Figure9)},
		{id: "fig10a", run: withCfg(bench.Figure10a)},
		{id: "fig10b", run: withCfg(bench.Figure10b)},
		{id: "static", run: bench.StaticStats},
		{id: "shuffle-check", pass: true, run: withCfg(bench.ShuffleCheck)},
		{id: "recovery-check", pass: true, run: withCfg(bench.RecoveryCheck)},
		{id: "stream-check", pass: true, run: withCfg(bench.StreamCheck)},
		{id: "stream", pass: true, run: withCfg(bench.StreamBench)},
	}
}

func main() {
	bench.Exit("gerenukbench", run(os.Args[1:], os.Stdout), 1)
}

// run parses args and runs the chaos mode or the selected experiments,
// printing each table; the first failure ends the run. The session is
// closed on every return, so a failed run still leaves whole artifacts.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gerenukbench", flag.ContinueOnError)
	def := bench.Config{Scale: 2, Partitions: 4, Iters: 3}
	def.Workers = 4
	shared := bench.BindFlags(fs, "gerenukbench", "workers", def, bench.TuningFlags|bench.ObsFlags)
	var cfg bench.Config
	exps := experiments(&cfg)
	selected, _ := parseOnly("", exps)
	fs.Func("only", "comma-separated experiment and pass ids (default: every experiment, no pass)", func(v string) (err error) {
		selected, err = parseOnly(v, exps)
		return err
	})
	faultSeed := fs.Int64("faults", 0, "run chaos mode with this fault-injection seed (0 = off)")
	if err := bench.ParseArgs(fs, args); err != nil {
		return err
	}

	sess, err := shared.Open(stdout)
	if err != nil {
		return err
	}
	cfg = sess.Config
	extra := map[string]any{"scale": cfg.Scale, "workers": cfg.Workers}
	defer func() {
		if cerr := sess.Close(extra); err == nil {
			err = cerr
		}
	}()
	sess.Server.AddStatus("bench", func() any { return extra })
	if err := sess.Listen(); err != nil {
		return err
	}

	if *faultSeed != 0 {
		selected = []experiment{{run: func() (*bench.Result, error) { return bench.Chaos(cfg, *faultSeed) }}}
	}
	for _, e := range selected {
		r, err := e.run()
		if r != nil {
			fmt.Fprintln(stdout, r.Render())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parseOnly returns, in run order, the experiments the -only list names,
// or every experiment and no pass when it names none; an id no
// experiment has is an error that lists the valid ones.
func parseOnly(only string, exps []experiment) ([]experiment, error) {
	valid := map[string]bool{}
	var ids []string
	for _, e := range exps {
		valid[e.id] = true
		ids = append(ids, e.id)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !valid[id] {
			return nil, fmt.Errorf("unknown -only id %q; valid ids: %s", id, strings.Join(ids, " "))
		}
		want[id] = true
	}
	var run []experiment
	for _, e := range exps {
		if want[e.id] || (len(want) == 0 && !e.pass) {
			run = append(run, e)
		}
	}
	return run, nil
}
