package bench

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/spark"
	"repro/internal/workload"
)

// Chaos runs WordCount under deterministic fault injection and asserts
// the paper's recovery contract end to end: with panics forced inside
// speculative attempts, native-memory violations, transient task
// failures, simulated OOMs and slow tasks all firing, the Gerenuk run
// must still produce exactly the fault-free baseline's output. A second
// pass flips a bit in a task's input buffer mid-speculation and asserts
// the mutate-input canary detects the violated immutability contract
// instead of recovering silently wrong. A third pass stalls every
// native attempt (a cluster of stragglers) and asserts that hedging
// both preserves byte-equal output and beats the unhedged wall time.
func Chaos(cfg Config, seed int64) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Chaos", fmt.Sprintf("WordCount under fault injection (seed %d)", seed),
		"run", "tasks", "aborts", "panics", "retries", "skips", "outcome")
	docs := workload.GenDocs(30*cfg.Scale, 30, 3)
	wc := suiteApp("WC")

	run := func(mode engine.Mode, inj *faults.Injector, breaker *engine.Breaker, hedgeAfter time.Duration) (map[string]int64, *spark.Context, error) {
		comp := engine.Compile(wc.Program())
		ctx := spark.NewContext(comp, mode)
		// Only these knobs of cfg reach the chaos passes: each pass sets
		// its own injector, breaker and hedge policy.
		ctx.Env = job.Env{Identity: job.Identity{Breaker: breaker},
			Mode: mode, Workers: cfg.Workers, Backend: cfg.Backend, Trace: cfg.Trace,
			Injector: inj, HedgeAfter: hedgeAfter}
		ctx.Partitions = cfg.Partitions
		parts, err := workload.Encode(comp.Codec, sparkapps.ClsDoc, docs, cfg.Partitions)
		if err != nil {
			return nil, ctx, err
		}
		counts, err := sparkapps.WordCount{}.Run(ctx, ctx.Parallelize(sparkapps.ClsDoc, parts))
		if err != nil {
			return nil, ctx, err
		}
		m, err := sparkapps.DecodeCounts(comp.Codec, counts)
		return m, ctx, err
	}

	addRow := func(name string, ctx *spark.Context, outcome string) {
		s := ctx.Stats
		r.Table.AddRow(name, fmt.Sprint(ctx.Tasks), fmt.Sprint(s.Aborts),
			fmt.Sprint(s.PanicsContained), fmt.Sprint(s.Retries),
			fmt.Sprint(s.NativeSkips), outcome)
	}

	want, baseCtx, err := run(engine.Baseline, nil, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free baseline: %w", err)
	}
	addRow("baseline (no faults)", baseCtx, "ok")

	got, chaosCtx, err := run(engine.Gerenuk, faults.Chaos(seed), engine.NewBreaker(4), 0)
	if err != nil {
		return nil, fmt.Errorf("chaos: gerenuk under injection: %w", err)
	}
	equal := maps.Equal(want, got)
	outcome := "output == baseline"
	if !equal {
		outcome = "OUTPUT DIVERGED"
	}
	addRow("gerenuk (chaos)", chaosCtx, outcome)
	r.Checks["equal"] = b2f(equal)
	r.Checks["aborts"] = float64(chaosCtx.Stats.Aborts)
	r.Checks["panics_contained"] = float64(chaosCtx.Stats.PanicsContained)
	r.Checks["retries"] = float64(chaosCtx.Stats.Retries)

	// Bit-flip pass: every task's input gets one bit flipped during
	// speculation; the canary must fail those tasks loudly.
	_, flipCtx, err := run(engine.Gerenuk, &faults.Injector{Seed: seed, FlipRate: 1}, nil, 0)
	detected := err != nil && errors.Is(err, engine.ErrInputMutated)
	outcome = "canary detected"
	if !detected {
		outcome = "CANARY MISSED"
	}
	addRow("gerenuk (bit flips)", flipCtx, outcome)
	r.Checks["flip_detected"] = b2f(detected)

	// Straggler pass: every native attempt stalls, modeling a cluster of
	// slow speculations. Unhedged, each task serializes behind its stall;
	// hedged, the heap path overtakes after the hedge delay. The contract
	// is twofold: the hedged output is still byte-equal to the baseline,
	// and the hedged job's wall time beats the unhedged one.
	straggle := &faults.Injector{Seed: seed, NativeDelayRate: 1, NativeDelay: 20 * time.Millisecond}
	slowGot, slowCtx, err := run(engine.Gerenuk, straggle, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("chaos: gerenuk under stragglers: %w", err)
	}
	addRow("gerenuk (stragglers)", slowCtx, "ok")
	hedgedGot, hedgedCtx, err := run(engine.Gerenuk, straggle, nil, time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("chaos: gerenuk hedged under stragglers: %w", err)
	}
	hedgeEqual := maps.Equal(want, hedgedGot) && maps.Equal(want, slowGot)
	hedgeFaster := hedgedCtx.Wall < slowCtx.Wall
	// The table must stay byte-identical across same-seed runs; measured
	// wall times go in the (explicitly non-deterministic) note instead.
	outcome = "ok, hedged faster"
	if !hedgeEqual {
		outcome = "OUTPUT DIVERGED"
	} else if !hedgeFaster {
		outcome = fmt.Sprintf("NOT FASTER: wall %v vs %v",
			hedgedCtx.Wall.Round(time.Millisecond), slowCtx.Wall.Round(time.Millisecond))
	}
	addRow("gerenuk (stragglers, hedged)", hedgedCtx, outcome)
	r.Checks["hedge_equal"] = b2f(hedgeEqual)
	r.Checks["hedge_faster"] = b2f(hedgeFaster)
	r.Checks["hedges"] = float64(hedgedCtx.Stats.Hedges)
	r.Checks["hedge_wins"] = float64(hedgedCtx.Stats.HedgeWins)

	if !equal {
		return r, fmt.Errorf("chaos: gerenuk output diverged from baseline under injection")
	}
	if !detected {
		return r, fmt.Errorf("chaos: input bit flip was not detected by the canary")
	}
	if !hedgeEqual {
		return r, fmt.Errorf("chaos: hedged output diverged from baseline under stragglers")
	}
	if !hedgeFaster {
		return r, fmt.Errorf("chaos: hedging did not beat the unhedged straggler wall time (%v >= %v)",
			hedgedCtx.Wall, slowCtx.Wall)
	}
	r.Notes = append(r.Notes,
		"every injected fault recovered to byte-equal output; input corruption detected, not masked",
		fmt.Sprintf("hedging cut the straggler wall time from %v to %v (%d hedges, %d wins)",
			slowCtx.Wall.Round(time.Millisecond), hedgedCtx.Wall.Round(time.Millisecond),
			hedgedCtx.Stats.Hedges, hedgedCtx.Stats.HedgeWins))
	return r, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
