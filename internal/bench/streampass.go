package bench

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/recovery"
	"repro/internal/stream"
)

// StreamRunConfig maps the bench configuration onto one streaming run
// of the named app: the run environment flows through; the simulated
// clock and window policy scale with cfg.Scale (more windows, same
// cadence).
func StreamRunConfig(cfg Config, app string, mode engine.Mode) (stream.Config, error) {
	cfg = cfg.withDefaults()
	spec, err := stream.App(app)
	if err != nil {
		return stream.Config{}, err
	}
	return stream.Config{
		App:      spec,
		Reducers: cfg.Partitions,
		HeapCfg:  appHeap(cfg),

		Seed:     7,
		Interval: time.Millisecond,
		CutBy:    stream.Cut{Count: 5},
		WindowBy: stream.Window{Size: 8 * time.Millisecond},
		Windows:  2 + cfg.Scale,
	}.WithEnv(cfg.env(app, mode)), nil
}

// batchReference turns a streaming config into its one-giant-batch
// reference run: same records, same windows, a single micro-batch.
func batchReference(sc stream.Config) stream.Config {
	sc.CutBy = stream.Cut{Count: 1 << 30}
	sc.Trace = nil
	sc.Injector = nil
	sc.Checkpoints = recovery.NewCheckpointStore()
	sc.Lineage = recovery.NewLineage()
	sc.Resume = false
	sc.CrashAfterBatches = 0
	return sc
}

func windowsEqual(a, b *stream.Result) bool {
	if len(a.Windows) != len(b.Windows) {
		return false
	}
	for i := range a.Windows {
		if !bytes.Equal(a.Windows[i], b.Windows[i]) {
			return false
		}
	}
	return true
}

// StreamCheck proves the streaming subsystem's end-to-end contract for
// every streaming app in both executor modes: micro-batched window
// outputs are byte-identical to a one-shot batch run over the same
// records (and across modes) — clean, under the recovery chaos plan,
// and across a kill-mid-window crash resumed from checkpoints.
func StreamCheck(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("StreamCheck", "micro-batched windows vs one-shot batch, chaos + kill/resume",
		"app", "mode", "batches", "windows", "resumes", "outcome")

	allEqual := true
	var batches, resumes int64
	for _, app := range stream.AppNames {
		perMode := map[engine.Mode]*stream.Result{}
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			sc, err := StreamRunConfig(cfg, app, mode)
			if err != nil {
				return nil, fmt.Errorf("stream-check %s/%v: %w", app, mode, err)
			}
			ref, err := stream.Run(batchReference(sc))
			if err != nil {
				return nil, fmt.Errorf("stream-check %s/%v: batch reference: %w", app, mode, err)
			}

			outcome := "ok"

			// Clean streamed run.
			streamed, err := stream.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("stream-check %s/%v: streamed: %w", app, mode, err)
			}
			if !windowsEqual(streamed, ref) {
				allEqual = false
				outcome = "DIVERGED (streamed)"
			}
			if streamed.Batches <= ref.Batches {
				return nil, fmt.Errorf("stream-check %s/%v: streamed run cut %d batches — no micro-batching",
					app, mode, streamed.Batches)
			}

			// Chaos streamed run: kills, replica loss, checkpoint rot,
			// flaky fetches — output must not move.
			chaos := sc
			chaos.Injector = faults.RecoveryChaos(11)
			chaos.CheckpointEvery = 2
			chaos.StageDeadline = 5 * time.Second
			chaos.Shuffle.Replicas = 2
			chaosRes, err := stream.Run(chaos)
			if err != nil {
				return nil, fmt.Errorf("stream-check %s/%v: chaos: %w", app, mode, err)
			}
			if !windowsEqual(chaosRes, ref) {
				allEqual = false
				outcome = "DIVERGED (chaos)"
			}

			// Kill mid-window, then resume from the checkpoint store.
			store := recovery.NewCheckpointStore()
			crash := sc
			crash.Checkpoints = store
			crash.CrashAfterBatches = 2
			if _, err := stream.Run(crash); !errors.Is(err, stream.ErrCrashed) {
				return nil, fmt.Errorf("stream-check %s/%v: crash hook: %v", app, mode, err)
			}
			resume := sc
			resume.Checkpoints = store
			resume.Resume = true
			resumed, err := stream.Run(resume)
			if err != nil {
				return nil, fmt.Errorf("stream-check %s/%v: resume: %w", app, mode, err)
			}
			if !windowsEqual(resumed, ref) {
				allEqual = false
				outcome = "DIVERGED (resume)"
			}
			appBatches := streamed.Batches + chaosRes.Batches
			batches += appBatches
			resumes += resumed.Resumed
			perMode[mode] = streamed
			r.Table.AddRow(app, mode.String(), fmt.Sprint(appBatches), fmt.Sprint(len(streamed.Windows)),
				fmt.Sprint(resumed.Resumed), outcome)
		}
		if !windowsEqual(perMode[engine.Baseline], perMode[engine.Gerenuk]) {
			allEqual = false
			r.Table.AddRow(app, "both", "-", "-", "-", "DIVERGED (cross-mode)")
		}
	}
	r.Checks["equal"] = b2f(allEqual)
	r.Checks["batches"] = float64(batches)
	r.Checks["window_resumes"] = float64(resumes)
	if !allEqual {
		return r, fmt.Errorf("stream-check: window outputs diverged from the batch reference")
	}
	if batches == 0 {
		return r, fmt.Errorf("stream-check: no micro-batches processed")
	}
	if resumes == 0 {
		return r, fmt.Errorf("stream-check: no killed window ever resumed from its checkpoint")
	}
	r.Notes = append(r.Notes,
		"streamed, chaos, and crash-resumed window outputs all byte-equal the one-shot batch run",
		"both modes agree window-for-window (the S/D-elimination contract holds under streaming)",
		fmt.Sprintf("%d micro-batches, %d window resumes", batches, resumes))
	return r, nil
}

// StreamBench runs every streaming app in both modes and reports
// sustained throughput and batch latency quantiles.
func StreamBench(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("StreamBench", "sustained micro-batch streaming throughput",
		"app", "mode", "records", "batches", "windows", "rec/s", "batch p50", "batch p99")
	for _, app := range stream.AppNames {
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			sc, err := StreamRunConfig(cfg, app, mode)
			if err != nil {
				return nil, err
			}
			res, err := stream.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("stream-bench %s/%v: %w", app, mode, err)
			}
			r.Table.AddRow(app, mode.String(), fmt.Sprint(res.Records), fmt.Sprint(res.Batches),
				fmt.Sprint(len(res.Windows)), fmt.Sprintf("%.0f", res.RecordsPerSec),
				res.BatchP50.String(), res.BatchP99.String())
			r.Checks[fmt.Sprintf("%s_%s_records_per_sec", app, mode)] = res.RecordsPerSec
		}
	}
	return r, nil
}
