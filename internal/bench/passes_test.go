package bench

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// mustPass fails t when a pass failed, with its table when it has one.
func mustPass(t *testing.T, r *Result, err error) {
	t.Helper()
	switch {
	case err != nil && r != nil:
		t.Fatalf("%v\n%s", err, r.Render())
	case err != nil:
		t.Fatal(err)
	}
}

// TestShuffleCheckQuick runs the full shuffle verification pass at test
// scale: every app, both modes, every storage variant byte-equal to the
// in-memory exchange, with the serde ledger intact.
func TestShuffleCheckQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("shuffle check runs the whole app matrix")
	}
	cfg := Quick()
	cfg.Shuffle.SpillDir = t.TempDir()
	r, err := ShuffleCheck(cfg)
	mustPass(t, r, err)
	shufflePin.check(t, r)
}

// TestRecoveryCheckQuick runs the recovery pass on either native
// backend: for every app in both modes, output under injected replica
// loss, reduce-task kills, and checkpoint corruption is byte-identical
// to the fault-free run, and the recovery counters prove the loss was
// repaired by the durability layer.
func TestRecoveryCheckQuick(t *testing.T) {
	for _, backend := range []engine.Backend{engine.BackendCompiled, engine.BackendInterp} {
		t.Run(backend.String(), func(t *testing.T) {
			cfg := Quick()
			cfg.Backend = backend
			res, err := RecoveryCheck(cfg)
			mustPass(t, res, err)
			recoveryPin.check(t, res)
		})
	}
}

// TestStreamCheckQuick runs the streaming verification pass at test
// scale: both streaming apps, both modes, streamed/chaos/crash-resumed
// window outputs byte-equal to the one-shot batch reference.
func TestStreamCheckQuick(t *testing.T) {
	res, err := StreamCheck(Quick())
	mustPass(t, res, err)
	streamPin.check(t, res)
}

// TestStreamReportQuick checks the throughput report (gerenukbench
// -stream) carries records, batches, windows, throughput and latency
// quantiles for every (app, mode).
func TestStreamReportQuick(t *testing.T) {
	res, err := StreamBench(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("report has %d rows, want 4", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		app, mode := row[0], row[1]
		for i, col := range []string{"records", "batches", "windows"} {
			if row[2+i] == "0" {
				t.Errorf("%s/%s: %s = 0", app, mode, col)
			}
		}
		if recs, err := strconv.ParseFloat(row[5], 64); err != nil || recs <= 0 {
			t.Errorf("%s/%s: throughput %q, want a positive rate", app, mode, row[5])
		}
		if p99, err := time.ParseDuration(row[7]); err != nil || p99 <= 0 {
			t.Errorf("%s/%s: batch p99 %q, want a positive duration", app, mode, row[7])
		}
	}
}

// onlySlower reports whether every failure joined in err is the
// hedged-versus-unhedged wall-clock comparison.
func onlySlower(err error) bool {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return false
	}
	for _, e := range joined.Unwrap() {
		if !errors.Is(e, errHedgeSlower) {
			return false
		}
	}
	return true
}

// TestChaosQuick is the fault-injection pass at test scale: WordCount
// under the chaos plan matches its fault-free baseline, the mutate-input
// canary catches a flipped input bit, and under stragglers hedging fires
// and keeps the output. Those checks hold in every measurement.
//
// The pass also claims hedging beats the unhedged wall time. That
// compares two wall clocks, so like the timed shapes it fails only when
// three measurements all miss it. Under the race detector it is not
// judged: instrumentation slows the heap path several times over, and
// on a loaded machine the hedge then costs more than the 20 ms stall it
// races.
func TestChaosQuick(t *testing.T) {
	const measurements = 3
	for i := 1; i <= measurements; i++ {
		res, err := Chaos(Quick(), 42)
		if res == nil {
			t.Fatal(err)
		}
		if err != nil && !onlySlower(err) {
			t.Fatalf("%v\n%s", err, res.Render())
		}
		if err == nil {
			chaosPin.check(t, res)
			return
		}
		if raceDetector {
			return
		}
		t.Logf("measurement %d of %d: %v", i, measurements, err)
	}
	t.Errorf("hedging lost to the unhedged stragglers in all %d measurements", measurements)
}

// TestChaosHonorsConfig runs Chaos under a 4 KiB shuffle budget: every
// run goes through the caller's exchange configuration, so the exchange
// spills, and leaves no spill file behind.
func TestChaosHonorsConfig(t *testing.T) {
	cfg := Quick()
	cfg.Trace = trace.New()
	cfg.Shuffle.MemoryBudget = 4096
	cfg.Shuffle.SpillDir = t.TempDir()
	res, err := Chaos(cfg, 42)
	if res == nil || err != nil && !onlySlower(err) {
		t.Fatal(err)
	}
	if spills := cfg.Trace.Registry().Counter("shuffle_spills_total").Value(); spills == 0 {
		t.Errorf("budgeted Chaos run recorded no spills\n%s", res.Render())
	}
}
