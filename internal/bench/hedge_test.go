package bench

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestHedgedOutputMatchesUnhedged is the end-to-end differential
// guarantee behind enabling hedging anywhere: for every bench
// application, Spark and Hadoop alike, a Gerenuk run with an
// aggressive always-fire hedge delay produces byte-identical output to
// the unhedged run. Run under -race this also proves the racing
// attempts share nothing mutable.
func TestHedgedOutputMatchesUnhedged(t *testing.T) {
	apps := allApps()
	for _, app := range apps {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			cfg := Quick()
			want, err := RunApp(app, cfg, engine.Gerenuk)
			if err != nil {
				t.Fatalf("unhedged run: %v", err)
			}
			// 1ns delay: the hedge fires on effectively every task, so the
			// heap attempt races the native one end to end.
			cfg.HedgeAfter = time.Nanosecond
			got, err := RunApp(app, cfg, engine.Gerenuk)
			if err != nil {
				t.Fatalf("hedged run: %v", err)
			}
			if !bytes.Equal(got.Out, want.Out) {
				t.Fatalf("hedged output differs from unhedged (%d vs %d bytes)", len(got.Out), len(want.Out))
			}
		})
	}
}

// TestHedgedOutputMatchesBaselineMode closes the loop across execution
// modes for one representative app per framework: hedged Gerenuk output
// equals the Baseline (pure heap) mode output too.
func TestHedgedOutputMatchesBaselineMode(t *testing.T) {
	for _, app := range []string{"PR", "IUF"} {
		cfg := Quick()
		want, err := RunApp(app, cfg, engine.Baseline)
		if err != nil {
			t.Fatalf("%s baseline: %v", app, err)
		}
		cfg.HedgeAfter = time.Nanosecond
		got, err := RunApp(app, cfg, engine.Gerenuk)
		if err != nil {
			t.Fatalf("%s hedged gerenuk: %v", app, err)
		}
		if !bytes.Equal(got.Out, want.Out) {
			t.Fatalf("%s: hedged gerenuk output differs from baseline mode", app)
		}
	}
}
