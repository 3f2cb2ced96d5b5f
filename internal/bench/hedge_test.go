package bench

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// hedged is a Gerenuk run whose hedge fires on effectively every task
// (1ns delay), so the heap attempt races the native one end to end; its
// output must equal ref's.
func hedged(ref string) Variant {
	return Variant{Name: "hedged", Only: mode(engine.Gerenuk), Ref: ref,
		Mutate: func(c *Config) { c.HedgeAfter = time.Nanosecond }}
}

// hedgeVariants judges a hedged Gerenuk run against the unhedged one;
// hedgeVsHeap against the Baseline (pure heap) mode.
var (
	hedgeVariants = []Variant{{Name: "unhedged", Only: mode(engine.Gerenuk)}, hedged("unhedged")}
	hedgeVsHeap   = []Variant{{Name: "heap", Only: mode(engine.Baseline)}, hedged("heap")}
)

// TestHedgedOutputMatchesUnhedged is the end-to-end differential
// guarantee behind enabling hedging anywhere: for every bench
// application, Spark and Hadoop alike, a hedged Gerenuk run produces
// byte-identical output to the unhedged run. Run under -race this also
// proves the racing attempts share nothing mutable.
func TestHedgedOutputMatchesUnhedged(t *testing.T) {
	for _, app := range allApps() {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			if _, err := (Matrix{Apps: []string{app}, Variants: hedgeVariants}).Run(Quick()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHedgedOutputMatchesBaselineMode closes the loop across execution
// modes for one representative app per framework: hedged Gerenuk output
// equals the Baseline (pure heap) mode output too.
func TestHedgedOutputMatchesBaselineMode(t *testing.T) {
	if _, err := (Matrix{Apps: []string{"PR", "IUF"}, Variants: hedgeVsHeap}).Run(Quick()); err != nil {
		t.Fatal(err)
	}
}
