package bench

import "testing"

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
		for _, check := range []string{"equal", "flip_detected", "hedge_equal"} {
			if res.Checks[check] != 1 {
				t.Fatalf("%s = %v, want 1: %v\n%s", check, res.Checks[check], err, res.Render())
			}
		}
		if res.Checks["hedges"] == 0 {
			t.Fatalf("no attempt was hedged under stragglers\n%s", res.Render())
		}
		if res.Checks["hedge_faster"] == 1 || raceDetector {
			return
		}
		t.Logf("measurement %d of %d: %v", i, measurements, err)
	}
	t.Errorf("hedging lost to the unhedged stragglers in all %d measurements", measurements)
}
