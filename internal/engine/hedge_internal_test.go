package engine

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// TestHedgeDelayResolution pins the trigger-selection ladder of
// hedgeDelay: disabled config arms nothing; an absolute After applies
// until the latency histogram has hedgeMinSamples observations; from then on
// the median-derived delay takes over.
func TestHedgeDelayResolution(t *testing.T) {
	e := &Executor{}
	if _, ok := e.hedgeDelay(); ok {
		t.Fatalf("zero HedgeConfig armed a hedge")
	}

	e.Hedge = HedgeConfig{After: 5 * time.Millisecond}
	if d, ok := e.hedgeDelay(); !ok || d != 5*time.Millisecond {
		t.Fatalf("absolute delay = %v, %v; want 5ms, true", d, ok)
	}

	// Median trigger without a tracer: no samples, fall back to After.
	e.Hedge = HedgeConfig{After: 5 * time.Millisecond, MedianMult: 3}
	if d, ok := e.hedgeDelay(); !ok || d != 5*time.Millisecond {
		t.Fatalf("median trigger without samples = %v, %v; want After fallback", d, ok)
	}

	// Median trigger without After and without samples: nothing to arm.
	e.Hedge = HedgeConfig{MedianMult: 3}
	if _, ok := e.hedgeDelay(); ok {
		t.Fatalf("median trigger armed with no latency samples and no After")
	}

	// Feed the latency histogram up to hedgeMinSamples; the delay becomes
	// MedianMult x median. All samples are equal, so the clamped
	// bucket-quantile is exact.
	e.Trace = trace.New()
	hist := e.Trace.Registry().Histogram("task_latency_ns", trace.LatencyBuckets()...)
	for i := 0; i < hedgeMinSamples; i++ {
		hist.Observe(float64(2 * time.Millisecond))
	}
	e.Hedge = HedgeConfig{After: 5 * time.Millisecond, MedianMult: 3}
	if d, ok := e.hedgeDelay(); !ok || d != 6*time.Millisecond {
		t.Fatalf("adaptive delay = %v, %v; want 3x2ms = 6ms, true", d, ok)
	}
}

// TestCancelerSemantics pins the cooperative-cancellation primitive:
// idempotent cancel, nil-safe flag access, and sleep returning early
// (reporting canceled) when the flag trips mid-stall.
func TestCancelerSemantics(t *testing.T) {
	var nilC *canceler
	if nilC.cancelFlag() != nil {
		t.Fatalf("nil canceler must expose a nil flag")
	}

	c := newCanceler()
	if c.cancelFlag().Load() {
		t.Fatalf("fresh canceler already canceled")
	}
	c.cancel()
	c.cancel() // idempotent: a second cancel must not close twice
	if !c.cancelFlag().Load() {
		t.Fatalf("cancel did not set the flag")
	}
	if !c.sleep(time.Hour) {
		t.Fatalf("sleep on a canceled canceler must return immediately as canceled")
	}

	c2 := newCanceler()
	done := make(chan bool, 1)
	go func() { done <- c2.sleep(time.Hour) }()
	c2.cancel()
	select {
	case canceled := <-done:
		if !canceled {
			t.Fatalf("sleep returned uncanceled after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("canceled sleep did not wake up")
	}

	if c2.sleep(time.Microsecond) != true {
		t.Fatalf("sleep after cancel must report canceled")
	}
}
