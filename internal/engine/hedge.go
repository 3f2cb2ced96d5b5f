// Hedged task execution: the straggler mitigation the paper's recovery
// model (§3.6) leaves on the table. The unhedged executor runs the heap
// path only *after* a speculative abort, so a native attempt that is
// merely slow — a GC-wedged executor, a pathological input, an injected
// stall — serializes the whole task behind it. Hedging bounds that tail:
// once a native attempt has run longer than a configurable hedge delay,
// the untransformed heap attempt launches concurrently over the same
// immutable input buffers and the task takes the first finisher, the
// loser being canceled cooperatively through the interpreter's step
// loop.
//
// The race is safe for exactly the reason re-execution after an abort is
// safe: speculation never mutates task inputs (the statically inserted
// mutate-input aborts enforce it, the VerifyInputs canary checks it),
// and each attempt holds all of its other state alone — a heap, arena
// and output sink taken from the job's free lists (memory.go) when it
// starts and returned when it ends, and race drains both attempts
// before returning, so no two attempts ever hold the same object at
// once. Both paths compute the same function, so
// whichever finishes first yields the same bytes; the differential tests
// pin hedged output byte-identical to unhedged output under -race.
//
// One deliberate asymmetry: a *permanent* native failure fails the task
// even if the hedge produced an answer, because that is what the
// unhedged path does — hedging must never change a task's outcome, only
// its latency.

package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// canceler carries the cooperative cancellation signal for one racing
// attempt: an atomic flag the interpreter's step loop polls, plus a
// channel injected stalls select on. A nil *canceler never cancels.
type canceler struct {
	flag atomic.Bool
	ch   chan struct{}
}

func newCanceler() *canceler { return &canceler{ch: make(chan struct{})} }

// cancel signals the attempt to stop at its next cancellation point.
// Idempotent and safe to call concurrently.
func (c *canceler) cancel() {
	if c.flag.CompareAndSwap(false, true) {
		close(c.ch)
	}
}

// cancelFlag returns the flag the interpreter polls (nil = uncancelable).
func (c *canceler) cancelFlag() *atomic.Bool {
	if c == nil {
		return nil
	}
	return &c.flag
}

// sleep blocks for d or until canceled, reporting whether it was
// canceled first.
func (c *canceler) sleep(d time.Duration) bool {
	if c == nil {
		time.Sleep(d)
		return false
	}
	if c.flag.Load() {
		// Already canceled: with a short d both select cases below could
		// be ready, and select would pick between them at random.
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-c.ch:
		return true
	}
}

// racer is one attempt running on its own goroutine: how to stop it and
// where its outcome arrives.
type racer struct {
	cancel *canceler
	done   <-chan attemptOutcome
}

// launch starts one attempt of the task concurrently. It takes the spec
// by value: the copy, not the task's own spec, is what escapes to the
// attempt's goroutine.
func (e *Executor) launch(native bool, spec TaskSpec, att *trace.Span) racer {
	cancel, done := newCanceler(), make(chan attemptOutcome, 1)
	go func() { done <- e.run(native, spec, att, cancel) }()
	return racer{cancel: cancel, done: done}
}

// race is speculate's rule with the timer armed: the native attempt
// starts at once on its own goroutine; if it outlives the hedge delay,
// the heap attempt launches beside it over the same immutable input
// buffers, and the first successful finisher cancels the other. Both
// attempts are always drained and settled before race returns, so no
// attempt goroutine outlives its task and every attempt's cost lands in
// the job accounting (a canceled loser's partial work is real work the
// hedge spent).
func (t *taskRun) race(natt *trace.Span, delay time.Duration,
	launch func(native bool, att *trace.Span) racer) (nr, hr attemptOutcome, native, hedge attemptState) {

	n := launch(true, natt)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case nr = <-n.done:
		// The native attempt beat the hedge delay: no intra-task
		// concurrency happened and the serial rule applies verbatim.
		return nr, hr, t.settleNative(natt, nr, false), notRun
	case <-timer.C:
	}

	t.span.Instant("hedge", "hedge-launch",
		trace.Str("driver", t.spec.Driver), trace.I64("delay_ns", int64(delay)))
	t.bd.Hedges++
	hatt := t.span.Child("attempt", "heap-hedge")
	h := launch(false, hatt)

	select {
	case nr = <-n.done:
		// An abort leaves the already-running hedge as the heap fallback
		// the serial path would now start. Any other native outcome
		// decides the task by itself, so the hedge is stopped.
		native = t.settleNative(natt, nr, false)
		if native != aborted {
			h.cancel.cancel()
		}
		hr = <-h.done
		hedge = t.settleHedge(hatt, hr, native != aborted)
		if native == succeeded {
			t.hedgeCancel("heap")
		}
	case hr = <-h.done:
		// A hedge that overtook the straggler stops it. A hedge that
		// failed — the ground-truth path — leaves the task's fate to the
		// native attempt, which runs on.
		if hedge = t.settleHedge(hatt, hr, false); hedge == succeeded {
			n.cancel.cancel()
		}
		nr = <-n.done
		native = t.settleNative(natt, nr, hedge == succeeded)
	}
	return nr, hr, native, hedge
}

// settleHedge settles the concurrent heap attempt; one that ran to an
// answer is a hedge win whatever the native attempt goes on to do.
func (t *taskRun) settleHedge(att *trace.Span, o attemptOutcome, stopped bool) attemptState {
	s := t.settleHeap(att, o, stopped)
	if s == succeeded {
		t.span.Instant("hedge", "hedge-win", trace.Str("driver", t.spec.Driver))
		t.bd.HedgeWins++
	}
	return s
}

// hedgeCancel records that the race's winner stopped the losing attempt.
func (t *taskRun) hedgeCancel(loser string) {
	t.span.Instant("hedge", "hedge-cancel", trace.Str("loser", loser))
	t.e.Trace.Registry().Counter("hedge_cancels_total").Add(1)
}
