package engine

import (
	"time"

	"repro/internal/trace"
)

// Scripted stands in for one concurrent attempt in the outcome-matrix
// test: it waits for When, optionally runs Do (on the attempt's own
// goroutine, like a real attempt's side effect), then hands the task
// Out and Err. Real attempts cannot be ordered from outside — a
// canceled native attempt that completes anyway needs the cancel to
// land after its last poll — so the matrix scripts them instead.
type Scripted struct {
	When When
	Do   func()
	Out  []byte
	Err  error
}

// When is the event a scripted attempt finishes after.
type When int

const (
	Immediately         When = iota // as soon as it is launched
	AfterHedgeLaunch                // once the hedge delay expired and the hedge started
	AfterCancel                     // once the task canceled this attempt
	AfterOtherDelivered             // once the task has taken the other attempt's outcome
)

// SpeculateScripted runs RunTask's speculative branch with the two
// concurrent attempts replaced by scripts; everything else — the hedge
// timer, the settle functions, the canary, the decision and the inline
// heap fallback — is the production code.
func (e *Executor) SpeculateScripted(spec TaskSpec, native, hedge Scripted) (TaskResult, error) {
	t := taskRun{e: e, spec: &spec, start: time.Now()}
	t.span = e.Trace.StartSpan("task", spec.Name)
	t.bd.Attempts++
	if e.VerifyInputs {
		t.sum = checksumInputs(spec)
	}
	hedgeLaunched := make(chan struct{})
	delivered := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	return t.speculate(func(isNative bool, att *trace.Span) racer {
		s, me := hedge, 0
		if isNative {
			s, me = native, 1
		} else {
			close(hedgeLaunched)
		}
		c := newCanceler()
		// Unbuffered: the send returns only once the task has taken the
		// outcome, which is what AfterOtherDelivered waits for.
		done := make(chan attemptOutcome)
		go func() {
			switch s.When {
			case AfterHedgeLaunch:
				<-hedgeLaunched
			case AfterCancel:
				<-c.ch
			case AfterOtherDelivered:
				<-delivered[1-me]
			}
			if s.Do != nil {
				s.Do()
			}
			done <- attemptOutcome{out: s.Out, err: s.Err}
			close(delivered[me])
		}()
		return racer{cancel: c, done: done}
	})
}
