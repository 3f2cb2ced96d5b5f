package engine_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/trace"
)

// TestTaskOutcomeMatrix pins the task state machine — speculate, settle,
// decide — for every ordering of a native attempt and its hedge. Rows
// without scripts run real attempts through RunTask; they cover what
// can be ordered from outside (no hedge, or a native attempt that beats
// the delay). The rest script the two concurrent attempts through
// SpeculateScripted, so "the hedge finished first and the canceled
// native attempt then completed anyway" happens on every run instead of
// once in a thousand.
func TestTaskOutcomeMatrix(t *testing.T) {
	const driver = "incStage"
	var (
		errAbort = &interp.AbortError{Reason: "scripted abort"}
		errPerm  = errors.New("scripted permanent failure")
		errHeap  = errors.New("scripted heap failure")
		never    = time.Hour
		atOnce   = time.Nanosecond
	)
	native := func(when When, err error) *Scripted {
		return &Scripted{When: when, Out: []byte("native"), Err: err}
	}
	hedge := func(when When, err error) *Scripted {
		return &Scripted{When: when, Out: []byte("hedge"), Err: err}
	}
	type spans struct{ native, fallback, hedge string } // attempt span outcomes, "" = no such span
	rows := []struct {
		name          string
		hedging       time.Duration
		spec          func(*TaskSpec) // real rows: what goes wrong
		native, hedge *Scripted       // scripted rows
		mutate        bool            // the scripted native attempt flips an input bit

		out     string // "native" / "hedge" markers, "baseline" for real output, "" = the task fails
		err     error  // errors.Is target of the failure
		aborts  int64  // Breakdown.Aborts and aborts_total
		hedges  int64  // Breakdown.Hedges and hedges_total
		wins    int64  // Breakdown.HedgeWins and hedge_wins_total
		cancels int64  // hedge_cancels_total
		spans   spans
		breaker string // what Breaker.Record heard: "ok", "abort" or "" (nothing)
	}{
		// Serial recovery: no timer.
		{name: "serial/native-ok",
			out: "baseline", spans: spans{native: "ok"}, breaker: "ok"},
		{name: "serial/native-aborts",
			spec: func(s *TaskSpec) { s.AbortAfterRecords = 5 },
			out:  "baseline", aborts: 1, spans: spans{native: "abort", fallback: "ok"}, breaker: "abort"},
		{name: "serial/native-fails",
			spec: func(s *TaskSpec) { s.Faults = &faults.Plan{KillReduceAtRecord: 3} },
			err:  errKill, spans: spans{native: "error"}},
		{name: "serial/input-mutated",
			spec: func(s *TaskSpec) { s.Faults = &faults.Plan{FlipInputBit: true} },
			err:  ErrInputMutated, spans: spans{native: "ok"}, breaker: "ok"},

		// Hedging armed, native attempt settles before the delay: the
		// serial rule verbatim.
		{name: "before-delay/native-ok", hedging: never,
			out: "baseline", spans: spans{native: "ok"}, breaker: "ok"},
		{name: "before-delay/native-aborts", hedging: never,
			spec: func(s *TaskSpec) { s.AbortAfterRecords = 5 },
			out:  "baseline", aborts: 1, spans: spans{native: "abort", fallback: "ok"}, breaker: "abort"},
		{name: "before-delay/native-fails", hedging: never,
			spec: func(s *TaskSpec) { s.Faults = &faults.Plan{KillReduceAtRecord: 3} },
			err:  errKill, spans: spans{native: "error"}},
		{name: "before-delay/input-mutated", hedging: never,
			spec: func(s *TaskSpec) { s.Faults = &faults.Plan{FlipInputBit: true} },
			err:  ErrInputMutated, spans: spans{native: "ok"}, breaker: "ok"},

		// The hedge fires and the native attempt settles first.
		{name: "hedge-fired/native-ok", hedging: atOnce,
			native: native(AfterHedgeLaunch, nil), hedge: hedge(AfterCancel, interp.ErrCanceled),
			out: "native", hedges: 1, cancels: 1, spans: spans{native: "ok", hedge: "canceled"}, breaker: "ok"},
		{name: "hedge-fired/native-aborts-hedge-ok", hedging: atOnce,
			native: native(AfterHedgeLaunch, errAbort), hedge: hedge(AfterOtherDelivered, nil),
			out: "hedge", aborts: 1, hedges: 1, wins: 1, spans: spans{native: "abort", hedge: "ok"}, breaker: "abort"},
		{name: "hedge-fired/native-aborts-hedge-fails", hedging: atOnce,
			native: native(AfterHedgeLaunch, errAbort), hedge: hedge(AfterOtherDelivered, errHeap),
			err: errHeap, aborts: 1, hedges: 1, spans: spans{native: "abort", hedge: "error"}, breaker: "abort"},
		// The canceled hedge hands back an answer anyway; it must not mask
		// the permanent failure.
		{name: "hedge-fired/native-fails", hedging: atOnce,
			native: native(AfterHedgeLaunch, errPerm), hedge: hedge(AfterCancel, nil),
			err: errPerm, hedges: 1, spans: spans{native: "error", hedge: "canceled"}},

		// The hedge finishes first with an answer and cancels the native
		// attempt, which then ...
		{name: "hedge-won/native-canceled", hedging: atOnce,
			native: native(AfterCancel, interp.ErrCanceled), hedge: hedge(Immediately, nil),
			out: "hedge", hedges: 1, wins: 1, cancels: 1, spans: spans{native: "canceled", hedge: "ok"}},
		{name: "hedge-won/native-completes-anyway", hedging: atOnce,
			native: native(AfterCancel, nil), hedge: hedge(Immediately, nil),
			out: "hedge", hedges: 1, wins: 1, spans: spans{native: "ok", hedge: "ok"}, breaker: "ok"},
		{name: "hedge-won/native-aborts", hedging: atOnce,
			native: native(AfterCancel, errAbort), hedge: hedge(Immediately, nil),
			out: "hedge", aborts: 1, hedges: 1, wins: 1, spans: spans{native: "abort", hedge: "ok"}, breaker: "abort"},
		{name: "hedge-won/native-fails", hedging: atOnce,
			native: native(AfterCancel, errPerm), hedge: hedge(Immediately, nil),
			err: errPerm, hedges: 1, wins: 1, spans: spans{native: "error", hedge: "ok"}},
		{name: "hedge-won/input-mutated", hedging: atOnce, mutate: true,
			native: native(AfterCancel, interp.ErrCanceled), hedge: hedge(Immediately, nil),
			err: ErrInputMutated, hedges: 1, wins: 1, cancels: 1, spans: spans{native: "canceled", hedge: "ok"}},

		// The hedge — the ground-truth path — fails first; the native
		// attempt runs on, uncanceled, and decides the task.
		{name: "hedge-failed/native-ok", hedging: atOnce,
			native: native(AfterOtherDelivered, nil), hedge: hedge(Immediately, errHeap),
			out: "native", hedges: 1, spans: spans{native: "ok", hedge: "error"}, breaker: "ok"},
		{name: "hedge-failed/native-aborts", hedging: atOnce,
			native: native(AfterOtherDelivered, errAbort), hedge: hedge(Immediately, errHeap),
			err: errHeap, aborts: 1, hedges: 1, spans: spans{native: "abort", hedge: "error"}, breaker: "abort"},
		{name: "hedge-failed/native-fails", hedging: atOnce,
			native: native(AfterOtherDelivered, errPerm), hedge: hedge(Immediately, errHeap),
			err: errPerm, hedges: 1, spans: spans{native: "error", hedge: "error"}},
	}

	c, _, baseline := hedgeFixture(t, 25)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			input := encode(t, c, 25) // fresh: some rows mutate it
			spec := TaskSpec{Name: row.name, Driver: driver,
				Invocations: []map[string]Input{{"in": {Class: "Pair", Buf: input}}}}
			if row.spec != nil {
				row.spec(&spec)
			}
			// One abort short of opening, so afterwards the breaker's state
			// tells an abort (open), a success (count reset) and silence
			// (count still one short) apart.
			br := &Breaker{Threshold: 2}
			br.Record(driver, true)
			tr := trace.New()
			e := &Executor{C: c, Mode: Gerenuk, VerifyInputs: true, Trace: tr, Breaker: br, HedgeAfter: row.hedging}

			var res TaskResult
			var err error
			if row.native == nil {
				res, err = e.RunTask(spec)
			} else {
				n := *row.native
				if row.mutate {
					n.Do = func() { input[len(input)/2] ^= 1 }
				}
				res, err = e.SpeculateScripted(spec, n, *row.hedge)
			}

			switch {
			case row.out == "":
				if !isFailure(err, row.err) {
					t.Fatalf("err = %v, want %v", err, row.err)
				}
			case err != nil:
				t.Fatalf("task failed: %v", err)
			case row.out == "baseline" && !bytes.Equal(res.Out, baseline):
				t.Errorf("output differs from the fault-free baseline")
			case row.out != "baseline" && string(res.Out) != row.out:
				t.Errorf("took the %q output, want %q", res.Out, row.out)
			}

			s, reg := res.Stats, tr.Registry()
			if s.Attempts != 1 {
				t.Errorf("Attempts = %d, want 1 however many attempts ran", s.Attempts)
			}
			for _, chk := range []struct {
				name      string
				got, want int64
			}{
				{"Aborts", s.Aborts, row.aborts},
				{"aborts_total", reg.Counter("aborts_total").Value(), row.aborts},
				{"Hedges", s.Hedges, row.hedges},
				{"hedges_total", reg.Counter("hedges_total").Value(), row.hedges},
				{"HedgeWins", s.HedgeWins, row.wins},
				{"hedge_wins_total", reg.Counter("hedge_wins_total").Value(), row.wins},
				{"hedge_cancels_total", reg.Counter("hedge_cancels_total").Value(), row.cancels},
			} {
				if chk.got != chk.want {
					t.Errorf("%s = %d, want %d", chk.name, chk.got, chk.want)
				}
			}

			got := spans{}
			for _, ev := range tr.Events() {
				if ev.Cat != "attempt" || ev.Ph != "X" {
					continue
				}
				outcome, _ := ev.Args["outcome"].(string)
				switch ev.Name {
				case "native-attempt":
					got.native += outcome
				case "heap-attempt":
					got.fallback += outcome
				case "heap-hedge":
					got.hedge += outcome
				}
			}
			if got != row.spans {
				t.Errorf("attempt span outcomes = %+v, want %+v", got, row.spans)
			}

			heard := "abort"
			if !br.Open(driver) {
				heard = "ok"
				if br.Record(driver, true); br.Open(driver) {
					heard = ""
				}
			}
			if heard != row.breaker {
				t.Errorf("breaker heard %q, want %q", heard, row.breaker)
			}
		})
	}
}

// errKill stands for the injected task kill, the one non-speculation
// error a real native attempt can be made to return. The engine builds
// it afresh each time, so it is matched by class and text.
var errKill = errors.New("injected task kill")

func isFailure(err, want error) bool {
	if want == errKill {
		return Classify(err) == FaultTransient && strings.Contains(err.Error(), errKill.Error())
	}
	return errors.Is(err, want)
}
