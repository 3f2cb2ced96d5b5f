package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// fakeClock returns a clock that advances a fixed step per read, so
// span durations are deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * step)
	}
}

// TestFlameFoldsSpanTree drives the real lifecycle shape — job and
// stage as context spans, tasks as parentless roots (the spark idiom),
// attempts and phases as children — and checks the folded output nests
// them job→stage→task→attempt→phase with self-time weights.
func TestFlameFoldsSpanTree(t *testing.T) {
	tr := trace.NewWithClock(fakeClock(time.Millisecond))
	f := NewFlame()
	tr.Subscribe(f.Observe)

	job := tr.StartSpan("job", "PR")
	stage := tr.StartSpan("stage", "s0") // parentless root: attaches to job
	task := tr.StartSpan("task", "t1")   // attaches to stage
	att := task.Child("attempt", "native")
	ph := att.Child("phase", "deser")
	ph.End()
	att.End()
	task.End()
	stage.End()
	job.End()

	if got := f.Spans(); got != 5 {
		t.Fatalf("Spans() = %d, want 5", got)
	}
	var buf bytes.Buffer
	if err := f.WriteFolded(&buf); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	out := buf.String()
	want := "job:PR;stage:s0;task:t1;attempt:native;phase:deser"
	if !strings.Contains(out, want) {
		t.Fatalf("folded output missing full chain %q:\n%s", want, out)
	}
	stats, err := ValidateFolded(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ValidateFolded: %v\n%s", err, out)
	}
	if stats.FullChains != 1 {
		t.Fatalf("FullChains = %d, want 1\n%s", stats.FullChains, out)
	}
	if stats.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d, want > 0", stats.TotalNs)
	}
}

// TestFlameSelfTimeConservation checks the core folding invariant: the
// summed folded weights equal the root span's wall time (self time
// partitions the tree, nothing double-counted).
func TestFlameSelfTimeConservation(t *testing.T) {
	tr := trace.NewWithClock(fakeClock(time.Millisecond))
	f := NewFlame()
	tr.Subscribe(f.Observe)

	job := tr.StartSpan("job", "WC")
	jobStart := int64(0)
	task := job.Child("task", "t0")
	a1 := task.Child("attempt", "native")
	a1.End()
	a2 := task.Child("attempt", "heap")
	a2.End()
	task.End()
	job.End(trace.I64("marker", jobStart))

	var buf bytes.Buffer
	if err := f.WriteFolded(&buf); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	stats, err := ValidateFolded(&buf)
	if err != nil {
		t.Fatalf("ValidateFolded: %v", err)
	}
	// Clock steps once per since() read: job spans reads 2..11 → its X
	// event duration covers every child tick. The exact total equals the
	// job's Dur, which we recover from the tracer's own event log.
	var jobDur int64
	for _, e := range tr.Events() {
		if e.Cat == "job" && e.Ph == "X" {
			jobDur = e.Dur
		}
	}
	if jobDur == 0 {
		t.Fatal("job X event not found")
	}
	if stats.TotalNs != jobDur {
		t.Fatalf("folded total %d != job wall %d (self-time not conserved)", stats.TotalNs, jobDur)
	}
}

// TestFlameOverlappingHedges pins the SID-based disambiguation: two
// attempts open concurrently under one task (the hedge shape) and both
// fold under the task, not under each other.
func TestFlameOverlappingHedges(t *testing.T) {
	tr := trace.NewWithClock(fakeClock(time.Millisecond))
	f := NewFlame()
	tr.Subscribe(f.Observe)

	task := tr.StartSpan("task", "t9")
	native := task.Child("attempt", "native")
	hedge := task.Child("attempt", "hedge") // overlaps native on the same tid
	hedge.End()
	native.End()
	task.End()

	var buf bytes.Buffer
	f.WriteFolded(&buf)
	out := buf.String()
	for _, want := range []string{"task:t9;attempt:native", "task:t9;attempt:hedge"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in folded output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "attempt:native;attempt:hedge") ||
		strings.Contains(out, "attempt:hedge;attempt:native") {
		t.Fatalf("hedged attempts nested under each other:\n%s", out)
	}
}

// TestValidateFoldedRejects locks in the validator's error cases.
func TestValidateFoldedRejects(t *testing.T) {
	cases := map[string]string{
		"empty input":       "",
		"no weight":         "job:a;task:b\n",
		"bad weight":        "job:a xyz\n",
		"zero weight":       "job:a 0\n",
		"bare frame":        "noseparator 5\n",
		"task above job":    "task:t;job:j 5\n",
		"repeated stage":    "job:j;stage:s;stage:s2 5\n",
		"phase then task":   "job:j;phase:p;task:t 5\n",
		"phase under phase": "job:j;stage:s;task:t;attempt:a;phase:execute;phase:deser 20\n",
	}
	for name, in := range cases {
		if _, err := ValidateFolded(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ValidateFolded accepted %q", name, in)
		}
	}
	// and the happy path: out-of-spine categories interleave freely, and
	// a full job→phase spine counts as one full chain.
	ok := "job:j;stage:s;shuffle:exchange 10\n" +
		"job:j;stage:s;task:t;attempt:a;phase:execute 20\n"
	stats, err := ValidateFolded(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("ValidateFolded rejected valid input: %v", err)
	}
	if stats.Stacks != 2 || stats.FullChains != 1 || stats.TotalNs != 30 {
		t.Fatalf("stats = %+v, want 2 stacks, 1 full chain, 30ns", stats)
	}
}

// TestFlameSanitizesNames checks frame-hostile characters in span names
// cannot corrupt the collapsed format.
func TestFlameSanitizesNames(t *testing.T) {
	tr := trace.New()
	f := NewFlame()
	tr.Subscribe(f.Observe)
	sp := tr.StartSpan("task", "weird name;with everything")
	time.Sleep(time.Millisecond)
	sp.End()
	var buf bytes.Buffer
	f.WriteFolded(&buf)
	if _, err := ValidateFolded(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("sanitized output failed validation: %v\n%s", err, buf.String())
	}
}
