package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/interp"
)

func TestSimulateClosureCosts(t *testing.T) {
	ser, deser := simulateClosure(8 << 10)
	if ser <= 0 || deser <= 0 {
		t.Errorf("closure costs not measured: %v %v", ser, deser)
	}
	if s, d := simulateClosure(0); s != 0 || d != 0 {
		t.Errorf("zero closure should be free")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FaultClass
	}{
		{&interp.AbortError{Reason: "mutate-input"}, AbortSpeculation},
		{fmt.Errorf("stage: %w", &interp.AbortError{Reason: "x"}), AbortSpeculation},
		{heap.ErrOutOfMemory, FaultOOM},
		{fmt.Errorf("alloc: %w", heap.ErrOutOfMemory), FaultOOM},
		{errors.New("some bug"), FaultPermanent},
		{ErrInputMutated, FaultPermanent},
		{&TaskError{Task: "t", Class: FaultTransient, Err: errors.New("x")}, FaultTransient},
		{fmt.Errorf("wrap: %w", &TaskError{Class: FaultOOM, Err: errors.New("x")}), FaultOOM},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	if !FaultTransient.Retryable() || !FaultOOM.Retryable() {
		t.Errorf("transient/oom must be retryable")
	}
	if AbortSpeculation.Retryable() || FaultPermanent.Retryable() {
		t.Errorf("abort/permanent must not be retryable")
	}
}

func TestTaskErrPreservesClass(t *testing.T) {
	inner := &TaskError{Class: FaultTransient, Err: errors.New("x")}
	out := taskErr("job-t1", inner)
	if out.Class != FaultTransient || out.Task != "job-t1" {
		t.Errorf("taskErr rewrote class or dropped name: %+v", out)
	}
	named := &TaskError{Task: "orig", Class: FaultOOM, Err: errors.New("x")}
	if got := taskErr("other", named); got.Task != "orig" {
		t.Errorf("taskErr renamed an already-named error: %q", got.Task)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := &Breaker{Threshold: 2}
	d := "drv"
	if !b.Allow(d) || b.Open(d) {
		t.Fatalf("new breaker must start closed")
	}
	b.Record(d, true)
	if b.Open(d) {
		t.Fatalf("one abort below threshold opened the breaker")
	}
	b.Record(d, true)
	if !b.Open(d) {
		t.Fatalf("threshold aborts did not open the breaker")
	}
	// While open: every 8th Allow is a half-open probe.
	for i := 1; i <= 16; i++ {
		if got, want := b.Allow(d), i%8 == 0; got != want {
			t.Fatalf("open-state Allow #%d = %v, want %v", i, got, want)
		}
	}
	// A failed probe keeps it open; a successful one closes it.
	b.Record(d, true)
	if !b.Open(d) {
		t.Fatalf("failed probe closed the breaker")
	}
	b.Record(d, false)
	if b.Open(d) || !b.Allow(d) {
		t.Fatalf("successful probe did not close the breaker")
	}
	// Abort streaks are per driver.
	b.Record("other", true)
	b.Record("other", true)
	if !b.Open("other") || b.Open(d) {
		t.Fatalf("drivers must trip independently")
	}
	// Disabled breakers always allow.
	var nb *Breaker
	if !nb.Allow(d) || nb.Open(d) {
		t.Fatalf("nil breaker must be a no-op")
	}
	zero := &Breaker{}
	zero.Record(d, true)
	if !zero.Allow(d) {
		t.Fatalf("threshold 0 must disable the breaker")
	}
}

func TestChecksumInputs(t *testing.T) {
	spec := TaskSpec{Invocations: []map[string]Input{
		{"in": {Buf: []byte{1, 2, 3}}, "side": {Buf: []byte{9}}},
	}}
	a, b := checksumInputs(spec), checksumInputs(spec)
	if a != b {
		t.Errorf("checksum not deterministic")
	}
	spec.Invocations[0]["in"].Buf[1] ^= 1
	if checksumInputs(spec) == a {
		t.Errorf("checksum missed a flipped bit")
	}
	spec.Invocations[0]["in"].Buf[1] ^= 1
	if checksumInputs(spec) != a {
		t.Errorf("checksum did not restore after unflip")
	}
	// Swapping which source holds which bytes must change the sum.
	swapped := TaskSpec{Invocations: []map[string]Input{
		{"side": {Buf: []byte{1, 2, 3}}, "in": {Buf: []byte{9}}},
	}}
	if checksumInputs(swapped) == a {
		t.Errorf("checksum insensitive to source binding")
	}
}

// sharedBlockSpec is a reduce-shaped task: groups key groups all bound
// to one block, plus one invocation over a second, distinct buffer.
func sharedBlockSpec(groups, blockBytes int) (TaskSpec, []byte, []byte) {
	block := make([]byte, blockBytes)
	for i := range block {
		block[i] = byte(i)
	}
	other := []byte{7, 7, 7, 7}
	spec := TaskSpec{}
	for g := 0; g < groups; g++ {
		spec.Invocations = append(spec.Invocations,
			map[string]Input{"in": {Buf: block, Offs: []int{g}}})
	}
	spec.Invocations = append(spec.Invocations, map[string]Input{"in": {Buf: other}})
	return spec, block, other
}

// The canary hashes each distinct backing buffer once, however many key
// groups point into it — and still sees a flipped byte anywhere in the
// shared block or in any other buffer.
func TestChecksumInputsSharedBuffers(t *testing.T) {
	spec, block, other := sharedBlockSpec(64, 1<<10)
	clean := checksumInputs(spec)
	for _, at := range []int{0, len(block) / 2, len(block) - 1} {
		block[at] ^= 1
		if checksumInputs(spec) == clean {
			t.Errorf("flip at byte %d of the shared block went undetected", at)
		}
		block[at] ^= 1
	}
	other[2] ^= 1
	if checksumInputs(spec) == clean {
		t.Error("flip in the second, distinct buffer went undetected")
	}
	other[2] ^= 1
	if checksumInputs(spec) != clean {
		t.Error("checksum did not restore after unflip")
	}
	// Sharing must not matter to the sum: one invocation per buffer
	// hashes the same bytes in the same order.
	once := TaskSpec{Invocations: []map[string]Input{
		{"in": {Buf: block}}, {"in": {Buf: other}},
	}}
	if checksumInputs(once) != clean {
		t.Error("sum depends on how many groups share a block")
	}
}

// BenchmarkChecksumInputs is the canary's cost on a reduce-shaped task:
// 256 key groups over one 64 KiB block (ns/op is per task, per call; a
// task pays two calls).
func BenchmarkChecksumInputs(b *testing.B) {
	spec, block, _ := sharedBlockSpec(256, 64<<10)
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSum = checksumInputs(spec)
	}
}

var sinkSum uint64
