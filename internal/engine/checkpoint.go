package engine

import (
	"fmt"

	"repro/internal/trace"
)

// restoreCheckpoint loads the task's persisted partial-fold state, if
// any: seedFn receives the checkpointed output bytes (the completed
// driver runs' fold results — deterministic and byte-identical in both
// modes, so a checkpoint saved by a native attempt soundly resumes a
// heap attempt and vice versa) and the returned index is the driver run
// to resume from, counted across bindings. A corrupt checkpoint
// (checksum mismatch) is discarded and counted; the attempt then
// restarts from record zero — slower, never wrong.
func (e *Executor) restoreCheckpoint(spec TaskSpec, att *trace.Span, seedFn func([]byte)) int {
	if spec.CheckpointEvery <= 0 || spec.Checkpoints == nil {
		return 0
	}
	ck, ok, corrupt := spec.Checkpoints.Load(spec.Name)
	if corrupt {
		att.Instant("recovery", "checkpoint-corrupt", trace.Str("task", spec.Name))
		e.Trace.Registry().Counter("recovery_checkpoint_corrupt_total").Add(1)
	}
	runs := 0
	for _, inv := range spec.Invocations {
		n, _ := runsOf(inv) // a malformed binding runs none; the walk reports it
		runs += n
	}
	if !ok || ck.Seq <= 0 || ck.Seq > runs {
		return 0
	}
	if len(ck.Data) > 0 {
		seedFn(ck.Data)
	}
	att.Instant("recovery", "checkpoint-resume", trace.Str("task", spec.Name),
		trace.I64("seq", int64(ck.Seq)), trace.I64("bytes", int64(len(ck.Data))))
	e.Trace.Registry().Counter("recovery_checkpoint_resumes_total").Add(1)
	return ck.Seq
}

// maybeCheckpoint persists the fold output after the done'th completed
// driver run when the cadence hits. Hedged attempts may save
// concurrently; any saved prefix is a sound resume point, so the race
// is benign.
func (e *Executor) maybeCheckpoint(spec TaskSpec, att *trace.Span, done int, out []byte) {
	if spec.CheckpointEvery <= 0 || spec.Checkpoints == nil || done%spec.CheckpointEvery != 0 {
		return
	}
	spec.Checkpoints.Save(spec.Name, done, out)
	att.Instant("recovery", "checkpoint-save", trace.Str("task", spec.Name),
		trace.I64("seq", int64(done)), trace.I64("bytes", int64(len(out))))
	e.Trace.Registry().Counter("recovery_checkpoints_saved_total").Add(1)
}

// killHook returns a per-record hook firing the spec's injected task
// kill, or nil when none is planned. The kill triggers on the attempt's
// cumulative record count — driver runs share one counter, the
// granularity a shot executor dies at — and fires once per plan, so the
// retry runs to completion. When the plan also calls for checkpoint
// corruption, the dying "executor" mangles its last checkpoint write on
// the way down: the retry must detect the bad checksum and restart the
// fold from record zero.
func killHook(spec TaskSpec) func(int64) error {
	p := spec.Faults
	if p == nil || p.KillReduceAtRecord <= 0 {
		return nil
	}
	var total int64
	return func(int64) error {
		total++
		if total >= p.KillReduceAtRecord && p.TakeKill() {
			if p.TakeCheckpointCorrupt() {
				spec.Checkpoints.Corrupt(spec.Name)
			}
			return &TaskError{Task: spec.Name, Class: FaultTransient,
				Err: fmt.Errorf("injected task kill at record %d", total)}
		}
		return nil
	}
}
