package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/recovery"
)

// FaultClass partitions task failures by the recovery they admit,
// mirroring the paper's failure model (§3.4, §3.6): speculation failures
// always deoptimize to the untransformed heap path; everything else is a
// plain distributed-systems fault the scheduler retries or reports.
type FaultClass int

const (
	// AbortSpeculation is a failed speculative attempt — a cooperative
	// abort instruction, a runtime guard failure, or a contained panic
	// inside the native path. Recovery: discard the attempt and
	// re-execute the original driver over the pristine inputs.
	AbortSpeculation FaultClass = iota
	// FaultTransient is a retryable whole-task failure (lost executor,
	// flaky I/O, injected chaos). Recovery: bounded immediate retries on a
	// fresh executor.
	FaultTransient
	// FaultPermanent is a non-retryable failure: a genuine bug, or a
	// violated input-immutability contract that voids the re-execution
	// guarantee. Recovery: fail the task and report it.
	FaultPermanent
	// FaultOOM is an allocation failure of the simulated heap.
	// Recovery: retry the task with an escalated heap configuration.
	FaultOOM
)

func (c FaultClass) String() string {
	switch c {
	case AbortSpeculation:
		return "abort-speculation"
	case FaultTransient:
		return "transient"
	case FaultOOM:
		return "oom"
	default:
		return "permanent"
	}
}

// Retryable reports whether the pool should re-attempt a task that
// failed with this class.
func (c FaultClass) Retryable() bool { return c == FaultTransient || c == FaultOOM }

// TaskError is the typed failure of one task (possibly after several
// attempts).
type TaskError struct {
	Task     string
	Class    FaultClass
	Attempts int
	Err      error
}

func (e *TaskError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("task %s: %s after %d attempts: %v", e.Task, e.Class, e.Attempts, e.Err)
	}
	return fmt.Sprintf("task %s: %s: %v", e.Task, e.Class, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// ErrInputMutated is the mutate-input canary firing: an input buffer
// changed while a speculative attempt ran, so re-execution over "the
// same" bytes would not be re-execution over pristine input. The task
// must fail loudly instead of recovering silently wrong.
var ErrInputMutated = errors.New("engine: input buffer mutated during speculation (mutate-input canary)")

// ErrCanceled reports that a driver observed its cancellation signal at
// a stage or batch boundary and stopped cooperatively. It is a permanent
// (non-retryable) outcome: the work was abandoned on purpose, not lost.
// The cluster adapter translates it into the service's canceled state.
var ErrCanceled = errors.New("engine: job canceled")

// Canceled non-blockingly polls a cancellation channel: ErrCanceled once
// the channel is closed, nil otherwise (including for a nil channel).
// Drivers call it at stage and batch boundaries — the cooperative
// cancellation points.
func Canceled(ch <-chan struct{}) error {
	select {
	case <-ch:
		return ErrCanceled
	default:
		return nil
	}
}

// Classify maps an error to its fault class. TaskErrors keep their
// class; interp aborts are speculation failures; heap allocation
// failures are OOMs; everything unrecognized is permanent.
func Classify(err error) FaultClass {
	var te *TaskError
	if errors.As(err, &te) {
		return te.Class
	}
	if errors.Is(err, interp.ErrAbort) {
		return AbortSpeculation
	}
	if errors.Is(err, heap.ErrOutOfMemory) {
		return FaultOOM
	}
	if errors.Is(err, recovery.ErrStageTimeout) {
		// A watchdog-expired stage is presumed hung, not wrong: the
		// driver may retry it like any other transient fault.
		return FaultTransient
	}
	return FaultPermanent
}

// taskErr wraps err as a TaskError for the named task, preserving an
// existing TaskError's class and filling in the task name if absent.
func taskErr(task string, err error) *TaskError {
	var te *TaskError
	if errors.As(err, &te) {
		if te.Task == "" {
			te.Task = task
		}
		return te
	}
	return &TaskError{Task: task, Class: Classify(err), Err: err}
}

// TaskFailure records one failed task inside a JobError.
type TaskFailure struct {
	Index    int    // position in the job's spec slice
	Name     string // TaskSpec.Name
	Attempts int    // attempts consumed
	Err      error
}

// JobError aggregates every failed task of a job, replacing the old
// first-error-wins behavior: callers see all failures at once, the way a
// driver's final job report lists every lost task.
type JobError struct {
	Tasks    int // total tasks in the job
	Failures []TaskFailure
}

func (e *JobError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d of %d tasks failed:", len(e.Failures), e.Tasks)
	for _, f := range e.Failures {
		fmt.Fprintf(&sb, "\n  task %d (%s): %v", f.Index, f.Name, f.Err)
	}
	return sb.String()
}

// Unwrap exposes the per-task errors to errors.Is/As.
func (e *JobError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}
