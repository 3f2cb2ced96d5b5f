// Package faults provides deterministic fault injection for the Gerenuk
// runtime's recovery paths (paper sections 3.4 and 3.6: speculation may
// fail at any point and the system must recover by re-executing the
// untransformed path over pristine inputs).
//
// A Plan describes the faults injected into one task: runtime panics at a
// chosen input record, native-memory violations, transient whole-attempt
// failures, simulated allocation OOMs, input-buffer bit flips (a broken
// mutate-input guarantee the engine's canary must catch), and slow-task
// delays. An Injector derives plans from a seed and the task name, so a
// chaos run is fully reproducible: the same seed injects the same faults
// at the same records on every run.
//
// The package is pure data + seeded selection; the engine interprets the
// plan. That keeps faults dependency-free and lets any layer (engine
// tests, spark, hadoop, the gerenukbench chaos mode) share one injector.
package faults

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"
)

// Plan describes the faults injected into one task. A nil *Plan means no
// injection. The plan carries cross-attempt state (the attempt counter),
// so the same value must be handed to every retry of its task — the
// engine's pool does this by re-running the same TaskSpec.
type Plan struct {
	// PanicAtRecord forces a plain runtime panic inside the speculative
	// native attempt when the Nth input record (1-based) is fetched.
	// 0 disables.
	PanicAtRecord int64
	// WildReadAtRecord forces a read of a wild native address at record
	// N, raising an arena access violation (arena.Fault). 0 disables.
	WildReadAtRecord int64
	// TransientFailures fails this many whole-task attempts with a
	// transient error before letting an attempt proceed.
	TransientFailures int
	// OOMFailures fails this many whole-task attempts with an error
	// wrapping heap.ErrOutOfMemory, exercising the pool's escalated-heap
	// retry.
	OOMFailures int
	// FlipInputBit corrupts one bit of the task's input buffer during
	// the native attempt, simulating a violated mutate-input guarantee.
	// The engine's input canary must detect it and fail the task rather
	// than silently recovering over corrupt bytes.
	FlipInputBit bool
	// Delay stalls every attempt, modeling a slow task.
	Delay time.Duration
	// NativeDelay stalls only the speculative native attempt, modeling a
	// straggling speculation (a GC-wedged executor, a slow node). The
	// heap path is unaffected, so a hedged heap attempt can overtake the
	// straggler. The stall honors cooperative cancellation.
	NativeDelay time.Duration
	// FetchFailures fails this many shuffle block fetch attempts before
	// letting one through, exercising the exchange's retry and replica
	// failover paths. The budget is shared across the task's blocks
	// (cross-attempt, like TransientFailures).
	FetchFailures int
	// LoseBlockReplicas drops this many replicas of the reduce task's
	// first fetched block before the fetch starts — N at least the
	// replication factor loses every copy, forcing lineage re-execution
	// of the producing map task. Fires once per plan. 0 disables.
	LoseBlockReplicas int
	// KillReduceAtRecord kills the task attempt (a retryable transient
	// failure, modeling a shot executor) when its cumulative processed
	// record count reaches N — in whichever mode's attempt gets there
	// first. Fires once per plan, so the retry runs to completion and the
	// checkpoint-resume path is exercised. 0 disables.
	KillReduceAtRecord int64
	// CheckpointCorrupt flips one bit of the task's persisted checkpoint
	// as the injected kill fires (the dying executor mangles its last
	// checkpoint write); the resume path must detect the bad checksum and
	// restart from record zero rather than fold over corrupt state.
	// Fires once per plan and only alongside KillReduceAtRecord.
	CheckpointCorrupt bool

	attempts      atomic.Int64
	fetchAttempts atomic.Int64
	replicaLosses atomic.Int64
	kills         atomic.Int64
	ckptCorrupts  atomic.Int64
}

// TakeAttempt returns the 1-based number of the attempt now starting and
// records it. Safe for concurrent use.
func (p *Plan) TakeAttempt() int64 { return p.attempts.Add(1) }

// Attempts returns how many attempts have started against this plan.
func (p *Plan) Attempts() int64 { return p.attempts.Load() }

// TakeFetchAttempt reports whether the shuffle fetch attempt now starting
// should fail: the first FetchFailures calls return true, every later
// call false. Safe for concurrent use (blocks fetch in parallel).
func (p *Plan) TakeFetchAttempt() bool {
	return p.fetchAttempts.Add(1) <= int64(p.FetchFailures)
}

// FetchAttempts returns how many fetch attempts have rolled against this
// plan.
func (p *Plan) FetchAttempts() int64 { return p.fetchAttempts.Load() }

// TakeReplicaLoss reports whether replica loss should be injected now
// (the first call of a plan with LoseBlockReplicas > 0) and returns how
// many replicas to drop. Safe for concurrent use.
func (p *Plan) TakeReplicaLoss() (int, bool) {
	if p == nil || p.LoseBlockReplicas <= 0 {
		return 0, false
	}
	return p.LoseBlockReplicas, p.replicaLosses.Add(1) == 1
}

// TakeKill reports whether the injected kill should fire now (the first
// call of a plan with KillReduceAtRecord > 0). Safe for concurrent use:
// a hedged pair of attempts racing to the fatal record kills only one.
func (p *Plan) TakeKill() bool {
	if p == nil || p.KillReduceAtRecord <= 0 {
		return false
	}
	return p.kills.Add(1) == 1
}

// TakeCheckpointCorrupt reports whether checkpoint corruption should be
// injected now (the first call of a plan with CheckpointCorrupt set).
func (p *Plan) TakeCheckpointCorrupt() bool {
	if p == nil || !p.CheckpointCorrupt {
		return false
	}
	return p.ckptCorrupts.Add(1) == 1
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (p.PanicAtRecord == 0 && p.WildReadAtRecord == 0 &&
		p.TransientFailures == 0 && p.OOMFailures == 0 && !p.FlipInputBit &&
		p.Delay == 0 && p.NativeDelay == 0 && p.FetchFailures == 0 &&
		p.LoseBlockReplicas == 0 && p.KillReduceAtRecord == 0 && !p.CheckpointCorrupt)
}

func (p *Plan) String() string {
	if p.Empty() {
		return "faults(none)"
	}
	var parts []string
	if p.PanicAtRecord > 0 {
		parts = append(parts, fmt.Sprintf("panic@%d", p.PanicAtRecord))
	}
	if p.WildReadAtRecord > 0 {
		parts = append(parts, fmt.Sprintf("wild@%d", p.WildReadAtRecord))
	}
	if p.TransientFailures > 0 {
		parts = append(parts, fmt.Sprintf("transient×%d", p.TransientFailures))
	}
	if p.OOMFailures > 0 {
		parts = append(parts, fmt.Sprintf("oom×%d", p.OOMFailures))
	}
	if p.FlipInputBit {
		parts = append(parts, "bitflip")
	}
	if p.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%v", p.Delay))
	}
	if p.NativeDelay > 0 {
		parts = append(parts, fmt.Sprintf("straggle=%v", p.NativeDelay))
	}
	if p.FetchFailures > 0 {
		parts = append(parts, fmt.Sprintf("fetchfail×%d", p.FetchFailures))
	}
	if p.LoseBlockReplicas > 0 {
		parts = append(parts, fmt.Sprintf("losereplicas×%d", p.LoseBlockReplicas))
	}
	if p.KillReduceAtRecord > 0 {
		parts = append(parts, fmt.Sprintf("kill@%d", p.KillReduceAtRecord))
	}
	if p.CheckpointCorrupt {
		parts = append(parts, "ckptcorrupt")
	}
	return "faults(" + strings.Join(parts, ",") + ")"
}

// Injector derives per-task fault plans from a seed. Every rate is a
// probability in [0,1]; selection is a pure function of (Seed, task name,
// fault kind), so two injectors with the same seed agree on every task.
type Injector struct {
	Seed int64

	// PanicRate is the fraction of tasks whose native attempt panics.
	PanicRate float64
	// WildReadRate is the fraction of tasks that read a wild native
	// address (an arena access violation).
	WildReadRate float64
	// TransientRate is the fraction of tasks whose first Transient
	// attempts fail with a retryable error.
	TransientRate float64
	// Transient is how many attempts fail per selected task (default 1).
	Transient int
	// OOMRate is the fraction of tasks whose first attempt fails with a
	// simulated out-of-memory error.
	OOMRate float64
	// FlipRate is the fraction of tasks whose input buffer gets one bit
	// flipped mid-speculation.
	FlipRate float64
	// DelayRate is the fraction of tasks stalled by Delay per attempt.
	DelayRate float64
	Delay     time.Duration
	// NativeDelayRate is the fraction of tasks whose speculative native
	// attempt straggles by NativeDelay (the hedging demo workload).
	NativeDelayRate float64
	NativeDelay     time.Duration
	// FetchFailRate is the fraction of reduce tasks whose first FetchFails
	// shuffle block fetches fail, exercising the exchange's retry path.
	FetchFailRate float64
	// FetchFails is how many fetch attempts fail per selected task
	// (default 1; keep it under the exchange's 3 attempts per replica or
	// the job legitimately fails).
	FetchFails int
	// ReplicaLossRate is the fraction of reduce tasks that lose
	// ReplicaLosses replicas of their first fetched block before the
	// fetch starts (losing all of them forces lineage re-execution).
	ReplicaLossRate float64
	// ReplicaLosses is how many replicas each selected task loses
	// (default 1; use a value at least the replication factor to lose
	// every copy).
	ReplicaLosses int
	// KillRate is the fraction of tasks killed (a retryable transient
	// failure) at a seed-derived cumulative record index, exercising the
	// checkpoint-resume path on the retry.
	KillRate float64
	// CheckpointCorruptRate is the fraction of killed tasks whose next
	// persisted checkpoint gets one bit flipped, exercising checksum
	// detection on resume. Only meaningful alongside KillRate.
	CheckpointCorruptRate float64
	// MaxRecord bounds the record index at which record-targeted faults
	// fire (default 8); the actual index is seed-derived in [1,MaxRecord].
	MaxRecord int64
}

// Chaos returns a moderately aggressive injector suitable for the
// gerenukbench chaos mode: every recovery path fires somewhere in a
// multi-task job, but transient budgets stay within the default retry
// policy so a correct runtime still completes the job.
func Chaos(seed int64) *Injector {
	return &Injector{
		Seed:          seed,
		PanicRate:     0.35,
		WildReadRate:  0.25,
		TransientRate: 0.30,
		Transient:     1,
		OOMRate:       0.20,
		DelayRate:     0.15,
		Delay:         200 * time.Microsecond,
		FetchFailRate: 0.25,
		FetchFails:    1,
		MaxRecord:     6,
	}
}

// RecoveryChaos returns an injector aimed at the durable-recovery paths:
// replica loss (all copies, forcing lineage re-execution), reduce-task
// kills resuming from checkpoints, and checkpoint corruption — plus a
// light dose of fetch faults so replication and retries interleave. All
// budgets are one-shot, so a correct runtime completes the job within
// the default retry policy.
func RecoveryChaos(seed int64) *Injector {
	return &Injector{
		Seed:                  seed,
		ReplicaLossRate:       0.7,
		ReplicaLosses:         99, // more than any sane replication factor: every copy dies
		KillRate:              0.5,
		CheckpointCorruptRate: 0.4,
		FetchFailRate:         0.2,
		FetchFails:            1,
		MaxRecord:             10,
	}
}

// roll returns a deterministic uniform value in [0,1) for (task, kind).
func (inj *Injector) roll(task, kind string) float64 {
	return float64(inj.hash(task, kind)>>11) / float64(1<<53)
}

func (inj *Injector) hash(task, kind string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(uint64(inj.Seed) >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(task))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	return h.Sum64()
}

// record picks the seed-derived record index in [1,MaxRecord] for a
// record-targeted fault.
func (inj *Injector) record(task, kind string) int64 {
	maxRec := inj.MaxRecord
	if maxRec <= 0 {
		maxRec = 8
	}
	return 1 + int64(inj.hash(task, kind+"-rec")%uint64(maxRec))
}

// ForTask returns the plan for the named task, or nil when the injector
// selects no faults for it (or the injector itself is nil).
func (inj *Injector) ForTask(task string) *Plan {
	if inj == nil {
		return nil
	}
	p := &Plan{}
	if inj.roll(task, "panic") < inj.PanicRate {
		p.PanicAtRecord = inj.record(task, "panic")
	}
	if inj.roll(task, "wild") < inj.WildReadRate {
		p.WildReadAtRecord = inj.record(task, "wild")
	}
	if inj.roll(task, "transient") < inj.TransientRate {
		p.TransientFailures = inj.Transient
		if p.TransientFailures <= 0 {
			p.TransientFailures = 1
		}
	}
	if inj.roll(task, "oom") < inj.OOMRate {
		p.OOMFailures = 1
	}
	if inj.roll(task, "flip") < inj.FlipRate {
		p.FlipInputBit = true
	}
	if inj.Delay > 0 && inj.roll(task, "delay") < inj.DelayRate {
		p.Delay = inj.Delay
	}
	if inj.NativeDelay > 0 && inj.roll(task, "native-delay") < inj.NativeDelayRate {
		p.NativeDelay = inj.NativeDelay
	}
	if inj.roll(task, "fetch") < inj.FetchFailRate {
		p.FetchFailures = inj.FetchFails
		if p.FetchFailures <= 0 {
			p.FetchFailures = 1
		}
	}
	if inj.roll(task, "replica-loss") < inj.ReplicaLossRate {
		p.LoseBlockReplicas = inj.ReplicaLosses
		if p.LoseBlockReplicas <= 0 {
			p.LoseBlockReplicas = 1
		}
	}
	if inj.roll(task, "kill") < inj.KillRate {
		p.KillReduceAtRecord = inj.record(task, "kill")
		if inj.roll(task, "ckpt-corrupt") < inj.CheckpointCorruptRate {
			p.CheckpointCorrupt = true
		}
	}
	if p.Empty() {
		return nil
	}
	return p
}
