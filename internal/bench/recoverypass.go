package bench

import (
	"bytes"
	"fmt"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/trace"
)

// recoveryVariant is one injected-loss configuration of the durability
// layer the pass compares against the fault-free reference.
type recoveryVariant struct {
	name   string
	mutate func(*Config)
}

// recoveryVariants covers the loss matrix: a replicated exchange losing
// one copy per reducer (failover), losing every copy (lineage
// re-execution), reduce-side task kills resuming from per-invocation
// checkpoints, and kills that also corrupt the last checkpoint (detect,
// discard, restart).
var recoveryVariants = []recoveryVariant{
	{name: "replica-failover", mutate: func(c *Config) {
		c.Shuffle.Replicas = 2
		c.Injector = &faults.Injector{Seed: 101, ReplicaLossRate: 1, ReplicaLosses: 1}
	}},
	{name: "replica-loss-reexec", mutate: func(c *Config) {
		c.Shuffle.Replicas = 2
		c.Injector = &faults.Injector{Seed: 102, ReplicaLossRate: 1, ReplicaLosses: 99}
	}},
	{name: "reduce-kill", mutate: func(c *Config) {
		c.CheckpointEvery = 1
		c.Injector = &faults.Injector{Seed: 103, KillRate: 1, MaxRecord: 6}
	}},
	{name: "kill+ckpt-corrupt", mutate: func(c *Config) {
		c.CheckpointEvery = 1
		c.Injector = &faults.Injector{Seed: 104, KillRate: 1, CheckpointCorruptRate: 1, MaxRecord: 6}
	}},
}

// RecoveryCheck proves the durability layer's end-to-end contract across
// every Table 1 and Table 2 app in both executor modes: under injected
// replica loss, reduce-task kills, and checkpoint corruption, every app
// produces byte-identical output to its fault-free run; full replica
// loss is repaired by lineage re-execution (recovery_reexec_total > 0);
// and kills resume from checkpoints while corrupt checkpoints are
// detected and discarded.
func RecoveryCheck(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("RecoveryCheck", "replica loss, reduce kills, checkpoint corruption vs fault-free",
		"app", "mode", "reexecs", "failovers", "resumes", "corrupt", "outcome")

	apps := allApps()
	allEqual := true
	var reexecs, failovers, resumes, corrupts int64
	for _, app := range apps {
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			base := cfg
			base.Trace = nil
			base.Injector = nil
			base.Shuffle.Replicas = 0
			base.CheckpointEvery = 0
			ref, err := RunApp(app, base, mode)
			if err != nil {
				return nil, fmt.Errorf("recovery-check %s/%v: fault-free: %w", app, mode, err)
			}
			var appReexecs, appFailovers, appResumes, appCorrupts int64
			outcome := "ok"
			for _, v := range recoveryVariants {
				run := base
				tr := trace.New()
				run.Trace = tr
				v.mutate(&run)
				out, err := RunApp(app, run, mode)
				if err != nil {
					return nil, fmt.Errorf("recovery-check %s/%v/%s: %w", app, mode, v.name, err)
				}
				if !bytes.Equal(out.Out, ref.Out) {
					allEqual = false
					outcome = fmt.Sprintf("DIVERGED (%s)", v.name)
				}
				reg := tr.Registry()
				appReexecs += reg.Counter("recovery_reexec_total").Value()
				appFailovers += reg.Counter("recovery_replica_failover_total").Value()
				appResumes += reg.Counter("recovery_checkpoint_resumes_total").Value()
				appCorrupts += reg.Counter("recovery_checkpoint_corrupt_total").Value()
			}
			reexecs += appReexecs
			failovers += appFailovers
			resumes += appResumes
			corrupts += appCorrupts
			r.Table.AddRow(app, mode.String(), fmt.Sprint(appReexecs), fmt.Sprint(appFailovers),
				fmt.Sprint(appResumes), fmt.Sprint(appCorrupts), outcome)
		}
	}
	r.Checks["equal"] = b2f(allEqual)
	r.Checks["reexecs"] = float64(reexecs)
	r.Checks["resumes"] = float64(resumes)
	r.Checks["corrupt_detected"] = float64(corrupts)
	if !allEqual {
		return r, fmt.Errorf("recovery-check: output under injected loss diverged from fault-free run")
	}
	if reexecs == 0 {
		return r, fmt.Errorf("recovery-check: full replica loss never triggered a lineage re-execution")
	}
	if resumes == 0 {
		return r, fmt.Errorf("recovery-check: no killed task ever resumed from a checkpoint")
	}
	if corrupts == 0 {
		return r, fmt.Errorf("recovery-check: checkpoint corruption was never detected")
	}
	r.Notes = append(r.Notes,
		"every app recovered byte-identically from replica loss, reduce kills, and checkpoint corruption",
		"full replica loss was repaired by lineage re-execution",
		fmt.Sprintf("%d lineage re-executions, %d checkpoint resumes, %d corrupt checkpoints detected",
			reexecs, resumes, corrupts))
	return r, nil
}
