package bench

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/apps/hadoopapps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/heap"
)

// AppMemoryEstimate returns the working-set estimate (in bytes) the
// cluster service reserves against a tenant's quota when one of the
// named apps is submitted: the simulated per-task heap times the
// worker-pool size. It is intentionally coarse — admission control
// needs a consistent ask, not an exact footprint.
func AppMemoryEstimate(app string, cfg Config) int64 {
	cfg = cfg.withDefaults()
	var hc heap.Config
	if slices.Contains(SparkAppNames, app) {
		hc = appHeap(cfg)
	} else {
		_, hc = hadoopHeaps(cfg.Scale) // the reduce heap, the larger of the two
	}
	return int64(hc.YoungSize+hc.OldSize) * int64(cfg.Workers)
}

// allApps lists every app RunApp runs: Table 1, then Table 2.
func allApps() []string { return append(slices.Clone(SparkAppNames), hadoopapps.AllApps...) }

// ClusterJob adapts one named application (Spark or Hadoop) to a
// cluster.JobSpec: when the service dispatches the job, the job's
// tenant/job identity and scoped shared-state views flow from the
// JobContext into the run Config, and the job's canonical output bytes
// come back through the handle — so byte-equality against a standalone
// RunApp is directly assertable.
func ClusterJob(app string, cfg Config, mode engine.Mode) (cluster.JobSpec, error) {
	if !slices.Contains(allApps(), app) {
		return cluster.JobSpec{}, fmt.Errorf("bench: unknown app %q", app)
	}
	cfg = cfg.withDefaults()
	return cluster.JobSpec{
		Name:        fmt.Sprintf("%s/%s", app, mode),
		MemoryBytes: AppMemoryEstimate(app, cfg),
		Run: func(jc *cluster.JobContext) ([]byte, error) {
			run := cfg
			run.Identity = jc.Identity
			if run.Trace == nil {
				run.Trace = jc.Trace
			}
			res, err := RunApp(app, run, mode)
			if errors.Is(err, engine.ErrCanceled) {
				// The driver observed the cancel signal at a stage boundary
				// and stopped; report it as the service's canceled outcome,
				// not a job failure.
				return res.Out, cluster.ErrCanceled
			}
			return res.Out, err
		},
	}, nil
}
