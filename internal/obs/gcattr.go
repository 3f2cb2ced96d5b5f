package obs

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// GCAttributor charges real Go GC pauses to the job that was running
// when they happened — the live counterpart of the paper's Figure 6/7
// cost decomposition. It reads the runtime's cumulative
// /gc/pauses:seconds histogram at construction and after every stage;
// the count delta between reads is the set of pauses that landed inside
// that stage, and each one is observed (at its bucket-midpoint estimate)
// into a per-(job,mode) gc_pause_ns histogram in the tracer's registry.
//
// Attribution is interval-based, so it is exact only while one stage
// runs at a time — which is how the bench harness drives jobs. When
// stages of different jobs overlap, a pause is charged to whichever
// stage ends first; the total across jobs is still conserved.
//
// Small runs may complete without a single natural GC cycle, which would
// leave the per-job series empty and downstream dashboards blind. The
// first time a (job,mode) pair ends a stage with zero observed pauses
// the attributor forces one runtime.GC() and re-reads, so every traced
// job carries at least one attributed pause.
//
// A nil *GCAttributor is the disabled attributor; StageEndTenant is a
// no-op returning 0.
type GCAttributor struct {
	mu     sync.Mutex
	tr     *trace.Tracer
	last   []uint64 // cumulative bucket counts at the previous read
	forced map[string]bool
}

// NewGCAttributor builds an attributor bound to tr's registry and primes
// the pause-histogram baseline so pre-existing pauses are never charged
// to the first stage.
func NewGCAttributor(tr *trace.Tracer) *GCAttributor {
	a := &GCAttributor{tr: tr, forced: make(map[string]bool)}
	if s := ReadRuntime(); s.Pauses != nil {
		a.last = append([]uint64(nil), s.Pauses.Counts...)
	}
	return a
}

// StageEndTenant charges every GC pause since the previous read to
// (tenant, job, mode) and returns their total; call it at each stage
// boundary. A tenant labels the series (gc_pause_ns{tenant,job,mode}):
// whose jobs eat the pause budget. "" keeps gc_pause_ns{job,mode}.
func (a *GCAttributor) StageEndTenant(tenant, job, mode, stage string) time.Duration {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	total := a.attribute(tenant, job, mode, stage)
	if total == 0 {
		key := tenant + "\x00" + job + "\x00" + mode
		if !a.forced[key] {
			a.forced[key] = true
			runtime.GC()
			total = a.attribute(tenant, job, mode, stage)
		}
	}
	return total
}

// StageHook returns the stage hook (bench.Config.StageHook) that charges
// each stage's pauses to tenant's (app, mode) and folds the charge into
// the stage's breakdown, whence it reaches the job totals.
func (a *GCAttributor) StageHook(tenant string) func(app string, mode engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration) {
	return func(app string, mode engine.Mode, stage string, stats *metrics.Breakdown, _ time.Duration) {
		stats.GCAttributed += a.StageEndTenant(tenant, app, mode.String(), stage)
	}
}

// attribute performs one read-diff-observe cycle under the lock.
func (a *GCAttributor) attribute(tenant, job, mode, stage string) time.Duration {
	s := ReadRuntime()
	if s.Pauses == nil {
		return 0
	}
	cur := s.Pauses.Counts
	var totalNs float64
	var pauses int64
	reg := a.tr.Registry()
	name := trace.Name("gc_pause_ns", "job", job, "mode", mode)
	if tenant != "" {
		name = trace.Name("gc_pause_ns", "tenant", tenant, "job", job, "mode", mode)
	}
	hist := reg.Histogram(name, trace.LatencyBuckets()...)
	for i, c := range cur {
		var prev uint64
		if i < len(a.last) {
			prev = a.last[i]
		}
		if c <= prev {
			continue
		}
		ns := bucketValueNs(s.Pauses, i)
		for n := uint64(0); n < c-prev; n++ {
			hist.Observe(ns)
			totalNs += ns
			pauses++
		}
	}
	a.last = append(a.last[:0], cur...)
	if pauses == 0 {
		return 0
	}
	reg.Counter("gc_pauses_attributed_total").Add(pauses)
	a.tr.Instant("gc", "gc-attributed",
		trace.Str("tenant", tenant), trace.Str("job", job),
		trace.Str("mode", mode), trace.Str("stage", stage),
		trace.I64("pauses", pauses), trace.F64("pause_ns", totalNs))
	return time.Duration(totalNs)
}
