// Package cluster is the long-lived multi-tenant job service: many
// tenants submit jobs concurrently into one process, which runs them
// over a bounded worker pool while keeping their shared-state footprints
// — breakers, checkpoints, lineage, metrics — isolated per tenant and
// per job.
//
// The paper's thin-computation claim only matters at scale if many jobs
// can share one process's arenas, breakers and shuffle stores without
// corrupting each other. This package supplies the sharing discipline:
//
//   - Admission control. Each tenant has a FIFO queue bounded by a
//     queue depth and a memory quota; a submission that would exceed
//     either is rejected immediately with a typed *AdmissionError
//     (errors.Is-matchable against ErrAdmissionRejected), so callers get
//     backpressure instead of unbounded queue growth.
//   - Weighted fair-share scheduling. Workers drain the tenant queues
//     by smallest virtual time (start-time fair queuing): dispatching a
//     job advances its tenant's virtual clock by 1/weight, so a tenant
//     with weight 2 gets twice the dispatch slots of a weight-1 tenant
//     under saturation, and a newly active tenant joins at the current
//     clock rather than starving the backlog or being starved by it.
//   - Scoped shared state. Every job gets a tenant-scoped breaker view
//     (engine.Breaker.Scoped) and job-scoped checkpoint/lineage views
//     (recovery.Scope), so one tenant's fault-injected aborts cannot
//     de-speculate another tenant's drivers and two jobs registering
//     same-named exchanges cannot serve each other's bytes.
//   - Per-tenant attribution. Submission, completion, rejection and
//     cancellation counters, queue/quota gauges, and job-latency
//     histograms are emitted per tenant into the trace registry
//     (cluster_*{tenant="…"}), and Status() snapshots the live
//     per-tenant view for /statusz.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/recovery"
	"repro/internal/trace"
)

// ErrAdmissionRejected is the sentinel every admission failure matches
// via errors.Is — the service's backpressure signal.
var ErrAdmissionRejected = errors.New("cluster: admission rejected")

// ErrClosed reports a submission to a service that is draining or
// stopped.
var ErrClosed = errors.New("cluster: service closed")

// ErrCanceled reports a job canceled before completion. Await returns
// it for jobs canceled while queued; a running job's Run may also
// return it after observing JobContext.Canceled.
var ErrCanceled = errors.New("cluster: job canceled")

// AdmissionError is the typed rejection a Submit that exceeds a
// tenant's queue depth or memory quota returns.
type AdmissionError struct {
	Tenant string
	// Reason is "queue-depth" or "memory-quota".
	Reason string
	// QueueDepth is the tenant's queued-job count at rejection time;
	// QueueLimit the configured cap.
	QueueDepth, QueueLimit int
	// NeedBytes is the rejected job's memory ask, ReservedBytes the
	// tenant's outstanding reservations, QuotaBytes the cap.
	NeedBytes, ReservedBytes, QuotaBytes int64
}

func (e *AdmissionError) Error() string {
	if e.Reason == "memory-quota" {
		return fmt.Sprintf("cluster: admission rejected for tenant %s: memory quota (%d reserved + %d asked > %d quota)",
			e.Tenant, e.ReservedBytes, e.NeedBytes, e.QuotaBytes)
	}
	return fmt.Sprintf("cluster: admission rejected for tenant %s: queue depth (%d queued, limit %d)",
		e.Tenant, e.QueueDepth, e.QueueLimit)
}

// Is matches the ErrAdmissionRejected sentinel.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmissionRejected }

// State is a job's lifecycle position.
type State int

// Job states.
const (
	Queued State = iota
	Running
	Succeeded
	Failed
	Canceled
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// JobSpec describes one submission.
type JobSpec struct {
	// Name labels the job in traces and IDs ("PR/gerenuk"); it need not
	// be unique — the service mints a unique JobID per submission.
	Name string
	// MemoryBytes is the job's working-set estimate, reserved against
	// the tenant's quota from admission until completion. 0 asks for
	// nothing (always admitted quota-wise).
	MemoryBytes int64
	// Run executes the job. It receives the job's scoped views of the
	// service's shared state and must return the job's output bytes.
	// Panics are contained and fail the job, not the service.
	Run func(jc *JobContext) ([]byte, error)
}

// JobContext is what a running job sees of the service: its identity
// — tenant, job ID, the tenant-scoped breaker view (this tenant's aborts
// trip only this tenant's entries), job-scoped checkpoint and lineage
// views, and the cancel channel closed when the job is canceled while
// running — plus the service tracer. Assign Identity to the job's run
// environment whole (the bench.ClusterJob adapter does exactly that).
type JobContext struct {
	job.Identity
	Trace *trace.Tracer
}

// TenantConfig overrides the service defaults for one tenant.
type TenantConfig struct {
	// Weight is the fair-share weight (dispatch slots relative to other
	// tenants); <= 0 means the default 1.
	Weight int
	// QuotaBytes caps the tenant's outstanding MemoryBytes reservations;
	// < 0 means unlimited, 0 means the service default.
	QuotaBytes int64
	// QueueDepth caps the tenant's queued (not yet running) jobs;
	// <= 0 means the service default.
	QueueDepth int
}

// Config configures the service.
type Config struct {
	// Workers is the bounded worker-pool size (default 4).
	Workers int
	// QueueDepth is the default per-tenant queued-job cap (default 64).
	QueueDepth int
	// QuotaBytes is the default per-tenant memory quota; 0 = unlimited.
	QuotaBytes int64
	// Breaker, when set, is the service-wide breaker; every tenant gets
	// a Scoped view of it, so de-speculation state is per (tenant,
	// driver). nil disables adaptive de-speculation.
	Breaker *engine.Breaker
	// Trace receives cluster spans/instants and the per-tenant metric
	// series; nil disables both (the usual nil-tracer contract).
	Trace *trace.Tracer
	// Checkpoints, when set, is the checkpoint store the service scopes
	// per job instead of constructing its own — the injection point for
	// a disk-backed store (gerenukd -checkpoint-dir), so a restarted
	// daemon resumes checkpointed fold state.
	Checkpoints *recovery.CheckpointStore
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Job is the handle a Submit returns: await the outcome, cancel, or
// poll the state.
type Job struct {
	// ID is tenant/name.N: no URL metacharacter, so a query takes it raw.
	ID     string
	Tenant string
	Name   string

	svc  *Service
	t    *tenantState
	spec JobSpec

	// Guarded by svc.mu.
	state     State
	err       error
	out       []byte
	submitted time.Time
	started   time.Time
	latency   time.Duration // submit → finish, set on completion

	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{}
}

// tenantState is one tenant's queues and accounting. Guarded by the
// service lock.
type tenantState struct {
	name       string
	weight     int
	quota      int64 // 0 = unlimited
	queueDepth int

	queue    []*Job
	reserved int64   // outstanding MemoryBytes reservations (queued + running)
	vtime    float64 // virtual finish time for weighted fair share
	running  int

	done, failed, canceled, rejected int64

	breaker *engine.Breaker  // tenant-scoped view of the service breaker
	latency *trace.Histogram // cluster_job_latency_ns{tenant}
	queueNs *trace.Histogram // cluster_job_queue_ns{tenant}
}

// Service is the job service. Construct with New; stop with Close.
type Service struct {
	cfg Config

	checkpoints *recovery.CheckpointStore
	lineage     *recovery.Lineage

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantState
	seq      int64
	vclock   float64 // virtual time of the most recent dispatch
	inflight int     // queued + running jobs
	closing  bool    // no new submissions; drain what is queued
	stopped  bool    // workers exit

	wg sync.WaitGroup
}

// New starts a service with cfg.Workers workers. The service owns one
// checkpoint store and one lineage registry; every job runs against
// job-scoped views of them.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ckpts := cfg.Checkpoints
	if ckpts == nil {
		ckpts = recovery.NewCheckpointStore()
	}
	s := &Service{
		cfg:         cfg,
		checkpoints: ckpts,
		lineage:     recovery.NewLineage(),
		tenants:     make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	// Wire the breaker's tracer up front so no job's stage ever races to
	// set it.
	cfg.Breaker.EnsureTrace(cfg.Trace)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ConfigureTenant sets one tenant's weight, quota and queue depth.
// Tenants not configured get the service defaults on first submission.
func (s *Service) ConfigureTenant(name string, tc TenantConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(name)
	if tc.Weight > 0 {
		t.weight = tc.Weight
	}
	if tc.QuotaBytes < 0 {
		t.quota = 0
	} else if tc.QuotaBytes > 0 {
		t.quota = tc.QuotaBytes
	}
	if tc.QueueDepth > 0 {
		t.queueDepth = tc.QueueDepth
	}
	s.publishGaugesLocked(t)
}

// TenantBreaker returns the tenant's scoped breaker view (nil when the
// service has no breaker) — the isolation tests assert on it directly.
func (s *Service) TenantBreaker(name string) *engine.Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantLocked(name).breaker
}

func (s *Service) tenantLocked(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{
			name:       name,
			weight:     1,
			quota:      s.cfg.QuotaBytes,
			queueDepth: s.cfg.QueueDepth,
			breaker:    s.cfg.Breaker.Scoped(name),
		}
		reg := s.cfg.Trace.Registry()
		t.latency = reg.Histogram(trace.Name("cluster_job_latency_ns", "tenant", name),
			trace.LatencyBuckets()...)
		t.queueNs = reg.Histogram(trace.Name("cluster_job_queue_ns", "tenant", name),
			trace.LatencyBuckets()...)
		s.tenants[name] = t
	}
	return t
}

func (s *Service) counter(name, tenant string) *trace.Counter {
	return s.cfg.Trace.Registry().Counter(trace.Name(name, "tenant", tenant))
}

// publishGaugesLocked refreshes the tenant's queue/quota gauges.
func (s *Service) publishGaugesLocked(t *tenantState) {
	reg := s.cfg.Trace.Registry()
	if reg == nil {
		return
	}
	reg.Gauge(trace.Name("cluster_queue_depth", "tenant", t.name)).Set(float64(len(t.queue)))
	reg.Gauge(trace.Name("cluster_running", "tenant", t.name)).Set(float64(t.running))
	reg.Gauge(trace.Name("cluster_reserved_bytes", "tenant", t.name)).Set(float64(t.reserved))
	reg.Gauge(trace.Name("cluster_quota_bytes", "tenant", t.name)).Set(float64(t.quota))
}

// Submit enqueues one job for the tenant, enforcing queue-depth and
// memory-quota admission. The returned handle awaits, cancels or polls
// the job; a rejected submission returns a *AdmissionError (matching
// ErrAdmissionRejected) and no handle.
func (s *Service) Submit(tenant string, spec JobSpec) (*Job, error) {
	if spec.Run == nil {
		return nil, errors.New("cluster: JobSpec.Run must be set")
	}
	if spec.Name == "" {
		spec.Name = "job"
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	t := s.tenantLocked(tenant)
	if len(t.queue) >= t.queueDepth {
		rej := &AdmissionError{Tenant: tenant, Reason: "queue-depth",
			QueueDepth: len(t.queue), QueueLimit: t.queueDepth}
		t.rejected++
		s.mu.Unlock()
		s.rejected(tenant, spec.Name, rej)
		return nil, rej
	}
	if t.quota > 0 && spec.MemoryBytes > 0 && t.reserved+spec.MemoryBytes > t.quota {
		rej := &AdmissionError{Tenant: tenant, Reason: "memory-quota",
			NeedBytes: spec.MemoryBytes, ReservedBytes: t.reserved, QuotaBytes: t.quota}
		t.rejected++
		s.mu.Unlock()
		s.rejected(tenant, spec.Name, rej)
		return nil, rej
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("%s/%s.%d", tenant, spec.Name, s.seq),
		Tenant:    tenant,
		Name:      spec.Name,
		svc:       s,
		t:         t,
		spec:      spec,
		state:     Queued,
		submitted: time.Now(),
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	if len(t.queue) == 0 && t.running == 0 && t.vtime < s.vclock {
		// A tenant going from idle to active joins at the current
		// virtual clock: it neither redeems credit accumulated while
		// idle (which would starve the backlog) nor starts in the past.
		t.vtime = s.vclock
	}
	t.queue = append(t.queue, j)
	t.reserved += spec.MemoryBytes
	s.inflight++
	s.publishGaugesLocked(t)
	s.mu.Unlock()

	s.counter("cluster_jobs_submitted_total", tenant).Add(1)
	s.cfg.Trace.Instant("cluster", "job-submit",
		trace.Str("tenant", tenant), trace.Str("job", j.ID),
		trace.I64("memory_bytes", spec.MemoryBytes))
	s.cond.Signal()
	return j, nil
}

func (s *Service) rejected(tenant, name string, rej *AdmissionError) {
	s.counter("cluster_jobs_rejected_total", tenant).Add(1)
	s.cfg.Trace.Instant("cluster", "job-reject",
		trace.Str("tenant", tenant), trace.Str("job", name),
		trace.Str("reason", rej.Reason))
}

// pickLocked returns the tenant with work queued and the smallest
// virtual time (ties broken by name, for determinism), or nil.
func (s *Service) pickLocked() *tenantState {
	var best *tenantState
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.vtime < best.vtime ||
			(t.vtime == best.vtime && t.name < best.name) {
			best = t
		}
	}
	return best
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var t *tenantState
		for {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			t = s.pickLocked()
			if t != nil {
				break
			}
			s.cond.Wait()
		}
		j := t.queue[0]
		t.queue = t.queue[1:]
		j.state = Running
		j.started = time.Now()
		t.running++
		// Start-time fair queuing: the dispatch advances the tenant's
		// virtual time by the job's cost over its weight (all jobs cost
		// 1 slot), and the global clock follows the dispatched tenant.
		s.vclock = t.vtime
		t.vtime += 1 / float64(t.weight)
		s.publishGaugesLocked(t)
		s.mu.Unlock()

		s.runJob(j, t)
	}
}

// runJob executes one dispatched job and folds the outcome back into
// the tenant's accounting.
func (s *Service) runJob(j *Job, t *tenantState) {
	span := s.cfg.Trace.StartSpan("cluster", j.ID,
		trace.Str("tenant", j.Tenant), trace.Str("job", j.Name))
	queued := j.started.Sub(j.submitted)
	t.queueNs.Observe(float64(queued))

	jc := &JobContext{Trace: s.cfg.Trace, Identity: job.Identity{
		Tenant:      j.Tenant,
		JobID:       j.ID,
		Breaker:     t.breaker,
		Checkpoints: s.checkpoints.Scope(j.ID),
		Lineage:     s.lineage.Scope(j.ID),
		Canceled:    j.cancel,
	}}
	out, err := func() (out []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				out, err = nil, fmt.Errorf("cluster: job %s panicked: %v", j.ID, r)
			}
		}()
		return j.spec.Run(jc)
	}()

	s.mu.Lock()
	t.running--
	t.reserved -= j.spec.MemoryBytes
	s.inflight--
	j.out, j.err = out, err
	j.latency = time.Since(j.submitted)
	var outcome string
	switch {
	case err == nil:
		j.state = Succeeded
		t.done++
		outcome = "ok"
	case errors.Is(err, ErrCanceled):
		j.state = Canceled
		t.canceled++
		outcome = "canceled"
	default:
		j.state = Failed
		t.failed++
		outcome = "error"
	}
	t.latency.Observe(float64(j.latency))
	s.publishGaugesLocked(t)
	s.mu.Unlock()

	switch outcome {
	case "ok":
		s.counter("cluster_jobs_done_total", j.Tenant).Add(1)
	case "canceled":
		s.counter("cluster_jobs_canceled_total", j.Tenant).Add(1)
	default:
		s.counter("cluster_jobs_failed_total", j.Tenant).Add(1)
	}
	span.End(trace.Str("outcome", outcome),
		trace.I64("queue_ns", int64(queued)), trace.I64("latency_ns", int64(j.latency)))
	close(j.done)
	// Wake anything waiting for drain (Close) or for a free worker.
	s.cond.Broadcast()
}

// Await blocks until the job finishes (or was canceled) and returns its
// output and error. Canceled-while-queued jobs return ErrCanceled.
func (j *Job) Await() ([]byte, error) {
	<-j.done
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	return j.out, j.err
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	return j.state
}

// Cancel cancels the job. A queued job is removed immediately (its
// quota reservation released, Await returns ErrCanceled) and Cancel
// reports true. A running job only gets its JobContext.Canceled channel
// closed — cancellation mid-run is cooperative — and Cancel reports
// false, as it does for already-finished jobs.
func (j *Job) Cancel() bool {
	s := j.svc
	s.mu.Lock()
	if j.state != Queued {
		s.mu.Unlock()
		// Cooperative signal for a running job; harmless otherwise.
		j.cancelOnce.Do(func() { close(j.cancel) })
		return false
	}
	t := j.t
	for i, q := range t.queue {
		if q == j {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	j.state = Canceled
	j.err = ErrCanceled
	j.latency = time.Since(j.submitted)
	t.canceled++
	t.reserved -= j.spec.MemoryBytes
	s.inflight--
	s.publishGaugesLocked(t)
	s.mu.Unlock()

	j.cancelOnce.Do(func() { close(j.cancel) })
	s.counter("cluster_jobs_canceled_total", j.Tenant).Add(1)
	s.cfg.Trace.Instant("cluster", "job-cancel",
		trace.Str("tenant", j.Tenant), trace.Str("job", j.ID))
	close(j.done)
	s.cond.Broadcast()
	return true
}

// Close drains the service: new submissions are rejected with
// ErrClosed, queued and running jobs finish, then the workers exit.
func (s *Service) Close() {
	s.mu.Lock()
	s.closing = true
	for s.inflight > 0 {
		s.cond.Wait()
	}
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// TenantStatus is one tenant's live view for /statusz.
type TenantStatus struct {
	Tenant        string  `json:"tenant"`
	Weight        int     `json:"weight"`
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	Done          int64   `json:"done"`
	Failed        int64   `json:"failed"`
	Canceled      int64   `json:"canceled"`
	Rejected      int64   `json:"rejected"`
	QuotaBytes    int64   `json:"quota_bytes"`
	ReservedBytes int64   `json:"reserved_bytes"`
	P50LatencyNs  float64 `json:"p50_job_latency_ns"`
	P99LatencyNs  float64 `json:"p99_job_latency_ns"`
}

// Status snapshots every tenant's queue, quota and latency view, sorted
// by tenant name. Mount it on the obs server:
//
//	server.AddStatus("cluster", func() any { return svc.Status() })
func (s *Service) Status() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, t := range s.tenants {
		st := TenantStatus{
			Tenant: t.name, Weight: t.weight,
			Queued: len(t.queue), Running: t.running,
			Done: t.done, Failed: t.failed,
			Canceled: t.canceled, Rejected: t.rejected,
			QuotaBytes: t.quota, ReservedBytes: t.reserved,
		}
		st.P50LatencyNs, _ = t.latency.Quantile(0.5)
		st.P99LatencyNs, _ = t.latency.Quantile(0.99)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
