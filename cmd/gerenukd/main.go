// Command gerenukd is the multi-tenant job service: one long-lived
// process accepting concurrent job submissions from many tenants over
// HTTP, running them through the shared speculative-execution engine
// under admission control and weighted fair-share scheduling, and
// exposing the per-tenant live view on the same address as the
// observability plane.
//
// Usage:
//
//	gerenukd -addr 127.0.0.1:9478 [-workers 4] [-queue-depth 64]
//	         [-quota N] [-scale N] [-job-workers N] [-partitions N]
//	         [-iters N] [-heap 10GB] [-engine compiled|interp]
//	         [-breaker-threshold N]
//	         [-checkpoint-dir dir] [-trace out.json] [-metrics-json out.json]
//
// -checkpoint-dir persists job checkpoints (atomic write, checksummed
// on load) so a restarted service resumes tasks instead of recomputing
// them; without it checkpoints live in process memory only.
//
// Endpoints (on top of the obs plane's /metrics /healthz /statusz
// /flamez /debug/pprof):
//
//	POST /submit?tenant=T&app=PR&mode=gerenuk[&chaos=SEED][&wait=1]
//	    Submit one job. With wait=1 the response blocks until the job
//	    finishes and carries its output digest; otherwise it returns the
//	    job ID immediately. chaos=SEED arms the deterministic fault
//	    injector for just this job (output must stay byte-identical).
//	    Rejections (queue depth, memory quota) return 429 with the
//	    admission reason.
//	POST /tenant?name=T[&weight=W][&quota=N][&depth=D]
//	    Configure a tenant's fair-share weight, memory quota and queue
//	    depth before (or between) submissions.
//	GET  /await?id=JOBID     Block until the job finishes; returns state
//	    plus a sha256 of the output bytes, so callers can assert
//	    byte-equality across modes and tenants without shipping outputs.
//	GET  /jobs               List all jobs and their states.
//	POST /cancel?id=JOBID    Cancel a queued (or cooperatively, running) job.
//	POST /quitz              Drain the service and exit.
//
// The per-tenant view: /statusz carries a "cluster" source with each
// tenant's queued/running/done counts, quota usage and p50/p99 job
// latency; /metrics carries cluster_jobs_*_total{tenant},
// cluster_job_latency_ns{tenant}, task_latency_ns{tenant} and
// gc_pause_ns{tenant,job,mode} series.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/obs"
)

// daemon binds the HTTP handlers to the cluster service and the run
// configuration template.
type daemon struct {
	svc    *cluster.Service
	base   bench.Config
	gcAttr *obs.GCAttributor

	mu   sync.Mutex
	jobs map[string]*cluster.Job

	quit     chan struct{}
	quitOnce sync.Once
}

// jobJSON is the wire form of one job's state.
type jobJSON struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Name      string `json:"name"`
	State     string `json:"state"`
	OutputSHA string `json:"output_sha256,omitempty"`
	OutputLen int    `json:"output_len,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (d *daemon) jobView(j *cluster.Job, withOutput bool) jobJSON {
	v := jobJSON{ID: j.ID, Tenant: j.Tenant, Name: j.Name, State: j.State().String()}
	if withOutput {
		out, err := j.Await()
		v.State = j.State().String()
		if err != nil {
			v.Error = err.Error()
		} else {
			v.OutputSHA = fmt.Sprintf("%x", sha256.Sum256(out))
			v.OutputLen = len(out)
		}
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// intParams parses the named query parameters as base-10 integers; an
// absent one reads as 0. The error names the first malformed parameter.
func intParams(q url.Values, names ...string) ([]int64, error) {
	vals := make([]int64, len(names))
	for i, name := range names {
		s := q.Get(name)
		if s == "" {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %s=%q is not an integer", name, s)
		}
		vals[i] = v
	}
	return vals, nil
}

func (d *daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant, app := q.Get("tenant"), q.Get("app")
	if tenant == "" || app == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "tenant and app are required"})
		return
	}
	nums, err := intParams(q, "chaos", "memory")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	seed, mem := nums[0], nums[1]
	mode := engine.Gerenuk
	if m := q.Get("mode"); m != "" {
		switch m {
		case "gerenuk":
			mode = engine.Gerenuk
		case "baseline":
			mode = engine.Baseline
		default:
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "mode must be gerenuk or baseline"})
			return
		}
	}

	cfg := d.base
	if seed != 0 {
		// Deterministic fault plan for just this submission — the chaos
		// tenant's outputs must stay byte-identical to its calm runs.
		cfg.Injector = faults.Chaos(seed)
	}
	if d.gcAttr != nil {
		// Charge real GC pauses at every stage boundary to this
		// submission's tenant, so /metrics answers "whose jobs are eating
		// the pause budget".
		cfg.StageHook = d.gcAttr.StageHook(tenant)
	}
	spec, err := bench.ClusterJob(app, cfg, mode)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if mem > 0 {
		spec.MemoryBytes = mem
	}

	j, err := d.svc.Submit(tenant, spec)
	if err != nil {
		var rej *cluster.AdmissionError
		switch {
		case errors.As(err, &rej):
			writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error": err.Error(), "reason": rej.Reason, "tenant": rej.Tenant})
		case errors.Is(err, cluster.ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		}
		return
	}
	d.mu.Lock()
	d.jobs[j.ID] = j
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, d.jobView(j, q.Get("wait") == "1"))
}

func (d *daemon) lookup(w http.ResponseWriter, r *http.Request) *cluster.Job {
	id := r.URL.Query().Get("id")
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job id " + id})
	}
	return j
}

func (d *daemon) handleAwait(w http.ResponseWriter, r *http.Request) {
	if j := d.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, d.jobView(j, true))
	}
}

func (d *daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := d.lookup(w, r); j != nil {
		dequeued := j.Cancel()
		writeJSON(w, http.StatusOK, map[string]any{
			"id": j.ID, "dequeued": dequeued, "state": j.State().String()})
	}
}

func (d *daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	views := make([]jobJSON, 0, len(d.jobs))
	for _, j := range d.jobs {
		views = append(views, d.jobView(j, false))
	}
	d.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, views)
}

func (d *daemon) handleTenant(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "name is required"})
		return
	}
	nums, err := intParams(q, "weight", "quota", "depth")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	d.svc.ConfigureTenant(name, cluster.TenantConfig{
		Weight: int(nums[0]), QuotaBytes: nums[1], QueueDepth: int(nums[2])})
	writeJSON(w, http.StatusOK, map[string]string{"tenant": name, "status": "configured"})
}

func (d *daemon) handleQuitz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	d.quitOnce.Do(func() { close(d.quit) })
}

func main() {
	bench.Exit("gerenukd", run(os.Args[1:], os.Stdout), 1)
}

// run parses args and serves the job service until a /quitz request
// drains it, writing the service log to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gerenukd", flag.ContinueOnError)
	def := bench.Config{Scale: 1, Partitions: 2, Iters: 2, HeapName: "10GB"}
	def.Workers = 2
	shared := bench.BindFlags(fs, "gerenukd", "job-workers", def, bench.HeapFlag|bench.CheckpointDirFlag)
	addr := fs.String("addr", "127.0.0.1:9478", "serve the submission API and observability plane on this address")
	workers := fs.Int("workers", 4, "bounded worker-pool size (concurrent jobs)")
	queueDepth := fs.Int("queue-depth", 64, "default per-tenant queued-job cap")
	quota := fs.Int64("quota", 0, "default per-tenant memory quota in bytes (0 = unlimited)")
	breakerThreshold := fs.Int("breaker-threshold", 3, "de-speculate a (tenant,driver) after this many aborts (0 = off)")
	if err := bench.ParseArgs(fs, args); err != nil {
		return err
	}

	// The daemon's observability plane is always on, on the API address.
	shared.ObsAddr = *addr
	sess, err := shared.Open(stdout)
	if err != nil {
		return err
	}
	var breaker *engine.Breaker
	if *breakerThreshold > 0 {
		breaker = engine.NewBreaker(*breakerThreshold)
	}
	svc := cluster.New(cluster.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		QuotaBytes: *quota,
		Breaker:    breaker,
		Trace:      sess.Trace,
		// The service hands every job a scoped view of the -checkpoint-dir
		// store through its JobContext.
		Checkpoints: sess.Config.Checkpoints,
	})

	d := &daemon{
		svc: svc, base: sess.Config, gcAttr: sess.GC,
		jobs: make(map[string]*cluster.Job),
		quit: make(chan struct{}),
	}

	server := sess.Server
	server.AddStatus("cluster", func() any { return svc.Status() })
	server.Handle("/submit", http.HandlerFunc(d.handleSubmit))
	server.Handle("/await", http.HandlerFunc(d.handleAwait))
	server.Handle("/cancel", http.HandlerFunc(d.handleCancel))
	server.Handle("/jobs", http.HandlerFunc(d.handleJobs))
	server.Handle("/tenant", http.HandlerFunc(d.handleTenant))
	server.Handle("/quitz", http.HandlerFunc(d.handleQuitz))
	if err := sess.Listen(); err != nil {
		svc.Close()
		sess.Close(nil)
		return err
	}
	fmt.Fprintf(stdout, "gerenukd: serving http://%s/{submit,await,jobs,tenant,quitz} (workers=%d)\n",
		server.Addr(), *workers)

	<-d.quit
	fmt.Fprintln(stdout, "gerenukd: draining")
	svc.Close()
	if err := sess.Close(map[string]any{"service": "gerenukd"}); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "gerenukd: bye")
	return nil
}
