package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestMultiTenantClusterDifferential is the acceptance test for the job
// service: nine concurrent jobs from three tenants — mixed Spark and
// Hadoop apps, both modes, one tenant under a deterministic chaos fault
// plan — run through one shared cluster service (shared breaker, shared
// checkpoint/lineage stores, shared tracer) and every output must be
// byte-identical to a standalone serial run of the same app. Mallory's
// fault-driven breaker trips must stay inside her scope, and the shared
// registry must carry per-tenant latency and GC-pause series.
func TestMultiTenantClusterDifferential(t *testing.T) {
	cfg := Quick()

	type sub struct {
		tenant string
		app    string
		mode   engine.Mode
		chaos  int64
	}
	subs := []sub{
		{"alice", "PR", engine.Gerenuk, 0},
		{"alice", "PR", engine.Baseline, 0},
		{"alice", "IUF", engine.Gerenuk, 0},
		{"bob", "KM", engine.Gerenuk, 0},
		{"bob", "KM", engine.Baseline, 0},
		{"bob", "UAH", engine.Gerenuk, 0},
		{"mallory", "PR", engine.Gerenuk, 7},
		{"mallory", "IUF", engine.Gerenuk, 7},
		{"mallory", "KM", engine.Gerenuk, 7},
	}

	// Serial goldens, one per (app, mode), computed standalone — no
	// service, no faults. The chaos tenant's outputs must match the calm
	// goldens byte for byte; that is the paper's equivalence contract.
	golden := map[string][]byte{}
	for _, s := range subs {
		key := s.app + "/" + s.mode.String()
		if _, ok := golden[key]; ok {
			continue
		}
		res, err := RunApp(s.app, cfg, s.mode)
		if err != nil {
			t.Fatalf("serial %s: %v", key, err)
		}
		golden[key] = res.Out
	}

	tr := trace.New()
	// Collect breaker state transitions as they happen: the isolation
	// assert below needs to know which scopes tripped and on which
	// drivers.
	var evMu sync.Mutex
	opened := map[string][]string{} // scope -> drivers
	tr.Subscribe(func(e trace.Event) {
		if e.Name != "breaker-open" {
			return
		}
		scope, _ := e.Args["scope"].(string)
		driver, _ := e.Args["driver"].(string)
		evMu.Lock()
		opened[scope] = append(opened[scope], driver)
		evMu.Unlock()
	})
	gcAttr := obs.NewGCAttributor(tr)

	// Threshold 1 so mallory's first fault-driven abort opens her
	// (tenant, driver) breaker entry — the sharpest possible isolation
	// probe against alice running the same drivers concurrently.
	svc := cluster.New(cluster.Config{
		Workers: 8,
		Breaker: engine.NewBreaker(1),
		Trace:   tr,
	})
	defer svc.Close()

	type result struct {
		sub sub
		out []byte
		err error
	}
	jobs := make([]*cluster.Job, len(subs))
	for i, s := range subs {
		run := cfg
		run.Trace = tr
		if s.chaos != 0 {
			run.Injector = faults.Chaos(s.chaos)
		}
		tenant := s.tenant
		run.StageHook = func(app string, m engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration) {
			stats.GCAttributed += gcAttr.StageEndTenant(tenant, app, m.String(), stage)
		}
		spec, err := ClusterJob(s.app, run, s.mode)
		if err != nil {
			t.Fatal(err)
		}
		j, err := svc.Submit(s.tenant, spec)
		if err != nil {
			t.Fatalf("submit %v: %v", s, err)
		}
		jobs[i] = j
	}

	results := make([]result, len(subs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := jobs[i].Await()
			results[i] = result{subs[i], out, err}
		}(i)
	}
	wg.Wait()

	for _, r := range results {
		key := r.sub.app + "/" + r.sub.mode.String()
		if r.err != nil {
			t.Errorf("%s %s: %v", r.sub.tenant, key, r.err)
			continue
		}
		if !bytes.Equal(r.out, golden[key]) {
			t.Errorf("%s %s: output differs from serial run (chaos=%d)",
				r.sub.tenant, key, r.sub.chaos)
		}
	}

	// Breaker isolation: every open must carry a mallory scope, and the
	// same drivers must still be speculating in alice's and bob's scopes.
	evMu.Lock()
	openedCopy := map[string][]string{}
	for scope, drivers := range opened {
		openedCopy[scope] = append([]string(nil), drivers...)
	}
	evMu.Unlock()
	trippedDrivers := 0
	for scope, drivers := range openedCopy {
		if !strings.HasPrefix(scope, "mallory") {
			t.Errorf("breaker opened outside the chaos tenant: scope %q drivers %v", scope, drivers)
			continue
		}
		for _, d := range drivers {
			trippedDrivers++
			for _, innocent := range []string{"alice", "bob"} {
				if svc.TenantBreaker(innocent).Open(d) {
					t.Errorf("driver %q open in %s's scope after mallory's faults", d, innocent)
				}
			}
		}
	}
	if trippedDrivers == 0 {
		t.Error("chaos plan tripped no breaker; the isolation assert never engaged")
	}

	// Per-tenant attribution: job-latency, task-latency and GC-pause
	// series for every tenant in the one shared registry.
	snap := tr.Registry().Snapshot()
	hasHistWith := func(base, tenant string) bool {
		needle := fmt.Sprintf("tenant=%q", tenant)
		for name := range snap.Histograms {
			if strings.HasPrefix(name, base+"{") && strings.Contains(name, needle) {
				return true
			}
		}
		return false
	}
	for _, tenant := range []string{"alice", "bob", "mallory"} {
		for _, base := range []string{"cluster_job_latency_ns", "task_latency_ns", "gc_pause_ns"} {
			if !hasHistWith(base, tenant) {
				t.Errorf("missing %s series for tenant %s", base, tenant)
			}
		}
	}

	// The live per-tenant view /statusz serves.
	var seen []string
	for _, st := range svc.Status() {
		seen = append(seen, fmt.Sprintf("%s:%d", st.Tenant, st.Done))
	}
	if got := strings.Join(seen, ","); got != "alice:3,bob:3,mallory:3" {
		t.Errorf("Status = %s, want alice:3,bob:3,mallory:3", got)
	}
}

// TestCancelRunningClusterJob proves cooperative mid-run cancellation
// lands end to end: Cancel on a Running job closes JobContext.Canceled,
// the stage drivers observe the signal at the next stage boundary and
// bail with engine.ErrCanceled, the adapter maps that to
// cluster.ErrCanceled, and the service accounts the job as Canceled.
// The gate makes it deterministic — the cancel is issued while the job
// is provably Running, before the drivers take their first poll.
func TestCancelRunningClusterJob(t *testing.T) {
	cfg := Quick()
	svc := cluster.New(cluster.Config{Workers: 2})
	defer svc.Close()

	started := make(chan struct{})
	gate := make(chan struct{})
	spec := cluster.JobSpec{
		Name:        "PR/gerenuk",
		MemoryBytes: 1,
		Run: func(jc *cluster.JobContext) ([]byte, error) {
			close(started)
			<-gate
			run := cfg
			run.Canceled = jc.Canceled
			res, err := RunApp("PR", run, engine.Gerenuk)
			if errors.Is(err, engine.ErrCanceled) {
				return res.Out, cluster.ErrCanceled
			}
			return res.Out, err
		},
	}
	j, err := svc.Submit("carol", spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if j.State() != cluster.Running {
		t.Fatalf("state = %v, want Running", j.State())
	}
	if j.Cancel() {
		t.Fatal("Cancel of a running job must report false (cooperative)")
	}
	close(gate)
	if _, err := j.Await(); !errors.Is(err, cluster.ErrCanceled) {
		t.Fatalf("Await after mid-run cancel: %v, want cluster.ErrCanceled", err)
	}
	if j.State() != cluster.Canceled {
		t.Fatalf("state after mid-run cancel = %v, want Canceled", j.State())
	}
	for _, st := range svc.Status() {
		if st.Tenant == "carol" && st.Canceled != 1 {
			t.Fatalf("tenant status canceled = %d, want 1", st.Canceled)
		}
	}
}
