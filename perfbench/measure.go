package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// pass is one measuring window: a closed loop of jobs until the time is
// up, each job starting only after the previous one's output is in hand.
type pass struct {
	jobs      []jobObs // jobs that finished with the reference output
	attempted int
	failed    int // errored, refused, or output sha256 != reference
	rejected  int // refused by admission control (svc-mixed)
	firstErr  error
	mem       memDelta
	events    int // trace events recorded (traced passes)
}

type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds another window of the same kind into p.
func (p *pass) merge(o *pass) {
	p.jobs = append(p.jobs, o.jobs...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.rejected += o.rejected
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	p.mem.allocBytes += o.mem.allocBytes
	p.mem.mallocs += o.mem.mallocs
	p.mem.gcCycles += o.mem.gcCycles
	p.mem.pauseNs += o.mem.pauseNs
	p.events += o.events
}

// passOpts selects how the window's jobs are observed.
type passOpts struct {
	seconds float64
	minJobs int
	hooked  bool
	traced  bool
	backend engine.Backend
}

// window runs the workload's closed loop for o.seconds (and at least
// o.minJobs jobs) and returns what was observed.
func (in *instance) window(e env, o passOpts) *pass {
	p := &pass{}
	var tracer *trace.Tracer
	if o.traced {
		tracer = trace.New()
	}
	// Start every window from a collected heap, so one window's garbage
	// is not charged to the next.
	runtime.GC()
	before := readMem()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if in.svc {
		in.serviceLoop(e, o, tracer, deadline, p)
	} else {
		a := in.apps[0]
		for n := 0; n < o.minJobs || time.Now().Before(deadline); n++ {
			obs, err := a.run(jobOpts{mode: engine.Gerenuk, backend: o.backend, workers: e.workers, tracer: tracer, hooked: o.hooked})
			p.record(in, 0, obs, err)
		}
	}
	after := readMem()
	p.mem = memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		pauseNs:    after.PauseTotalNs - before.PauseTotalNs,
	}
	if tracer != nil {
		p.events = len(tracer.Events())
	}
	return p
}

// record checks one job's output against the reference and files it.
func (p *pass) record(in *instance, app int, obs jobObs, err error) {
	p.attempted++
	switch {
	case err != nil:
		p.fail(fmt.Errorf("%s/%s: %w", in.name, in.apps[app].name, err))
	case digest(obs.out) != in.refSHA[app]:
		p.fail(fmt.Errorf("%s/%s: output sha256 %s != reference %s",
			in.name, in.apps[app].name, digest(obs.out)[:12], in.refSHA[app][:12]))
	default:
		obs.out = nil
		p.jobs = append(p.jobs, obs)
	}
}

// Service shape: 2 tenants with fair-share weights 1 and 2, one
// closed-loop client each, jobs cycling PR/KM/TFC with a 1-worker pool.
const (
	svcClients    = 2
	svcJobWorkers = 1
)

var svcTenants = [svcClients]struct {
	name   string
	weight int
}{{"tenant-a", 1}, {"tenant-b", 2}}

func (in *instance) serviceLoop(e env, o passOpts, tracer *trace.Tracer, deadline time.Time, p *pass) {
	svc := cluster.New(cluster.Config{Workers: e.workers, Trace: tracer})
	defer svc.Close()
	for _, t := range svcTenants {
		svc.ConfigureTenant(t.name, cluster.TenantConfig{Weight: t.weight})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Every client cycles through every app at least once.
	perClient := max((o.minJobs+svcClients-1)/svcClients, len(in.apps))
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < perClient || time.Now().Before(deadline); n++ {
				k := (n + c) % len(in.apps)
				obs, err := in.submit(svc, svcTenants[c].name, k, tracer, o)
				mu.Lock()
				if errors.Is(err, cluster.ErrAdmissionRejected) {
					p.rejected++
				}
				p.record(in, k, obs, err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// submit sends one job through Submit/Await. The benchmark's own Run
// closure threads the JobContext into the job, as a service adapter
// would.
func (in *instance) submit(svc *cluster.Service, tenant string, k int, tracer *trace.Tracer, o passOpts) (jobObs, error) {
	a := in.apps[k]
	var obs jobObs
	var entered, returned time.Time
	submitted := time.Now()
	job, err := svc.Submit(tenant, cluster.JobSpec{
		Name:        a.name + "/gerenuk",
		MemoryBytes: int64(a.heap.YoungSize+a.heap.OldSize) * svcJobWorkers,
		Run: func(jc *cluster.JobContext) ([]byte, error) {
			entered = time.Now()
			var err error
			obs, err = a.run(jobOpts{mode: engine.Gerenuk, backend: o.backend, workers: svcJobWorkers, tracer: tracer, hooked: o.hooked, jc: jc})
			returned = time.Now()
			return obs.out, err
		},
	})
	if err != nil {
		return obs, err
	}
	out, err := job.Await()
	done := time.Now()
	obs.out = out
	obs.start = submitted
	obs.wall = done.Sub(submitted)
	obs.queueWait = entered.Sub(submitted)
	obs.finish = done.Sub(returned)
	return obs, err
}

// emptyJobUS times Submit -> Await of a job whose Run returns at once.
func emptyJobUS(workers, n int) float64 {
	svc := cluster.New(cluster.Config{Workers: workers})
	defer svc.Close()
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		job, err := svc.Submit(svcTenants[0].name, cluster.JobSpec{
			Name: "empty", Run: func(*cluster.JobContext) ([]byte, error) { return nil, nil },
		})
		if err != nil {
			continue
		}
		if _, err := job.Await(); err == nil {
			samples = append(samples, float64(time.Since(t))/1e3)
		}
	}
	return quantile(samples, 0.5)
}

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

const (
	kib = 1 << 10
	mib = 1 << 20
)

func (p *pass) walls() []float64 {
	w := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		w[i] = j.wall.Seconds()
	}
	return w
}

// endToEndMetrics computes the user-visible metrics of an untraced pass.
func (p *pass) endToEndMetrics(setupS float64) (metricSet, error) {
	if len(p.jobs) == 0 {
		return nil, fmt.Errorf("no job finished correctly (%d attempted): %v", p.attempted, p.firstErr)
	}
	var wall time.Duration
	var records int64
	// Peak memory is averaged per app first, so svc-mixed does not read
	// differently when its window happens to end on a different app.
	type tally struct{ peak, jobs int64 }
	perApp := map[string]*tally{}
	for _, j := range p.jobs {
		wall += j.wall
		records += j.records
		t := perApp[j.app]
		if t == nil {
			t = &tally{}
			perApp[j.app] = t
		}
		t.peak += j.stats.PeakBytes()
		t.jobs++
	}
	peak := 0.0
	for _, t := range perApp {
		peak += float64(t.peak) / float64(t.jobs) / float64(len(perApp))
	}
	m := metricSet{}
	walls := p.walls()
	m.set(endToEnd, "job_wall_p50_s", median(walls))
	m.set(endToEnd, "job_wall_p95_s", quantile(walls, 0.95))
	m.set(endToEnd, "records_per_s", float64(records)/wall.Seconds())
	m.set(endToEnd, "alloc_mb_per_job", float64(p.mem.allocBytes)/mib/float64(p.attempted))
	m.set(endToEnd, "peak_model_kb", peak/kib)
	m.set(endToEnd, "setup_s", setupS)
	return m, nil
}

// wallsByApp groups the pass's job walls by app.
func (p *pass) wallsByApp() map[string][]float64 {
	by := map[string][]float64{}
	for _, j := range p.jobs {
		by[j.app] = append(by[j.app], j.wall.Seconds())
	}
	return by
}

// traceOverhead is (traced p50 - untraced p50) / untraced p50, taken per
// app and then averaged, so svc-mixed's three job sizes do not blur it.
func traceOverhead(untraced, traced *pass) float64 {
	u, t := untraced.wallsByApp(), traced.wallsByApp()
	sum, n := 0.0, 0
	for app, walls := range u {
		if base := median(walls); base > 0 && len(t[app]) > 0 {
			sum += (median(t[app]) - base) / base
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ledgerInputs is everything the in-situ half of the layer ledger is
// computed from.
type ledgerInputs struct {
	hooked   *pass     // stage hooks on, tracing off, compiled backend
	traced   *pass     // the same with a trace.Tracer attached
	interp   *pass     // tracing off, interpreter backend
	refWalls []float64 // job wall of the set-ups' Baseline reference runs, seconds
	cr       compileReplay
	fixedUS  float64 // engine.task_fixed_us from the replay
	emptyUS  float64 // cluster.empty_job_us
}

// inSituMetrics computes the in-situ half of the layer ledger; every
// pass holds at least one finished job.
func inSituMetrics(li ledgerInputs) metricSet {
	hooked, traced, cr := li.hooked, li.traced, li.cr
	n := float64(len(hooked.jobs))
	var wall, front, stage, task, capacity time.Duration
	var queue, finish []float64
	var sum metrics.Breakdown
	var records int64
	var batches, shuffleBytes int64
	var batchP50, batchP99 []float64
	for _, j := range hooked.jobs {
		wall += j.wall
		front += j.front
		stage += j.stageWall
		task += j.taskTime
		capacity += j.capacity
		records += j.records
		sum.Add(j.stats)
		if j.stream != nil {
			batches += j.stream.Batches
			shuffleBytes += j.stream.ShuffleBytes
			batchP50 = append(batchP50, float64(j.stream.BatchP50)/1e6)
			batchP99 = append(batchP99, float64(j.stream.BatchP99)/1e6)
		}
		if j.queueWait > 0 || j.finish > 0 {
			queue = append(queue, float64(j.queueWait)/1e3)
			finish = append(finish, float64(j.finish)/1e3)
		}
	}
	perJob := func(d time.Duration) float64 { return d.Seconds() / n }
	share := func(d time.Duration) float64 { return d.Seconds() / wall.Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := metricSet{}
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	p50 := median(hooked.walls())
	set("job.wall_p50_s", p50)
	set("job.baseline_wall_s", median(li.refWalls))
	set("job.native_speedup_x", ratio(median(li.refWalls), p50))
	set("job.interp_wall_s", median(li.interp.walls()))
	set("job.compiled_speedup_x", ratio(median(li.interp.walls()), p50))
	// The job pays program build + Compile up front (timed in the job),
	// SER analysis + transform before each stage's wall starts, and
	// closure compilation inside the first task of each stage.
	transform := time.Duration(cr.transformMS * n * 1e6)
	closure := time.Duration(cr.closureMS * n * 1e6)
	set("job.compile_share", share(front+transform+closure))
	set("job.stage_share", share(stage))
	shuffle := sum.ShuffleWrite + sum.ShuffleRead
	set("job.shuffle_share", share(shuffle))
	set("job.unattributed_share", 1-share(front+transform)-share(stage)-share(shuffle))
	set("engine.task_busy_share", ratio(task.Seconds(), capacity.Seconds()))
	set("engine.native_s", perJob(sum.NativeTime))
	set("engine.heap_s", perJob(sum.HeapTime))
	set("engine.native_task_share", ratio(sum.NativeTime.Seconds(), task.Seconds()))
	set("engine.heap_task_share", ratio(sum.HeapTime.Seconds(), task.Seconds()))
	set("serde.ser_s", perJob(sum.Ser))
	set("serde.deser_s", perJob(sum.Deser))
	set("heap.gc_s", perJob(sum.GC))
	set("heap.minor_gcs", float64(sum.MinorGCs)/n)
	set("shuffle.write_s", perJob(sum.ShuffleWrite))
	set("shuffle.read_s", perJob(sum.ShuffleRead))
	set("shuffle.bytes_written", float64(sum.ShuffleBytesWritten)/n)
	set("shuffle.bytes_fetched", float64(sum.ShuffleBytesFetched)/n)
	set("shuffle.spills", float64(sum.Spills)/n)
	set("engine.attempts", float64(sum.Attempts)/n)
	set("engine.aborts", float64(sum.Aborts)/n)
	set("engine.retries", float64(sum.Retries)/n)
	set("engine.records", float64(records)/n)
	set("engine.commit_ratio", ratio(float64(sum.Attempts-sum.Aborts-sum.Retries), float64(sum.Attempts)))
	set("engine.task_fixed_share", ratio(li.fixedUS*1e-6*float64(sum.Attempts), task.Seconds()))
	set("go.alloc_b_per_rec", ratio(float64(hooked.mem.allocBytes), float64(records)))
	set("go.mallocs_per_rec", ratio(float64(hooked.mem.mallocs), float64(records)))
	set("go.gc_cycles_per_job", float64(hooked.mem.gcCycles)/float64(hooked.attempted))
	set("go.gc_pause_ms_per_job", float64(hooked.mem.pauseNs)/1e6/float64(hooked.attempted))
	set("trace.overhead_share", traceOverhead(hooked, traced))
	set("trace.events_per_job", float64(traced.events)/float64(traced.attempted))
	set("stream.batch_p50_ms", median(batchP50))
	set("stream.batch_p99_ms", median(batchP99))
	set("stream.batches", float64(batches)/n)
	set("stream.per_batch_ms", ratio(wall.Seconds()*1e3, float64(batches)))
	set("stream.shuffle_bytes", float64(shuffleBytes)/n)
	set("cluster.queue_wait_p50_us", quantile(queue, 0.5))
	set("cluster.queue_wait_p95_us", quantile(queue, 0.95))
	set("cluster.finish_overhead_us", quantile(finish, 0.5))
	set("cluster.empty_job_us", li.emptyUS)
	set("cluster.rejected", float64(hooked.rejected))
	return m
}
