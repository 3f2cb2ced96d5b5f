package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// newTestServer builds a server over a tracer with some activity on it.
func newTestServer(t *testing.T) (*Server, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	s := NewServer(tr)
	r := tr.Registry()
	r.Counter("tasks_total").Add(7)
	r.Counter(trace.Name("gc_pause_ns_example", "job", "PR")).Add(1)
	r.Gauge("inflight").Set(3)
	r.Histogram("task_latency_ns", 1000, 2000).Observe(1500)
	job := tr.StartSpan("job", "PR")
	task := job.Child("task", "t0")
	task.End()
	job.End()
	return s, tr
}

// TestMetricsEndpoint: the exposition must be valid Prometheus text —
// TYPE lines, counter values, histogram bucket/sum/count series with a
// +Inf bucket — and each scrape must bump obs_scrapes_total and publish
// the runtime gauges.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE tasks_total counter",
		"tasks_total 7",
		"# TYPE task_latency_ns histogram",
		`task_latency_ns_bucket{le="1000"} 0`,
		`task_latency_ns_bucket{le="2000"} 1`,
		`task_latency_ns_bucket{le="+Inf"} 1`,
		"task_latency_ns_sum 1500",
		"task_latency_ns_count 1",
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_pause_p99_ns gauge",
		"inflight 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("body:\n%s", body)
		t.FailNow()
	}

	// second scrape: counter advances, WaitScraped unblocks immediately
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec2.Body.String(), "obs_scrapes_total 2") {
		t.Fatal("obs_scrapes_total did not advance to 2")
	}
	if !s.WaitScraped(0) {
		t.Fatal("WaitScraped(0) = false after scrapes")
	}
	if s.Scrapes() != 2 {
		t.Fatalf("Scrapes() = %d, want 2", s.Scrapes())
	}
}

// TestHealthzAndStatusz: health is ok JSON; statusz carries the ring's
// recent span events and any registered status sources.
func TestHealthzAndStatusz(t *testing.T) {
	s, tr := newTestServer(t)
	s.AddStatus("breaker", func() any { return map[string]string{"state": "closed"} })
	tr.Registry().Counter("recovery_reexecuted_tasks_total").Add(3)
	open := tr.StartSpan("stage", "live") // stays open: must show as inflight
	defer open.End()

	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Status  string `json:"status"`
		Scrapes int64  `json:"scrapes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if health.Status != "ok" {
		t.Fatalf("health status = %q", health.Status)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	var status struct {
		Inflight map[string]int   `json:"inflight"`
		Recovery map[string]int64 `json:"recovery"`
		Status   map[string]any   `json:"status"`
		Recent   []RingEvent      `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("statusz not JSON: %v", err)
	}
	if status.Inflight["stage"] != 1 {
		t.Fatalf("inflight = %v, want stage:1", status.Inflight)
	}
	if status.Recovery["recovery_reexecuted_tasks_total"] != 3 {
		t.Fatalf("recovery counters = %v", status.Recovery)
	}
	if _, ok := status.Status["breaker"]; !ok {
		t.Fatalf("status sources = %v, want breaker", status.Status)
	}
	foundTask := false
	for _, e := range status.Recent {
		if e.Cat == "task" && e.Ph == "X" {
			foundTask = true
		}
	}
	if !foundTask {
		t.Fatalf("recent events missing completed task span: %+v", status.Recent)
	}
}

// TestFlamezAndPprof: /flamez serves validatable collapsed stacks;
// /debug/pprof/ serves the pprof index.
func TestFlamezAndPprof(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/flamez", nil))
	stats, err := ValidateFolded(rec.Body)
	if err != nil {
		t.Fatalf("flamez output invalid: %v", err)
	}
	if stats.Stacks == 0 {
		t.Fatal("flamez served no stacks")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: code=%d", rec.Code)
	}
}

// TestServerStartScrapeClose exercises the real listener path end to
// end: Start on :0, GET /metrics over TCP, WaitScraped, Close.
func TestServerStartScrapeClose(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	addr := s.Addr()
	if addr == "" {
		t.Fatal("Addr() empty after Start")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("GET /metrics: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if !bytes.Contains(body, []byte("obs_scrapes_total")) {
			t.Error("scrape missing obs_scrapes_total")
		}
	}()
	if !s.WaitScraped(5 * time.Second) {
		t.Fatal("WaitScraped timed out")
	}
	<-done
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
