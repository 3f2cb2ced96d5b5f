package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock advances a fixed step per reading, making timestamps (and
// therefore the exported JSON) fully deterministic.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// TestChromeTraceGolden pins the streaming exporter's wire format: a
// miniature job → task → attempt → phase span tree with GC/abort
// instants and a counter sample, buffered and then flushed by StreamTo,
// must serialize byte-identically to the golden file.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewWithClock(fakeClock(time.Millisecond))

	job := tr.StartSpan("job", "PR", Str("mode", "gerenuk"))
	task := tr.StartSpan("task", "pr-contribs-p0", Str("driver", "pr-contribs"))
	att := task.Child("attempt", "native-attempt", I64("attempt", 1))
	ph := att.Child("phase", "native-execute")
	ph.Instant("gc", "minor-gc", I64("pause_ns", 12345), I64("heap_before_bytes", 4096), I64("heap_after_bytes", 1024))
	ph.Counter("heap_used_bytes", 1024)
	ph.End(I64("deser_bytes", 2048))
	att.End(Str("outcome", "abort"))
	task.Instant("abort", "speculation-abort", Str("class", "abort-speculation"))
	fb := task.Child("attempt", "heap-attempt")
	fb.End(Str("outcome", "success"))
	task.End(Str("status", "ok"))
	tr.Instant("fault", "injected-transient", I64("attempt", 2))
	job.End()

	var buf bytes.Buffer
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace JSON drifted from golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}

	// The golden bytes must also be valid Chrome trace JSON round-trip.
	var file ChromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if len(file.TraceEvents) != 9 {
		t.Errorf("got %d events, want 9", len(file.TraceEvents))
	}
}

// TestHistogramBucketBoundaries pins the upper-inclusive bucket rule:
// an observation exactly on a bound lands in that bound's bucket, one
// past it lands in the next, and values beyond the last bound land in
// the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100, 1000)
	for _, v := range []float64{5, 10, 10.5, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	wantCounts := []int64{2, 2, 2, 2} // (..10] (10,100] (100,1000] (1000,..)
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Min != 5 || s.Max != 5000 {
		t.Errorf("min/max = %v/%v, want 5/5000", s.Min, s.Max)
	}
	if s.Sum != 5+10+10.5+100+101+1000+1001+5000 {
		t.Errorf("sum = %v", s.Sum)
	}
	// Re-looking-up the histogram must return the same instance and
	// ignore new bounds.
	if h2 := r.Histogram("lat", 1, 2, 3); h2 != h {
		t.Error("histogram lookup created a duplicate")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1000, 2, 4)
	want := []float64{1000, 2000, 4000, 8000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestConcurrentSpans drives parallel task spans, instants and registry
// instruments from many goroutines; `go test -race` (run in CI) makes
// this the tracer's thread-safety proof.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	const workers, tasks = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < tasks; i++ {
				task := tr.StartSpan("task", fmt.Sprintf("w%d-t%d", w, i))
				att := task.Child("attempt", "heap-attempt")
				att.Instant("gc", "minor-gc", I64("pause_ns", int64(i)))
				att.End()
				task.End()
				tr.Registry().Counter("tasks_total").Add(1)
				tr.Registry().Histogram("task_latency_ns", LatencyBuckets()...).Observe(float64(i))
				tr.Registry().Gauge("last_task").Set(float64(i))
			}
		}(w)
	}
	wg.Wait()

	if got := tr.Registry().Counter("tasks_total").Value(); got != workers*tasks {
		t.Errorf("counter = %d, want %d", got, workers*tasks)
	}
	if got := tr.Registry().Histogram("task_latency_ns").snapshot().Count; got != workers*tasks {
		t.Errorf("histogram count = %d, want %d", got, workers*tasks)
	}
	events := tr.Events()
	want := workers * tasks * 3 // task X + attempt X + gc instant
	if len(events) != want {
		t.Errorf("got %d events, want %d", len(events), want)
	}
	var buf bytes.Buffer
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var file ChromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("concurrent trace does not parse: %v", err)
	}
	if len(file.TraceEvents) != want {
		t.Errorf("exported %d events, want %d", len(file.TraceEvents), want)
	}
	if err := tr.WriteMetricsJSON(&buf, map[string]any{"test": true}); err != nil {
		t.Fatal(err)
	}
}

// TestNilTracerIsNoOp: the disabled tracer must accept the full API
// surface without panicking or recording anything.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("task", "x", Str("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	child := sp.Child("phase", "deserialize")
	child.Instant("gc", "minor-gc")
	child.Counter("heap_used_bytes", 1)
	child.End(I64("bytes", 1))
	sp.End()
	tr.Instant("fault", "injected")
	tr.Registry().Counter("c").Add(1)
	tr.Registry().Gauge("g").Set(1)
	tr.Registry().Gauge("g").SetMax(2)
	tr.Registry().Histogram("h", 1, 2).Observe(1)
	if tr.Events() != nil {
		t.Error("nil tracer recorded events")
	}
	snap := tr.Registry().Snapshot()
	if len(snap.Counters) != 0 || snap.Schema != MetricsSchemaVersion {
		t.Errorf("nil registry snapshot = %+v", snap)
	}
}

// TestMetricsJSONRoundTrip: the metrics exporter must produce JSON that
// parses back into the snapshot structure with the schema stamp.
func TestMetricsJSONRoundTrip(t *testing.T) {
	tr := New()
	tr.Registry().Counter("aborts_total").Add(3)
	tr.Registry().Gauge("peak_bytes").SetMax(4096)
	tr.Registry().Histogram("gc_pause_ns", LatencyBuckets()...).Observe(1500)
	var buf bytes.Buffer
	if err := tr.WriteMetricsJSON(&buf, map[string]any{"app": "PR"}); err != nil {
		t.Fatal(err)
	}
	var m MetricsFile
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != MetricsSchemaVersion {
		t.Errorf("schema = %d, want %d", m.Schema, MetricsSchemaVersion)
	}
	if m.Counters["aborts_total"] != 3 {
		t.Errorf("counter = %d, want 3", m.Counters["aborts_total"])
	}
	if m.Gauges["peak_bytes"] != 4096 {
		t.Errorf("gauge = %v, want 4096", m.Gauges["peak_bytes"])
	}
	h := m.Histograms["gc_pause_ns"]
	if h.Count != 1 || h.Sum != 1500 {
		t.Errorf("histogram = %+v", h)
	}
	if m.Extra["app"] != "PR" {
		t.Errorf("extra = %v", m.Extra)
	}
}

// TestSnapshotHas: an instrument is present when it is positive, named
// exactly or as the family of a labeled series; a prefix that is not a
// family, a zero counter and a gauge are not.
func TestSnapshotHas(t *testing.T) {
	r := New().Registry()
	r.Counter("compile_total").Add(2)
	r.Counter("aborts_total")
	r.Counter(Name("cluster_jobs_done_total", "tenant", "alice")).Add(1)
	r.Histogram(Name("gc_pause_ns", "job", "PR"), LatencyBuckets()...).Observe(10)
	r.Gauge("peak_bytes").SetMax(1)
	s := r.Snapshot()
	for name, want := range map[string]bool{
		"compile_total": true, "cluster_jobs_done_total": true, "gc_pause_ns": true,
		"compile": false, "aborts_total": false, "peak_bytes": false, "gc_pause": false,
	} {
		if got := s.Has(name); got != want {
			t.Errorf("Has(%q) = %v, want %v", name, got, want)
		}
	}
}

// BenchmarkDisabledSpan pins the overhead contract: the full span tree
// call chain on a disabled (nil) tracer must cost only nil checks.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		task := tr.StartSpan("task", "t")
		att := task.Child("attempt", "heap-attempt")
		ph := att.Child("phase", "deserialize")
		ph.End(I64("bytes", 64))
		att.Instant("gc", "minor-gc")
		att.End()
		task.End()
	}
}

// BenchmarkEnabledSpan measures the cost when tracing is on, for
// comparison in DESIGN.md's overhead contract.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		task := tr.StartSpan("task", "t")
		att := task.Child("attempt", "heap-attempt")
		att.End()
		task.End()
	}
}

// TestStreamingExporter: switching to streaming mode flushes the events
// buffered so far, appends later events incrementally instead of
// retaining them, and CloseStream produces a well-formed Chrome trace
// JSON object.
func TestStreamingExporter(t *testing.T) {
	tr := NewWithClock(fakeClock(time.Millisecond))
	pre := tr.StartSpan("job", "before-stream")
	pre.End()

	var buf bytes.Buffer
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.StreamTo(&buf); err == nil {
		t.Error("second StreamTo accepted")
	}
	if n := len(tr.Events()); n != 0 {
		t.Errorf("tracer retained %d events after StreamTo", n)
	}
	mid := buf.Len()

	s := tr.StartSpan("task", "while-streaming", Str("k", "v"))
	s.Instant("gc", "minor-gc", I64("pause_ns", 7))
	s.End()
	if buf.Len() <= mid {
		t.Error("streamed events were not written incrementally")
	}
	if n := len(tr.Events()); n != 0 {
		t.Errorf("tracer retained %d events while streaming", n)
	}

	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err == nil {
		t.Error("second CloseStream accepted")
	}

	var file ChromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("streamed output is not valid trace JSON: %v\n%s", err, buf.Bytes())
	}
	if file.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	names := map[string]bool{}
	for _, e := range file.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"before-stream", "while-streaming", "minor-gc"} {
		if !names[want] {
			t.Errorf("streamed trace missing event %q (got %v)", want, names)
		}
	}

	// After CloseStream the tracer buffers again.
	tr.Instant("fault", "post-stream")
	if n := len(tr.Events()); n != 1 {
		t.Errorf("post-stream buffering broken: %d events", n)
	}
}

func TestStreamNilAndNotStreaming(t *testing.T) {
	var nilTr *Tracer
	if err := nilTr.StreamTo(&bytes.Buffer{}); err != nil {
		t.Errorf("nil tracer StreamTo: %v", err)
	}
	if err := nilTr.CloseStream(); err != nil {
		t.Errorf("nil tracer CloseStream: %v", err)
	}
	if err := New().CloseStream(); err == nil {
		t.Error("CloseStream without StreamTo accepted")
	}
}
