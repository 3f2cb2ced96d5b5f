package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// TestTraceSmoke runs one app end to end with a tracer attached and
// asserts the exported Chrome trace contains the span hierarchy the
// instrumentation promises: job and stage spans from the driver, task
// and attempt spans from the engine, one phase span per binding whose
// args show the serde the heap path pays and the native path does not,
// and GC instants from the heap (one partition at the smallest heap so
// the young generation actually fills).
func TestTraceSmoke(t *testing.T) {
	tr := trace.New()
	cfg := sized(2, 2, 1, 2)
	cfg.Trace, cfg.HeapName = tr, "10GB"
	if _, err := (Matrix{Apps: []string{"PR"}, Variants: []Variant{{Name: "traced"}}}).Run(cfg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var tf trace.ChromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	byCat := map[string]int{}
	heapDeser, native := 0, 0
	for _, e := range tf.TraceEvents {
		byCat[e.Cat]++
		deser, _ := e.Args["deser_bytes"].(float64)
		switch e.Name {
		case "heap-execute":
			if deser > 0 {
				heapDeser++
			}
		case "native-execute":
			native++
			if deser != 0 {
				t.Errorf("native-execute span deserialized %v bytes, want 0", deser)
			}
		}
	}
	for _, cat := range []string{"job", "stage", "task", "attempt", "phase", "gc"} {
		if byCat[cat] == 0 {
			t.Errorf("no %q events in trace (have %v)", cat, byCat)
		}
	}
	if heapDeser == 0 || native == 0 {
		t.Errorf("%d heap-execute spans with deser_bytes > 0 and %d native-execute spans, want both > 0", heapDeser, native)
	}

	snap := tr.Registry().Snapshot()
	if h, ok := snap.Histograms["task_latency_ns"]; !ok || h.Count == 0 {
		t.Errorf("task_latency_ns histogram missing or empty: %+v", snap.Histograms)
	}
	if h, ok := snap.Histograms["gc_pause_ns"]; !ok || h.Count == 0 {
		t.Errorf("gc_pause_ns histogram missing or empty: %+v", snap.Histograms)
	}
}

// The figures run their jobs under the caller's run environment: a
// traced Figure 10(a) records its tasks' spans and latencies.
func TestFigureHonorsTrace(t *testing.T) {
	cfg := Quick()
	cfg.Trace = trace.New()
	if _, err := Figure10a(cfg); err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for _, e := range cfg.Trace.Events() {
		if e.Cat == "task" {
			tasks++
		}
	}
	if tasks == 0 {
		t.Error("no task spans in a traced Figure 10(a)")
	}
	if h, ok := cfg.Trace.Registry().Snapshot().Histograms["task_latency_ns"]; !ok || h.Count == 0 {
		t.Errorf("task_latency_ns histogram missing or empty: %+v", h)
	}
}
