package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// ---- Chrome trace_event exporter ----

// ChromeEvent is one entry of the Chrome trace_event JSON array, the
// format chrome://tracing and Perfetto load directly. Timestamps and
// durations are microseconds.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTraceFile is the top-level object of a Chrome trace JSON file.
type ChromeTraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// toChrome converts one recorded event to its Chrome trace form.
func toChrome(e Event) ChromeEvent {
	return ChromeEvent{
		Name: e.Name, Cat: e.Cat, Ph: e.Ph,
		TS:  float64(e.TS) / 1e3,
		Dur: float64(e.Dur) / 1e3,
		PID: 1, TID: e.TID, S: e.Scope, Args: e.Args,
	}
}

// ---- streaming Chrome exporter ----

// streamWriter incrementally writes the Chrome trace JSON object as
// events are emitted, so a long traced run never buffers its whole event
// log in tracer memory. Always accessed under the tracer's mutex.
type streamWriter struct {
	w     io.Writer
	wrote bool // at least one event written (comma bookkeeping)
	err   error
}

func (sw *streamWriter) event(e Event) {
	if sw.err != nil {
		return
	}
	sep := ",\n"
	if !sw.wrote {
		sep = "\n"
	}
	payload, err := json.Marshal(toChrome(e))
	if err == nil {
		_, err = fmt.Fprintf(sw.w, "%s %s", sep, payload)
	}
	if err != nil {
		sw.err = err
		return
	}
	sw.wrote = true
}

// StreamTo switches the tracer into streaming mode: the Chrome trace
// JSON header and every already-buffered event are written to w
// immediately, each future event is appended as it is emitted (and not
// retained in memory), and CloseStream terminates the JSON object. It
// is the one Chrome exporter. The file holds events in emission order —
// spans appear when they End — which Perfetto accepts.
func (t *Tracer) StreamTo(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stream != nil {
		return fmt.Errorf("trace: already streaming")
	}
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": ["); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sw := &streamWriter{w: w}
	for _, e := range t.events {
		sw.event(e)
	}
	if sw.err != nil {
		return fmt.Errorf("trace: %w", sw.err)
	}
	t.events = nil
	t.stream = sw
	return nil
}

// CloseStream ends streaming mode, writing the closing brackets of the
// Chrome trace JSON object and reporting any write error swallowed along
// the way. The tracer buffers events again afterwards.
func (t *Tracer) CloseStream() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sw := t.stream
	if sw == nil {
		return fmt.Errorf("trace: not streaming")
	}
	t.stream = nil
	if sw.err != nil {
		return fmt.Errorf("trace: %w", sw.err)
	}
	if _, err := fmt.Fprintf(sw.w, "\n]}\n"); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ---- metrics JSON exporter ----

// MetricsSchemaVersion identifies the metrics JSON layout, so committed
// BENCH_*.json trajectory points stay comparable across PRs.
const MetricsSchemaVersion = 1

// HistSnapshot is the exported state of one histogram. Counts has
// len(Bounds)+1 entries; Counts[i] holds observations v with
// Bounds[i-1] < v <= Bounds[i] and the final entry is the overflow.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
}

// Snapshot is a point-in-time capture of a registry.
type Snapshot struct {
	Schema     int                     `json:"schema"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:     MetricsSchemaVersion,
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// Has reports whether the snapshot holds a counter or histogram named
// name with a positive value or count, either exactly or as the family
// of a labeled series (gc_pause_ns matches gc_pause_ns{job="PR",...}).
func (s Snapshot) Has(name string) bool {
	match := func(n string) bool { return n == name || strings.HasPrefix(n, name+"{") }
	for n, v := range s.Counters {
		if v > 0 && match(n) {
			return true
		}
	}
	for n, h := range s.Histograms {
		if h.Count > 0 && match(n) {
			return true
		}
	}
	return false
}

// MetricsFile is the top-level object of the metrics JSON exporter:
// the registry snapshot plus caller-supplied context (app name, scale,
// per-mode Breakdown dumps) under "extra".
type MetricsFile struct {
	Snapshot
	Extra map[string]any `json:"extra,omitempty"`
}

// WriteMetricsJSON writes the registry snapshot and extra context to w,
// suitable for committing as a BENCH_*.json trajectory point.
func (t *Tracer) WriteMetricsJSON(w io.Writer, extra map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(MetricsFile{Snapshot: t.Registry().Snapshot(), Extra: extra})
}

// WriteMetricsJSONFile writes the metrics JSON to the named file.
func (t *Tracer) WriteMetricsJSONFile(path string, extra map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return t.WriteMetricsJSON(f, extra)
}
