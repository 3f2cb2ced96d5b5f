package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one benchmark-owned span: the benchmark records these around
// its own calls into each layer, from outside the program. Spans inside
// the program are a later change.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Job    string // spans of one job / one replay share an identifier
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory and writes them out when the benchmark
// ends. It is single-goroutine: the layer replay runs on one goroutine,
// and job spans are added after the job returned.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, job, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job, Start: time.Since(r.t0)})
	return len(r.spans)
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.t0)
	return s.End - s.Start
}

// add records a span whose boundaries were observed elsewhere (a stage
// hook reports a stage's wall when the stage ends).
func (r *recorder) add(parent int, job, name string, start, end time.Time) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans)
}

// time runs f inside a span.
func (r *recorder) time(parent int, job, name string, f func()) time.Duration {
	id := r.begin(parent, job, name)
	f()
	return r.end(id)
}

// selfTimes returns each span's duration minus the part its children
// cover (children of one span never overlap: the recorder is
// single-goroutine and stages of one job run one after another).
func (r *recorder) selfTimes() map[int]time.Duration {
	self := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// addJob records one observed job as a span tree: job -> front, stages.
func (r *recorder) addJob(job string, obs jobObs) {
	id := r.add(0, job, "job:"+obs.app, obs.start, obs.start.Add(obs.wall))
	if obs.stream != nil || obs.queueWait > 0 {
		// No stage hook (stream), or the job waited in the service's
		// queue before its front began: the job span stands alone.
		return
	}
	r.add(id, job, "front", obs.start, obs.start.Add(obs.front))
	for _, st := range obs.stages {
		r.add(id, job, "stage:"+st.name, st.end.Add(-st.wall), st.end)
	}
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events on one row, ids and parents in args.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.selfTimes()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
