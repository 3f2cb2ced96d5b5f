package obs

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestScrapeUnderLoad hammers the tracer with concurrent span trees and
// registry writes — the live-run shape — while /metrics, /statusz and
// /flamez are scraped concurrently. Run under -race by the CI suite, it
// locks in that the whole observability plane (prometheus render, ring,
// flame fold, runtime sampling) is data-race-free against hot
// instrumentation.
func TestScrapeUnderLoad(t *testing.T) {
	tr := trace.New()
	s := NewServer(tr)
	h := s.Handler()

	const workers, rounds, scrapers = 6, 120, 3
	var wg sync.WaitGroup
	start := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			r := tr.Registry()
			for i := 0; i < rounds; i++ {
				job := tr.StartSpan("job", fmt.Sprintf("j%d", w))
				task := job.Child("task", fmt.Sprintf("t%d", i))
				att := task.Child("attempt", "native")
				att.End()
				task.End()
				job.End()
				r.Counter("tasks_total").Add(1)
				r.Histogram(trace.Name("gc_pause_ns", "job", fmt.Sprintf("j%d", w), "mode", "gerenuk"),
					trace.LatencyBuckets()...).Observe(float64(i * 100))
			}
		}(w)
	}
	for sc := 0; sc < scrapers; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds/4; i++ {
				for _, path := range []string{"/metrics", "/statusz", "/flamez", "/healthz"} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("%s -> %d", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := tr.Registry().Counter("tasks_total").Value(); got != workers*rounds {
		t.Fatalf("tasks_total = %d, want %d", got, workers*rounds)
	}
	if got := s.flame.Spans(); got != workers*rounds*3 {
		t.Fatalf("flame folded %d spans, want %d", got, workers*rounds*3)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/flamez", nil))
	if _, err := ValidateFolded(rec.Body); err != nil {
		t.Fatalf("post-load flamez invalid: %v", err)
	}
}
