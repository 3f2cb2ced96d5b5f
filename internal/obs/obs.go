// Package obs is the live observability plane: an embeddable HTTP
// server exposing the run's trace registry as Prometheus text
// exposition (/metrics), liveness and run-state JSON (/healthz,
// /statusz), collapsed-stack flame graphs folded live from the span
// stream (/flamez), and the standard net/http/pprof handlers — plus the
// GC-pause attribution sampler (gcattr.go).
//
// The plane is strictly opt-in. Binaries only construct a Server when
// the user passes -obs-addr; with the flag unset no goroutine starts,
// no tracer subscriber is installed, and no runtime/metrics read
// happens, so the zero-overhead contract of the trace package carries
// through unchanged.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// RingSize is the number of recent span events /statusz retains.
const RingSize = 256

// Server serves the observability endpoints for one tracer. Construct
// with NewServer, then either Start (own listener) or mount Handler on
// an existing mux.
type Server struct {
	tr    *trace.Tracer
	ring  *Ring
	flame *Flame
	start time.Time

	mu       sync.Mutex
	status   map[string]func() any
	extra    map[string]http.Handler
	srv      *http.Server
	ln       net.Listener
	scrapes  atomic.Int64
	scrapedC chan struct{}
	scraped1 sync.Once
}

// NewServer builds a server observing tr: a bounded event ring and a
// flame aggregator subscribe to the tracer's span stream. The tracer
// must be non-nil (the caller only constructs a Server when the plane
// is enabled).
func NewServer(tr *trace.Tracer) *Server {
	s := &Server{
		tr:       tr,
		ring:     NewRing(RingSize),
		flame:    NewFlame(),
		start:    time.Now(),
		status:   make(map[string]func() any),
		scrapedC: make(chan struct{}),
	}
	tr.Subscribe(func(e trace.Event) {
		s.ring.Observe(e)
		s.flame.Observe(e)
	})
	return s
}

// Flame returns the server's flame aggregator (for offline -flame
// export after the run).
func (s *Server) Flame() *Flame { return s.flame }

// AddStatus registers a named status source rendered under /statusz.
// The callback must return a JSON-marshalable value and be safe to call
// from the serving goroutine; this is how engine state (breaker,
// pools) reaches the plane without obs importing the engine.
func (s *Server) AddStatus(name string, fn func() any) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.status[name] = fn
	s.mu.Unlock()
}

// Handle registers an extra handler on the observability mux — the job
// service mounts its submission API here so one address serves both
// planes. Call before Handler/Start; later registrations are ignored by
// already-built muxes.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s == nil || h == nil {
		return
	}
	s.mu.Lock()
	if s.extra == nil {
		s.extra = make(map[string]http.Handler)
	}
	s.extra[pattern] = h
	s.mu.Unlock()
}

// Handler returns the observability mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.mu.Lock()
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/flamez", s.handleFlamez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "gerenuk observability plane\n"+
			"/metrics /healthz /statusz /flamez /debug/pprof/\n")
	})
	return mux
}

// Start listens on addr and serves the observability endpoints in a
// background goroutine. Addr returns the bound address (useful with
// ":0").
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln = ln
	s.srv = srv
	s.mu.Unlock()
	go srv.Serve(ln)
	return nil
}

// Addr returns the listener address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight requests are cut off; the plane
// is diagnostic, not transactional.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Scrapes returns how many /metrics scrapes have been served.
func (s *Server) Scrapes() int64 { return s.scrapes.Load() }

// WaitScraped blocks until at least one /metrics scrape has been served
// or d elapses, reporting whether a scrape happened. Binaries use it
// (-obs-hold) to keep a short run alive long enough for an external
// scraper — the CI smoke test — to observe it mid-flight.
func (s *Server) WaitScraped(d time.Duration) bool {
	if s.scrapes.Load() > 0 {
		return true
	}
	select {
	case <-s.scrapedC:
		return true
	case <-time.After(d):
		return s.scrapes.Load() > 0
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Fold the live runtime sample into the registry before
	// snapshotting, so the exposition carries process truth (goroutines,
	// heap goal, GC pause quantiles) alongside the run's own
	// instruments.
	ReadRuntime().PublishGauges(s.tr.Registry())
	s.tr.Registry().Counter("obs_scrapes_total").Add(1)
	s.tr.Registry().Gauge("obs_uptime_seconds").Set(time.Since(s.start).Seconds())
	n := s.scrapes.Add(1)
	s.scraped1.Do(func() { close(s.scrapedC) })
	s.tr.Instant("obs", "scrape", trace.I64("n", n))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.tr.Registry().Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start).Nanoseconds(),
		"scrapes":   s.scrapes.Load(),
	})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	snap := s.tr.Registry().Snapshot()
	// recovery_* / fault_* counters summarize the run's fault-tolerance
	// activity; surfacing them here keeps /statusz readable without
	// dumping the whole registry (that is /metrics' job).
	recovery := map[string]int64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "recovery_") || strings.HasPrefix(name, "fault_") ||
			strings.HasPrefix(name, "gc_pauses_") {
			recovery[name] = v
		}
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.status))
	for n := range s.status {
		names = append(names, n)
	}
	fns := make(map[string]func() any, len(s.status))
	for n, fn := range s.status {
		fns[n] = fn
	}
	s.mu.Unlock()
	sort.Strings(names)
	sources := map[string]any{}
	for _, n := range names {
		sources[n] = fns[n]()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(map[string]any{
		"uptime_ns":    time.Since(s.start).Nanoseconds(),
		"scrapes":      s.scrapes.Load(),
		"inflight":     s.ring.Inflight(),
		"events_seen":  s.ring.Total(),
		"spans_folded": s.flame.Spans(),
		"recovery":     recovery,
		"status":       sources,
		"recent":       s.ring.Events(),
	})
}

func (s *Server) handleFlamez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.flame.WriteFolded(w)
}
