package engine

import (
	"sync"

	"repro/internal/trace"
)

// Breaker is a per-driver circuit breaker implementing adaptive
// de-speculation. A speculative abort costs roughly one wasted native
// attempt on top of the heap re-execution (Figure 10(b): ~9-14% of a SER
// per re-execution), so a driver that aborts on every task turns the
// Gerenuk win into a steady 2x loss. The breaker watches abort outcomes
// per driver across the whole pool: after Threshold consecutive aborts
// it "opens" and subsequent tasks skip the doomed native attempt, going
// straight to the heap path. While open, every probeEvery-th task is
// let through as a half-open probe; one successful probe closes the
// breaker and re-enables speculation.
//
// A nil *Breaker (or Threshold <= 0) disables the mechanism entirely:
// every task attempts the native path, preserving the paper's
// Figure 10(a)/(b) abort-cost semantics.
//
// Breaker state is keyed per driver, which is correct within one job
// but aliases across tenants: driver names repeat (every PageRank job
// runs "contribStage"), so a breaker shared service-wide would let one
// tenant's fault-injected aborts de-speculate an innocent tenant's
// jobs. Scoped returns a per-tenant view over the same underlying
// state, making the effective key (scope, driver).
//
// Safe for concurrent use by all executors of a pool.
type Breaker struct {
	// Threshold is the number of consecutive aborts that opens the
	// breaker for a driver; <= 0 disables the breaker.
	Threshold int
	// Trace, when set, receives process-scoped instants on open/close
	// state transitions.
	Trace *trace.Tracer

	mu      sync.Mutex
	drivers map[string]*breakerEntry

	// root points at the breaker actually holding entries when this
	// value is a scoped view; nil means this breaker is the root. prefix
	// namespaces the entry keys; scope is the display name for trace
	// instants.
	root   *Breaker
	prefix string
	scope  string
}

// probeEvery lets 1 of every probeEvery tasks probe the native path
// while a breaker is open.
const probeEvery = 8

// base resolves the breaker holding the shared state (the receiver,
// unless it is a scoped view). Configuration (Threshold, Trace) is
// always read from the root so views stay consistent with it.
func (b *Breaker) base() *Breaker {
	if b.root != nil {
		return b.root
	}
	return b
}

// Scoped returns a view of the breaker whose per-driver state lives in
// a private namespace — typically one tenant — so the effective key
// becomes (scope, driver). Views share the root's configuration, lock
// and tracer; scoping composes. A nil breaker scopes to nil (still a
// valid always-allow breaker).
func (b *Breaker) Scoped(scope string) *Breaker {
	if b == nil {
		return nil
	}
	name := scope
	if b.scope != "" {
		name = b.scope + "/" + scope
	}
	return &Breaker{root: b.base(), prefix: b.prefix + scope + "\x00", scope: name}
}

// EnsureTrace attaches tr as the breaker's tracer if none is set yet.
// Contexts sharing one breaker may call this concurrently (each wiring
// its own tracer); the first one wins. Direct writes to the Trace field
// remain fine before the breaker is shared.
func (b *Breaker) EnsureTrace(tr *trace.Tracer) {
	if b == nil || tr == nil {
		return
	}
	r := b.base()
	r.mu.Lock()
	if r.Trace == nil {
		r.Trace = tr
	}
	r.mu.Unlock()
}

type breakerEntry struct {
	aborts int  // consecutive aborts observed while closed
	open   bool // true = de-speculated
	seen   int  // tasks seen while open (for probe cadence)
}

// NewBreaker returns a breaker that opens after threshold consecutive
// aborts.
func NewBreaker(threshold int) *Breaker {
	return &Breaker{Threshold: threshold}
}

// Allow reports whether the next task for driver should attempt the
// native path. While open it admits periodic half-open probes.
func (b *Breaker) Allow(driver string) bool {
	if b == nil {
		return true
	}
	r := b.base()
	if r.Threshold <= 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(b.prefix + driver)
	if !e.open {
		return true
	}
	e.seen++
	return e.seen%probeEvery == 0
}

// Record feeds one native-attempt outcome back. Aborts accumulate
// toward Threshold while closed and keep an open breaker open; a
// success resets the abort streak and closes the breaker (successful
// half-open probe).
func (b *Breaker) Record(driver string, aborted bool) {
	if b == nil {
		return
	}
	r := b.base()
	if r.Threshold <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(b.prefix + driver)
	if aborted {
		if e.open {
			return // failed probe: stay open
		}
		e.aborts++
		if e.aborts >= r.Threshold {
			e.open = true
			e.seen = 0
			r.Trace.Instant("breaker", "breaker-open",
				trace.Str("driver", driver), trace.Str("scope", b.scope),
				trace.I64("aborts", int64(e.aborts)))
		}
		return
	}
	if e.open {
		r.Trace.Instant("breaker", "breaker-close",
			trace.Str("driver", driver), trace.Str("scope", b.scope))
	}
	e.aborts = 0
	e.open = false
	e.seen = 0
}

// Open reports whether the breaker is currently open for driver (in the
// receiver's scope, for a scoped view).
func (b *Breaker) Open(driver string) bool {
	if b == nil {
		return false
	}
	r := b.base()
	if r.Threshold <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entry(b.prefix + driver).open
}

func (b *Breaker) entry(driver string) *breakerEntry {
	if b.drivers == nil {
		b.drivers = make(map[string]*breakerEntry)
	}
	e, ok := b.drivers[driver]
	if !ok {
		e = &breakerEntry{}
		b.drivers[driver] = e
	}
	return e
}
