package engine

import (
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Backend selects how the Gerenuk path executes a transformed driver:
// closure-compiled func chains (the default) or the tree-walking
// interpreter. Both run the identical record protocol over the shared
// interp.Env operations; the backend only changes dispatch cost.
type Backend int

// Native execution backends. BackendCompiled is the zero value so an
// unconfigured Executor/Context/JobConf gets the fast path.
const (
	BackendCompiled Backend = iota
	BackendInterp
)

func (b Backend) String() string {
	if b == BackendInterp {
		return "interp"
	}
	return "compiled"
}

// ParseBackend parses the -engine flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "compiled", "":
		return BackendCompiled, nil
	case "interp":
		return BackendInterp, nil
	default:
		return 0, fmt.Errorf("unknown engine backend %q (want compiled or interp)", s)
	}
}

// Closure returns the closure-compiled form of the driver's transformed
// SER, compiling on first use. fresh reports whether this call did the
// compilation (vs. hitting the cache, including a concurrent winner's
// entry). A nil Prog with fresh/cached true means closure compilation
// declined the driver — the interpreter then runs the transformed IR,
// which is sound for any driver (partial-compilation fallback).
func (c *Compiled) Closure(entry string) (p *compile.Prog, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, done := c.closures[entry]; done {
		return p, false
	}
	return c.compileClosureLocked(entry), true
}

// compileClosureLocked closure-compiles a driver the cache has not seen
// and caches the result, with c.mu held. A failed compile caches nil:
// the driver is interpreted forever after, without re-attempting
// compilation per task.
func (c *Compiled) compileClosureLocked(entry string) (p *compile.Prog) {
	if fn := c.Natives[entry]; fn != nil {
		p, _ = compile.Compile(c.Prog, fn)
	}
	if c.closures == nil {
		c.closures = make(map[string]*compile.Prog)
	}
	c.closures[entry] = p
	return p
}

// nativeCode resolves what one native attempt of the driver runs, under
// a single acquisition of the Compiled lock: the transformed function
// and, for the compiled backend, its closure chain — nil when the driver
// declined and the interpreter should run fn instead. The attempt that
// first touches a driver compiles it, emitting the compile span and the
// compile_total/compile_declined_total counters exactly once per driver
// (the compile happens once per task pool, not per task).
func (e *Executor) nativeCode(driver string, att *trace.Span) (fn *ir.Func, cp *compile.Prog) {
	c := e.C
	c.mu.Lock()
	defer c.mu.Unlock()
	fn = c.Natives[driver]
	if e.Backend != BackendCompiled {
		return fn, nil
	}
	if cp, done := c.closures[driver]; done {
		return fn, cp
	}
	// First touch, and the lock is held from the miss to the fill, so
	// this compile is never a concurrent winner's duplicate.
	t0 := time.Now()
	sp := att.Child("compile", "closure-compile")
	cp = c.compileClosureLocked(driver)
	reg := e.Trace.Registry()
	attrs := []trace.Arg{trace.Str("outcome", "declined"), trace.Str("driver", driver)}
	if cp == nil {
		reg.Counter("compile_declined_total").Add(1)
	} else {
		attrs = []trace.Arg{trace.Str("outcome", "ok"), trace.Str("driver", driver),
			trace.I64("funcs", int64(cp.Funcs)), trace.I64("steps", int64(cp.Steps))}
		reg.Counter("compile_total").Add(1)
	}
	sp.End(attrs...)
	reg.Histogram("compile_ns", trace.LatencyBuckets()...).Observe(float64(time.Since(t0)))
	return fn, cp
}
