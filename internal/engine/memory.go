package engine

import (
	"repro/internal/arena"
	"repro/internal/heap"
	"repro/internal/trace"
)

// Attempt memory. A JVM executor allocates its heap and native buffers
// once and runs task after task over them; here a task attempt takes its
// simulated heap and its native sink (the sink's arena and output
// buffer) from free lists on the job's Compiled when it starts, and its
// deferred put hands them back on every exit — success, abort, contained
// panic, cancellation. The free lists live on Compiled because it is the
// one object every executor of a job shares, while executors are rebuilt
// per stage and per retry. An object is held by one attempt at a time
// (race drains both attempts before it returns), and the lists never
// hold more objects than the job's peak number of concurrent attempts.
// Nothing is cleared: Heap.Reset and Arena.Reset only rewind, because
// neither ever reads a byte it has not written since.

// takeHeap returns an empty heap built for cfg and traced on tr: an idle
// one Reset for the attempt, or a new one.
func (c *Compiled) takeHeap(cfg heap.Config, tr *trace.Span) *heap.Heap {
	cfg.Trace = nil
	c.mu.Lock()
	free := c.heaps[cfg]
	if n := len(free); n > 0 {
		h := free[n-1]
		free[n-1] = nil
		c.heaps[cfg] = free[:n-1]
		c.mu.Unlock()
		h.Reset(tr)
		return h
	}
	c.mu.Unlock()
	cfg.Trace = tr
	return heap.New(c.Prog.Reg, cfg)
}

// putHeap returns a heap takeHeap built for cfg.
func (c *Compiled) putHeap(cfg heap.Config, h *heap.Heap) {
	cfg.Trace = nil
	c.mu.Lock()
	if c.heaps == nil {
		c.heaps = make(map[heap.Config][]*heap.Heap)
	}
	c.heaps[cfg] = append(c.heaps[cfg], h)
	c.mu.Unlock()
}

// takeSink returns an empty native sink whose arena traces on tr: an
// idle one, or a new one.
func (c *Compiled) takeSink(tr *trace.Span) *nativeSink {
	var s *nativeSink
	c.mu.Lock()
	if n := len(c.sinks); n > 0 {
		s = c.sinks[n-1]
		c.sinks[n-1] = nil
		c.sinks = c.sinks[:n-1]
	}
	c.mu.Unlock()
	if s == nil {
		s = &nativeSink{a: arena.New()}
	}
	s.a.SetTrace(tr)
	return s
}

// putSink frees the sink's regions and returns it, its arena keeping the
// storage of the regions it allocated and its buffer its capacity.
func (c *Compiled) putSink(s *nativeSink) {
	s.a.Reset()
	s.out = s.out[:0]
	c.mu.Lock()
	c.sinks = append(c.sinks, s)
	c.mu.Unlock()
}
