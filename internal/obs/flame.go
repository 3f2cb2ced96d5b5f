package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/trace"
)

// Flame incrementally folds the span stream into a flame graph: each
// completed span contributes its self time (duration minus the time of
// its direct children) to the stack of frames above it, producing the
// collapsed-stack text format Brendan Gregg's flamegraph.pl and
// speedscope consume — one line per unique stack,
// `job:app;stage:s0;task:t3 1234`, weight in nanoseconds.
//
// The span tree is reconstructed live from subscriber events using
// SID/PSID. Spark-side stage/task/shuffle spans open as StartSpan roots
// (PSID 0); those attach to the innermost open job/stage span at the
// moment they open, which is exactly the enclosing-run semantics the
// bench harness has (one job at a time, tasks strictly inside their
// stage's lifetime). A nil *Flame ignores events.
type Flame struct {
	mu     sync.Mutex
	open   map[int64]*openSpan
	ctx    []ctxSpan // open job/stage spans, outermost first
	folded map[string]int64
	spans  int64 // completed spans folded in
}

// ctxSpan is one attachment-context entry: an open job/stage span and
// its lifecycle rank.
type ctxSpan struct {
	sid  int64
	rank int
}

type openSpan struct {
	stack   []string // frames root-first, including this span's own
	psid    int64    // effective parent SID (0 = root)
	childNs int64
}

// NewFlame returns an empty aggregator; install its Observe with
// Tracer.Subscribe.
func NewFlame() *Flame {
	return &Flame{open: make(map[int64]*openSpan), folded: make(map[string]int64)}
}

// ctxCat reports whether spans of this category form attachment context
// for parentless root spans.
func ctxCat(cat string) bool { return cat == "job" || cat == "stage" }

// catRank orders the lifecycle categories (job 0 … phase 4); -1 for
// categories outside the spine (shuffle, gc, obs... may appear anywhere
// below their parent).
func catRank(cat string) int {
	switch cat {
	case "job":
		return 0
	case "stage":
		return 1
	case "task":
		return 2
	case "attempt":
		return 3
	case "phase":
		return 4
	}
	return -1
}

// sanitizeFrame makes a span name safe inside the collapsed format,
// where ';' separates frames and ' ' separates stack from weight.
func sanitizeFrame(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ';', ' ', '\n', '\t', '\r':
			return '_'
		}
		return r
	}, s)
}

// Observe feeds one tracer event into the aggregator. Installed via
// Tracer.Subscribe, so it runs under the tracer's mutex and must not
// call back into the tracer.
func (f *Flame) Observe(e trace.Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch e.Ph {
	case "B":
		frame := sanitizeFrame(e.Cat) + ":" + sanitizeFrame(e.Name)
		psid := e.PSID
		if psid != 0 && f.open[psid] == nil {
			psid = 0 // parent closed or predates this subscriber
		}
		if psid == 0 {
			// Parentless root span: attach to the innermost open context
			// span of strictly lower lifecycle rank, so a stage folds
			// under its job and a task under its stage — but two jobs
			// running concurrently never nest under each other.
			rank := catRank(e.Cat)
			for i := len(f.ctx) - 1; i >= 0; i-- {
				if rank < 0 || f.ctx[i].rank < rank {
					psid = f.ctx[i].sid
					break
				}
			}
		}
		os := &openSpan{psid: psid}
		if parent := f.open[psid]; parent != nil {
			os.stack = append(append([]string(nil), parent.stack...), frame)
		} else {
			os.psid = 0
			os.stack = []string{frame}
		}
		f.open[e.SID] = os
		if ctxCat(e.Cat) {
			f.ctx = append(f.ctx, ctxSpan{sid: e.SID, rank: catRank(e.Cat)})
		}
	case "X":
		os, ok := f.open[e.SID]
		if !ok {
			return // opened before this subscriber attached
		}
		delete(f.open, e.SID)
		for i := len(f.ctx) - 1; i >= 0; i-- {
			if f.ctx[i].sid == e.SID {
				f.ctx = append(f.ctx[:i], f.ctx[i+1:]...)
				break
			}
		}
		if p := f.open[os.psid]; p != nil {
			p.childNs += e.Dur
		}
		self := e.Dur - os.childNs
		if self < 0 {
			self = 0
		}
		f.folded[strings.Join(os.stack, ";")] += self
		f.spans++
	}
}

// Spans returns the number of completed spans folded so far.
func (f *Flame) Spans() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spans
}

// WriteFolded writes the collapsed-stack text, stacks sorted,
// zero-weight stacks elided.
func (f *Flame) WriteFolded(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	weights := make(map[string]int64, len(f.folded))
	stacks := make([]string, 0, len(f.folded))
	for s, ns := range f.folded {
		if ns > 0 {
			stacks = append(stacks, s)
			weights[s] = ns
		}
	}
	f.mu.Unlock()
	sort.Strings(stacks)
	bw := bufio.NewWriter(w)
	for _, s := range stacks {
		if _, err := fmt.Fprintf(bw, "%s %d\n", s, weights[s]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFoldedFile writes the collapsed-stack text to the named file.
func (f *Flame) WriteFoldedFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	defer out.Close()
	if err := f.WriteFolded(out); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// FoldedStats summarizes a validated collapsed-stack file.
type FoldedStats struct {
	Stacks     int   // distinct stack lines
	Frames     int   // total frames across all stacks
	TotalNs    int64 // summed weights
	FullChains int   // stacks containing the full job→stage→task→attempt→phase spine
}

// ValidateFolded parses collapsed-stack text and checks its structural
// invariants: every line is `frame(;frame)* weight` with a positive
// integer weight, every frame is `cat:name`, and within each stack the
// lifecycle categories appear in strictly increasing job → stage → task
// → attempt → phase order (a task can never sit above its stage, nor a
// phase above a phase). The gerenukrun tests run it over the -flame
// output.
func ValidateFolded(r io.Reader) (FoldedStats, error) {
	var stats FoldedStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		stack, weight, ok := strings.Cut(text, " ")
		if !ok {
			return stats, fmt.Errorf("line %d: no weight separator", line)
		}
		ns, err := strconv.ParseInt(weight, 10, 64)
		if err != nil || ns <= 0 {
			return stats, fmt.Errorf("line %d: bad weight %q", line, weight)
		}
		frames := strings.Split(stack, ";")
		lastRank := -1
		spine := 0
		for _, fr := range frames {
			cat, _, ok := strings.Cut(fr, ":")
			if !ok {
				return stats, fmt.Errorf("line %d: bad frame %q", line, fr)
			}
			if rk := catRank(cat); rk >= 0 {
				if rk <= lastRank {
					return stats, fmt.Errorf("line %d: frame %q out of lifecycle order", line, fr)
				}
				spine++
				lastRank = rk
			}
		}
		if spine == 5 {
			stats.FullChains++
		}
		stats.Stacks++
		stats.Frames += len(frames)
		stats.TotalNs += ns
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	if stats.Stacks == 0 {
		return stats, fmt.Errorf("no stacks")
	}
	return stats, nil
}
