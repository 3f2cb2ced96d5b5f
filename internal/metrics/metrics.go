// Package metrics defines the measurement containers and table formatting
// used by the benchmark harness to regenerate the paper's figures: the
// four-way runtime breakdown of Figure 6 (computation, GC, serialization,
// deserialization), the peak-memory comparisons of Figure 7, and the
// normalized summaries of Table 3.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Breakdown is a run's cost breakdown: a job's one record of what it
// cost, from which the registry series mirroring a field are published.
// internal/job charges it by one rule: Total is busy time summed across
// concurrent workers, never a wall. A stage adds its tasks' times; an
// exchange its write, read and serde time — its key order included —
// which it also attributes to ShuffleWrite/ShuffleRead/Ser/Deser.
// Driver-side key grouping is not charged.
type Breakdown struct {
	Total time.Duration
	GC    time.Duration
	Ser   time.Duration
	Deser time.Duration

	// GCAttributed is real Go GC pause time charged to this run by the
	// observability plane's attribution sampler (obs.GCAttributor) — the
	// measured counterpart of the simulated GC above. Zero unless a live
	// observability plane is attached. Deliberately NOT part of Compute's
	// derivation: the simulated GC already occupies that budget, and the
	// two columns answer different questions (model vs process).
	GCAttributed time.Duration

	// Attempt-path attribution: wall time spent inside speculative native
	// attempts vs heap (fallback/hedge) attempts, summed over tasks.
	NativeTime time.Duration
	HeapTime   time.Duration

	// Shuffle exchange attribution. ShuffleWrite/ShuffleRead are the
	// map-side and reduce-side exchange busy time excluding serde (the
	// exchange's encode/decode cost lands in Ser/Deser, where Figure 6
	// attributes it), summed across concurrent writers and reducers the
	// way task time is summed across tasks — not the exchange's wall.
	ShuffleWrite time.Duration
	ShuffleRead  time.Duration

	PeakHeapBytes   int64
	PeakNativeBytes int64

	Aborts       int64
	MinorGCs     int64
	MajorGCs     int64
	AllocObjects int64
	AllocBytes   int64
	Records      int64

	// Fault-tolerance accounting (engine task attempts and recovery).
	Attempts        int64 // task attempts executed (first tries + retries)
	Retries         int64 // attempts beyond each task's first
	PanicsContained int64 // runtime panics converted into recoverable faults
	NativeSkips     int64 // native attempts skipped by the de-speculation breaker
	Hedges          int64 // hedged heap attempts launched against straggling natives
	HedgeWins       int64 // hedged heap attempts that finished first

	// Shuffle exchange volume accounting.
	Spills              int64 // spill runs written by map-side writers
	ShuffleBytesWritten int64 // raw record bytes sealed into shuffle blocks
	ShuffleBytesSpilled int64 // bytes written to spill runs on disk
	ShuffleBytesFetched int64 // raw record bytes fetched on the reduce side
	ShuffleFetchRetries int64 // block fetch attempts beyond each block's first
}

// Compute returns the portion of the total not attributed to GC, serde
// or the shuffle exchange, clamped at zero: task computation. An
// exchange charges Total exactly its attributed columns, so it adds
// nothing here; driver-side grouping is charged nowhere.
func (b Breakdown) Compute() time.Duration {
	c := b.Total - b.GC - b.Ser - b.Deser - b.ShuffleWrite - b.ShuffleRead
	if c < 0 {
		return 0
	}
	return c
}

// PeakBytes returns the combined peak process footprint (heap + native).
func (b Breakdown) PeakBytes() int64 { return b.PeakHeapBytes + b.PeakNativeBytes }

// Add accumulates another breakdown. Times and event counters sum, but
// the peak-memory fields take the MAX of the two sides: Add models
// sequential composition — the attempts of one task, or the stages of a
// job, run one after another, so the process footprint at any instant
// is the largest single contributor, not the sum. Concurrent
// composition is the caller's job: engine.Pool.Run sums per-worker
// peaks explicitly because workers' footprints do coexist.
func (b *Breakdown) Add(o Breakdown) {
	b.Total += o.Total
	b.GC += o.GC
	b.Ser += o.Ser
	b.Deser += o.Deser
	b.GCAttributed += o.GCAttributed
	b.NativeTime += o.NativeTime
	b.HeapTime += o.HeapTime
	b.ShuffleWrite += o.ShuffleWrite
	b.ShuffleRead += o.ShuffleRead
	b.Aborts += o.Aborts
	b.MinorGCs += o.MinorGCs
	b.MajorGCs += o.MajorGCs
	b.AllocObjects += o.AllocObjects
	b.AllocBytes += o.AllocBytes
	b.Records += o.Records
	b.Attempts += o.Attempts
	b.Retries += o.Retries
	b.PanicsContained += o.PanicsContained
	b.NativeSkips += o.NativeSkips
	b.Hedges += o.Hedges
	b.HedgeWins += o.HedgeWins
	b.Spills += o.Spills
	b.ShuffleBytesWritten += o.ShuffleBytesWritten
	b.ShuffleBytesSpilled += o.ShuffleBytesSpilled
	b.ShuffleBytesFetched += o.ShuffleBytesFetched
	b.ShuffleFetchRetries += o.ShuffleFetchRetries
	if o.PeakHeapBytes > b.PeakHeapBytes {
		b.PeakHeapBytes = o.PeakHeapBytes
	}
	if o.PeakNativeBytes > b.PeakNativeBytes {
		b.PeakNativeBytes = o.PeakNativeBytes
	}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%v compute=%v gc=%v ser=%v deser=%v peak=%s aborts=%d",
		b.Total.Round(time.Microsecond), b.Compute().Round(time.Microsecond),
		b.GC.Round(time.Microsecond), b.Ser.Round(time.Microsecond),
		b.Deser.Round(time.Microsecond), FmtBytes(b.PeakBytes()), b.Aborts)
}

// Ratio returns x/y guarding zero denominators.
func Ratio(x, y float64) float64 {
	if y == 0 {
		return math.NaN()
	}
	return x / y
}

// GeoMean returns the geometric mean of positive values (NaN inputs are
// skipped).
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// MinMax returns the min and max of values, skipping NaNs.
func MinMax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// FmtBytes renders a byte count human-readably.
func FmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Table is a simple fixed-width text table for harness output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			// Rows wider than the header have no width to pad to;
			// render the extra cells as-is instead of panicking.
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// F formats a float with 2 decimals; NaN renders as "-".
func F(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// D formats a duration rounded for display.
func D(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }
