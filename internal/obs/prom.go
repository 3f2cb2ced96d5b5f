package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Metric names in the registry may carry an inline Prometheus label
// block: `gc_pause_ns{job="PR",mode="gerenuk"}`. splitName separates the
// base family name from the label block (without braces); names with no
// block return labels == "".
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// seriesName renders one exposition line's name part: base family plus
// the series' label block with any extra labels merged in.
func seriesName(base, labels string, extra ...string) string {
	all := labels
	for i := 0; i+1 < len(extra); i += 2 {
		kv := fmt.Sprintf("%s=%q", extra[i], extra[i+1])
		if all == "" {
			all = kv
		} else {
			all += "," + kv
		}
	}
	if all == "" {
		return base
	}
	return base + "{" + all + "}"
}

// fmtFloat renders a float the way Prometheus text exposition expects.
func fmtFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	switch s {
	case "+Inf", "inf", "+inf":
		return "+Inf"
	case "-inf":
		return "-Inf"
	}
	return s
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges one line per
// series, histograms as cumulative-bucket families with _bucket/_sum/
// _count series and an explicit le="+Inf" bucket. Families are emitted
// in sorted order with one TYPE line each, label series within a family
// sorted, and histogram buckets in ascending bound order, so scrapes
// are deterministic and diffable.
func WritePrometheus(w io.Writer, s trace.Snapshot) error {
	// A family is one base name; each series inside it is a sortable
	// block of exposition lines (a histogram series spans many lines
	// whose bucket order must survive sorting).
	type fam struct {
		typ    string
		series map[string][]string // label block -> lines in order
	}
	fams := map[string]*fam{}
	add := func(base, typ, labels string, lines ...string) {
		f, ok := fams[base]
		if !ok {
			f = &fam{typ: typ, series: map[string][]string{}}
			fams[base] = f
		}
		f.series[labels] = append(f.series[labels], lines...)
	}

	for name, v := range s.Counters {
		rawBase, labels := splitName(name)
		base := trace.SanitizeMetricName(rawBase)
		add(base, "counter", labels, fmt.Sprintf("%s %d", seriesName(base, labels), v))
	}
	for name, v := range s.Gauges {
		rawBase, labels := splitName(name)
		base := trace.SanitizeMetricName(rawBase)
		add(base, "gauge", labels, fmt.Sprintf("%s %s", seriesName(base, labels), fmtFloat(v)))
	}
	for name, h := range s.Histograms {
		rawBase, labels := splitName(name)
		base := trace.SanitizeMetricName(rawBase)
		lines := make([]string, 0, len(h.Bounds)+3)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			lines = append(lines, fmt.Sprintf("%s %d",
				seriesName(base+"_bucket", labels, "le", fmtFloat(bound)), cum))
		}
		lines = append(lines,
			fmt.Sprintf("%s %d", seriesName(base+"_bucket", labels, "le", "+Inf"), h.Count),
			fmt.Sprintf("%s %s", seriesName(base+"_sum", labels), fmtFloat(h.Sum)),
			fmt.Sprintf("%s %d", seriesName(base+"_count", labels), h.Count))
		add(base, "histogram", labels, lines...)
	}

	bases := make([]string, 0, len(fams))
	for b := range fams {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		f := fams[b]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", b, f.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, line := range f.series[k] {
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
