package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one end-to-end metric x workload pairing.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, ledgerSchema)
	}
	return &l, nil
}

// spread is the file's own run-to-run noise for one metric, as a share
// of its median: the interquartile distance with four or more runs, the
// full range with two or three, and unknown (0) with one.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	if len(vals) < 4 {
		return (quantile(vals, 1) - quantile(vals, 0)) / med
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / med
}

// worsening returns by what share of a's median b's median is worse.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run
// of a: a difference that large is resolved whatever the spread.
func allBetter(d metricDef, a, b []float64) bool {
	if d.Better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

func verdict(d metricDef, a, b []float64) (string, float64, float64) {
	worse := worsening(d, median(a), median(b))
	noise := max(spread(a), spread(b))
	switch {
	case noise > d.Bound && !allBetter(d, a, b):
		return verdictUnresolved, worse, noise
	case worse > d.Bound:
		return verdictRegression, worse, noise
	}
	return verdictOK, worse, noise
}

// compareFiles checks every end-to-end metric x workload of ledger b
// against ledger a (the parent) and returns the process exit code:
// non-zero on a regression or on more failed jobs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var ledgers [2]*ledger
	for i, path := range []string{pathA, pathB} {
		l, err := readLedger(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
			return 2
		}
		ledgers[i] = l
	}
	return compareLedgers(w, ledgers[0], ledgers[1])
}

func compareLedgers(w io.Writer, a, b *ledger) int {
	if a.Seed != b.Seed || a.Procs != b.Procs || a.Quick != b.Quick {
		fmt.Fprintf(w, "warning: settings differ (seed %d/%d, procs %d/%d, quick %v/%v)\n",
			a.Seed, b.Seed, a.Procs, b.Procs, a.Quick, b.Quick)
	}
	byName := map[string]*result{}
	for _, r := range a.Workloads {
		byName[r.Name] = r
	}
	bad := 0
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, rb := range b.Workloads {
		ra, ok := byName[rb.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s only in the second file\n", rb.Name)
			continue
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-12s failed jobs rose from %d/%d to %d/%d  %s\n",
				rb.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, verdictRegression)
			bad++
		}
		for _, d := range endToEnd {
			va, vb := runValues(ra.Runs, d.Name), runValues(rb.Runs, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, noise := verdict(d, va, vb)
			if v == verdictRegression {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.1f%% %7.1f%% %5.0f%%  %s\n",
				rb.Name, d.Name, median(va), median(vb), worse*100, noise*100, d.Bound*100, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	return 0
}
