package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// TestTablesJudgeEveryVariant runs each variant table on a runner whose
// output is its variant's name, with the tables' Check predicates taken
// out: every cell but its table's references must then fail — on its
// reference, or, for the bit-flip canary, on the error it wants.
func TestTablesJudgeEveryVariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Matrix
		refs []string
	}{
		{"shuffle", shuffleMatrix, []string{"inmem"}},
		{"recovery", recoveryMatrix, []string{"fault-free"}},
		{"stream", streamMatrix, []string{"one-batch"}},
		{"chaos", chaosMatrix(42), []string{"baseline (no faults)"}},
		{"backend", Matrix{Variants: backendVariants}, []string{"clean", "chaos", "recovery-chaos"}},
		{"deopt", Matrix{Variants: deoptVariants}, []string{"clean"}},
		{"hedge", Matrix{Variants: hedgeVariants}, []string{"unhedged"}},
		{"hedge-vs-heap", Matrix{Variants: hedgeVsHeap}, []string{"heap"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Apps = []string{firstApp(m.Apps)}
			m.Runner = func(c *Cell, _ Config) error {
				c.Out = []byte(c.Variant)
				return nil
			}
			m.Variants = slices.Clone(m.Variants)
			for i := range m.Variants {
				m.Variants[i].Runner, m.Variants[i].Check = nil, nil
			}
			var cells []*Cell
			m.Row, m.Check = nil, func(all []*Cell) error {
				cells = all
				return nil
			}
			if _, err := m.Run(Quick()); err == nil {
				t.Error("no cell failed")
			}
			for _, c := range cells {
				if isRef := slices.Contains(tc.refs, c.Variant); isRef != (c.Fail == nil) {
					t.Errorf("%s/%v: reference %v, failure %v", c.Variant, c.Mode, isRef, c.Fail)
				}
			}
		})
	}
}

// firstApp is a table's first app, every app's first by default.
func firstApp(apps []string) string {
	if len(apps) == 0 {
		return allApps()[0]
	}
	return apps[0]
}

// variantCheck returns the Check of m's variant name.
func variantCheck(t *testing.T, vs []Variant, name string) func(*Cell) error {
	i := slices.IndexFunc(vs, func(v Variant) bool { return v.Name == name })
	if i < 0 || vs[i].Check == nil {
		t.Fatalf("variant %q has no Check", name)
	}
	return vs[i].Check
}

// TestPredicatesReject holds each variant's Check to rejecting the cell
// its counter predicate exists for, and to accepting a good one.
func TestPredicatesReject(t *testing.T) {
	chaos := chaosMatrix(42).Variants
	ledger := func(m engine.Mode, fetched, decodes, spills int64) *Cell {
		return &Cell{Mode: m, Counters: map[string]int64{"shuffle_records_fetched_total": fetched,
			"shuffle_read_decodes_total": decodes, "shuffle_spills_total": spills}}
	}
	batches := func(n int64) map[string]int64 { return map[string]int64{"stream_batches_total": n} }
	oneBatch := &Cell{Counters: batches(1)}
	streamed := func(out string) *Cell {
		base := &Cell{App: "wordcount", Variant: "streamed", AppResult: AppResult{Out: []byte("w")}}
		return &Cell{App: "wordcount", Variant: "streamed", Mode: engine.Gerenuk, AppResult: AppResult{Out: []byte(out)},
			Counters: batches(4), Ref: oneBatch, prior: []*Cell{base}}
	}
	hedgedRun := func(hedges int64, wall time.Duration) *Cell {
		slow := &Cell{Variant: "gerenuk (stragglers)", Wall: 10 * time.Millisecond}
		c := &Cell{Variant: "gerenuk (stragglers, hedged)", Wall: wall, prior: []*Cell{slow}}
		c.Stats.Hedges = hedges
		return c
	}
	deopt := func(compiles, deopts int64) *Cell {
		return &Cell{Counters: map[string]int64{"compile_total": compiles, "deopt_total": deopts}}
	}
	for _, tc := range []struct {
		name      string
		check     func(*Cell) error
		good, bad *Cell
	}{
		{"inmem fetched nothing", variantCheck(t, shuffleMatrix.Variants, "inmem"), ledger(engine.Baseline, 3, 3, 0), ledger(engine.Baseline, 0, 0, 0)},
		{"inmem baseline skipped decodes", variantCheck(t, shuffleMatrix.Variants, "inmem"), ledger(engine.Baseline, 3, 3, 0), ledger(engine.Baseline, 3, 2, 0)},
		{"inmem gerenuk decoded", variantCheck(t, shuffleMatrix.Variants, "inmem"), ledger(engine.Gerenuk, 3, 0, 0), ledger(engine.Gerenuk, 3, 1, 0)},
		{"spill no spills", variantCheck(t, shuffleMatrix.Variants, "spill"), ledger(engine.Baseline, 3, 3, 6), ledger(engine.Baseline, 3, 3, 0)},
		{"spill gerenuk decoded", variantCheck(t, shuffleMatrix.Variants, "spill"), ledger(engine.Gerenuk, 3, 0, 6), ledger(engine.Gerenuk, 3, 3, 6)},
		{"spill+lz4 no spills", variantCheck(t, shuffleMatrix.Variants, "spill+lz4"), ledger(engine.Baseline, 3, 3, 6), ledger(engine.Baseline, 3, 3, 0)},
		{"spill+lz4 baseline skipped decodes", variantCheck(t, shuffleMatrix.Variants, "spill+lz4"), ledger(engine.Baseline, 3, 3, 6), ledger(engine.Baseline, 3, 0, 6)},
		{"streamed in one batch", variantCheck(t, streamMatrix.Variants, "streamed"), streamed("w"),
			&Cell{Counters: batches(1), Ref: oneBatch}},
		{"streamed modes disagree", variantCheck(t, streamMatrix.Variants, "streamed"), streamed("w"), streamed("x")},
		{"hedged never hedged", variantCheck(t, chaos, "gerenuk (stragglers, hedged)"), hedgedRun(2, time.Millisecond), hedgedRun(0, time.Millisecond)},
		{"hedged slower", variantCheck(t, chaos, "gerenuk (stragglers, hedged)"), hedgedRun(2, time.Millisecond), hedgedRun(2, 20*time.Millisecond)},
		{"compiled never compiled", variantCheck(t, deoptVariants, "chaos/compiled"), deopt(1, 1), deopt(0, 1)},
		{"compiled never deopted", variantCheck(t, deoptVariants, "chaos/compiled"), deopt(1, 1), deopt(1, 0)},
		{"replica-failover never failed over", variantCheck(t, recoveryMatrix.Variants, "replica-failover"),
			&Cell{Counters: map[string]int64{"recovery_replica_failover_total": 1}}, &Cell{Counters: map[string]int64{}}},
	} {
		if err := tc.check(tc.good); err != nil {
			t.Errorf("%s: good cell rejected: %v", tc.name, err)
		}
		if tc.check(tc.bad) == nil {
			t.Errorf("%s: bad cell accepted", tc.name)
		}
	}
	if err := variantCheck(t, chaos, "gerenuk (stragglers, hedged)")(hedgedRun(2, 20*time.Millisecond)); !errors.Is(err, errHedgeSlower) {
		t.Errorf("slower hedged run: %v, want errHedgeSlower", err)
	}
}

// TestTableChecksReject holds each table-wide predicate to failing a
// table where only its counter never ticked.
func TestTableChecksReject(t *testing.T) {
	for _, tc := range []struct {
		m        Matrix
		counters []string
	}{
		{recoveryMatrix, []string{"recovery_reexec_total", "recovery_checkpoint_resumes_total", "recovery_checkpoint_corrupt_total"}},
		{streamMatrix, []string{"stream_batches_total", "stream_window_resumes_total"}},
	} {
		for _, missing := range append(tc.counters, "") {
			c := &Cell{Counters: map[string]int64{}}
			for _, counter := range tc.counters {
				if counter != missing {
					c.Counters[counter] = 1
				}
			}
			if err := tc.m.Check([]*Cell{c}); (err == nil) != (missing == "") {
				t.Errorf("%s without %q: %v", tc.m.ID, missing, err)
			}
		}
	}
}

// TestMatrixRunsTableCheck: a table whose cells pass fails on its
// table-wide predicate.
func TestMatrixRunsTableCheck(t *testing.T) {
	miss := errors.New("never ticked")
	_, err := Matrix{Apps: []string{"PR"}, Variants: []Variant{{Name: "quiet"}},
		Runner: func(*Cell, Config) error { return nil },
		Check:  func([]*Cell) error { return miss }}.Run(Quick())
	if !errors.Is(err, miss) {
		t.Errorf("table check not applied: %v", err)
	}
}

// TestMatrixFindsLeftSpillFiles: a cell that leaves a file in the spill
// directory fails, and its row says so.
func TestMatrixFindsLeftSpillFiles(t *testing.T) {
	cfg := Quick()
	cfg.Shuffle.SpillDir = t.TempDir()
	r, err := Matrix{Apps: []string{"PR"}, Variants: []Variant{{Name: "leaky"}},
		Runner: func(c *Cell, cfg Config) error {
			return os.WriteFile(filepath.Join(cfg.Shuffle.SpillDir, "run-"+c.Mode.String()), nil, 0o644)
		},
		Row: func(cells []*Cell) []string { return appRow(cells) }}.Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "spill directory") {
		t.Errorf("left spill file not reported: %v", err)
	}
	if r == nil || len(r.Table.Rows) != 2 || r.Table.Rows[0][2] != "FAILED (leaky)" {
		t.Errorf("failed cell not marked in its row: %v", r)
	}
}

// TestMatrixCountsPerCell: under the caller's tracer, a cell's counters
// are what its own run added.
func TestMatrixCountsPerCell(t *testing.T) {
	cfg := Quick()
	cfg.Trace = trace.New()
	_, err := Matrix{Apps: []string{"PR", "IUF"}, Variants: []Variant{{Name: "tick",
		Runner: func(_ *Cell, cfg Config) error {
			cfg.Trace.Registry().Counter("ticks_total").Add(1)
			return nil
		},
		Check: func(c *Cell) error {
			if n := c.Counters["ticks_total"]; n != 1 {
				return fmt.Errorf("cell counted %d ticks, ran 1", n)
			}
			return nil
		}}}}.Run(cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestMatrixLeaksNoGoroutines runs the hedge and recovery tables for one
// Spark and one Hadoop app and, after each cell, waits up to 1 s for the
// goroutine count to fall back to its value before the cell: a hedge
// loser, a watchdog or a rebuild left running fails it. It is not
// parallel, so no other test's goroutines count. Cells count, as the
// recovery table's do, so the variants' counter predicates hold.
func TestMatrixLeaksNoGoroutines(t *testing.T) {
	for _, variants := range [][]Variant{hedgeVariants, recoveryMatrix.Variants} {
		m := Matrix{Apps: []string{"PR", "IUF"}, Variants: slices.Clone(variants), Counters: true}
		for i := range m.Variants {
			v := &m.Variants[i]
			mutate, check := v.Mutate, v.Check
			var before int
			v.Mutate = func(c *Config) {
				if mutate != nil {
					mutate(c)
				}
				before = runtime.NumGoroutine()
			}
			v.Check = func(c *Cell) error {
				for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return fmt.Errorf("%d goroutines a second after the run, %d before it", runtime.NumGoroutine(), before)
					}
				}
				if check != nil {
					return check(c)
				}
				return nil
			}
		}
		if _, err := m.Run(Quick()); err != nil {
			t.Error(err)
		}
	}
}
