package bench

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Matrix is the one differential runner behind every verification pass
// and differential test. Each app (default: every app RunApp runs), in
// Baseline then Gerenuk mode, under each variant is one cell, run in
// that order and judged by its variant. Row renders an app and mode's
// cells as one table row, or each cell as a row with PerCell; Check
// judges the whole table, and Notes are added when every cell passed.
// Runner replaces RunApp in every cell, and Counters gives each cell a
// private tracer when the caller has none (tables that time runs leave
// it off).
type Matrix struct {
	ID, Title string
	Header    []string
	Apps      []string
	Variants  []Variant
	Runner    Runner
	Counters  bool
	Row       func(cells []*Cell) []string
	PerCell   bool
	Check     func(cells []*Cell) error
	Notes     func(cells []*Cell) []string
}

// Variant is one configuration of a cell. Mutate sets its knobs on a
// copy of the caller's Config, Runner replaces the matrix's, and Only
// is its one mode. Its output must equal that of the latest cell of its
// app run under Ref, a variant listed before it: the same mode's when
// Ref runs in every mode. WantErr is the error its run must fail with,
// Check any further predicate, and OK a passing cell's outcome (default
// "ok").
type Variant struct {
	Name    string
	Only    *engine.Mode
	Mutate  func(*Config)
	Runner  Runner
	Ref     string
	WantErr error
	Check   func(c *Cell) error
	OK      string
}

// Runner runs c's app in c's mode under cfg and fills c's outputs.
type Runner func(c *Cell, cfg Config) error

// Cell is one run: its output and cost record, error and what it added
// to the tracer's registry; Wall, Tasks and Stream where its runner
// reports them. Fail is the first predicate it failed.
type Cell struct {
	App, Variant string
	Mode         engine.Mode
	AppResult
	Wall      time.Duration
	Tasks     int
	Stream    *stream.Result
	Counters  map[string]int64
	Err, Fail error
	Ref       *Cell

	outcome string
	prior   []*Cell // the cells run before this one
}

func mode(m engine.Mode) *engine.Mode { return &m }

// Peer returns the latest cell of c's app run under variant before c.
func (c *Cell) Peer(variant string) *Cell {
	for i := len(c.prior) - 1; i >= 0; i-- {
		if p := c.prior[i]; p.App == c.App && p.Variant == variant {
			return p
		}
	}
	return nil
}

// outcome is a row's outcome: its first failed cell's, else its last.
func outcome(cells []*Cell) string {
	for _, c := range cells {
		if c.Fail != nil {
			return c.outcome
		}
	}
	return cells[len(cells)-1].outcome
}

// total sums counter over the cells run under one of variants (any, when
// none is named).
func total(cells []*Cell, counter string, variants ...string) (n int64) {
	for _, c := range cells {
		if len(variants) == 0 || slices.Contains(variants, c.Variant) {
			n += c.Counters[counter]
		}
	}
	return n
}

// Run runs and judges every cell. A run error its variant does not want
// ends the matrix with a nil Result; failed predicates are joined into
// the error returned with the whole table, each marked in its row.
func (m Matrix) Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if m.Apps == nil {
		m.Apps = allApps()
	}
	r := newResult(m.ID, m.Title, m.Header...)
	var cells []*Cell
	var failed []error
	for _, app := range m.Apps {
		for _, md := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			var group []*Cell
			for _, v := range m.Variants {
				if v.Only != nil && *v.Only != md {
					continue
				}
				c := &Cell{App: app, Mode: md, Variant: v.Name, prior: cells}
				where := fmt.Sprintf("%s %s/%v/%s", m.ID, app, md, v.Name)
				if err := m.run(c, v, cfg); err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				if c.Fail != nil {
					failed = append(failed, fmt.Errorf("%s: %w", where, c.Fail))
				}
				cells, group = append(cells, c), append(group, c)
				if m.Row != nil && m.PerCell {
					r.Table.AddRow(m.Row(group[len(group)-1:])...)
				}
			}
			if m.Row != nil && !m.PerCell && len(group) > 0 {
				r.Table.AddRow(m.Row(group)...)
			}
		}
	}
	if m.Check != nil {
		if err := m.Check(cells); err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", m.ID, err))
		}
	}
	if len(failed) > 0 {
		return r, errors.Join(failed...)
	}
	if m.Notes != nil {
		r.Notes = m.Notes(cells)
	}
	return r, nil
}

// run runs one cell, then judges it, first failure first: the wanted
// error, the reference, an emptied spill directory, the variant's Check.
func (m Matrix) run(c *Cell, v Variant, cfg Config) error {
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	if cfg.Trace == nil && m.Counters {
		cfg.Trace = trace.New()
	}
	before := cfg.Trace.Registry().Snapshot().Counters
	switch {
	case v.Runner != nil:
		c.Err = v.Runner(c, cfg)
	case m.Runner != nil:
		c.Err = m.Runner(c, cfg)
	default:
		c.AppResult, c.Err = RunApp(c.App, cfg, c.Mode)
	}
	c.Counters = cfg.Trace.Registry().Snapshot().Counters
	for k, n := range before {
		c.Counters[k] -= n
	}
	if c.Err != nil && v.WantErr == nil {
		return c.Err
	}
	if c.Ref = c.Peer(v.Ref); v.Ref != "" && c.Ref == nil {
		return fmt.Errorf("no %q cell to compare with", v.Ref)
	}
	left, _ := os.ReadDir(cfg.Shuffle.SpillDir) // none when unset
	switch {
	case v.WantErr != nil && !errors.Is(c.Err, v.WantErr):
		c.Fail = fmt.Errorf("run ended with %v, want %v", c.Err, v.WantErr)
	case c.Ref != nil && !bytes.Equal(c.Out, c.Ref.Out):
		c.Fail = fmt.Errorf("output differs from %s/%v (%d vs %d bytes)", c.Ref.Variant, c.Ref.Mode, len(c.Out), len(c.Ref.Out))
	case len(left) > 0:
		c.Fail = fmt.Errorf("%d entries left in spill directory %s", len(left), cfg.Shuffle.SpillDir)
	case v.Check != nil:
		c.Fail = v.Check(c)
	}
	c.outcome = cmp.Or(v.OK, "ok")
	if c.Fail != nil {
		c.outcome = fmt.Sprintf("FAILED (%s)", v.Name)
	}
	return nil
}
