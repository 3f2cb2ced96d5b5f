package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The structural rules keep exactly one copy of the paper's execution
// shape: a task is one SER, decided from its attempts in one place, run
// by one stage runner and moved through one exchange. Each rule counts
// sites in the non-test source (perfbench/, testdata and hidden
// directories excluded; test files too, unless a rule counts them) and
// fails, naming every site, when a count exceeds its bound.

// srcFile is one parsed non-test Go file.
type srcFile struct {
	rel     string // slash-separated path from the repo root
	test    bool   // a _test.go file
	f       *ast.File
	imports map[string]string // local package name → import path
}

// pkgSel reports whether e is pkg.name, with pkg resolving in s to the
// import path importPath.
func (s *srcFile) pkgSel(e ast.Expr, importPath, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && s.imports[id.Name] == importPath
}

// calls reports whether n is a call of importPath's fn, or of any
// function or method named fn when importPath is empty.
func (s *srcFile) calls(n ast.Node, importPath, fn string) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	if importPath != "" {
		return s.pkgSel(c.Fun, importPath, fn)
	}
	return named(c.Fun, fn)
}

// inFuncLit reports whether n lies inside a function literal.
func (s *srcFile) inFuncLit(n ast.Node) bool {
	in := false
	ast.Inspect(s.f, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok && fl.Pos() <= n.Pos() && n.End() <= fl.End() {
			in = true
		}
		return !in
	})
	return in
}

// rule is one structural bound: at least min and at most max nodes
// matching match in the files scope selects, test files included when
// tests is set.
type rule struct {
	name     string
	min, max int
	tests    bool
	scope    func(rel string) bool
	match    func(s *srcFile, n ast.Node) bool
}

func under(dirs ...string) func(string) bool {
	return func(rel string) bool {
		for _, d := range dirs {
			if strings.HasPrefix(rel, d+"/") || rel == d {
				return true
			}
		}
		return false
	}
}

func outside(dirs ...string) func(string) bool {
	in := under(dirs...)
	return func(rel string) bool { return !in(rel) }
}

var (
	stageName = regexp.MustCompile(`^[a-zA-Z]+Stage$`)
	// flagDefiners are the flag.FlagSet methods that define a flag.
	flagDefiners = map[string]bool{
		"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
		"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
		"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
		"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
	}
)

// mirroredSeries are the registry counters that mirror a
// metrics.Breakdown or shuffle.Stats field. Each is published from the
// record where its layer folds it (engine: taskRun.finish and
// Pool.runWithRetry; shuffle: Exchange.addStats), so a second bump site
// could only make the registry disagree with the breakdown.
var mirroredSeries = []string{
	"aborts_total", "native_skips_total", "hedges_total", "hedge_wins_total", "retries_total",
	"shuffle_spills_total", "shuffle_bytes_spilled_total", "shuffle_bytes_written_total",
	"shuffle_bytes_fetched_total", "shuffle_fetch_retries_total", "shuffle_records_fetched_total",
}

// mirrorRules holds each mirrored series to exactly one Counter call
// naming it in the non-test source.
func mirrorRules() []rule {
	var rules []rule
	for _, series := range mirroredSeries {
		rules = append(rules, rule{
			name:  fmt.Sprintf("one record: exactly one Counter(%q) call", series),
			min:   1,
			max:   1,
			scope: outside(),
			match: func(s *srcFile, n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok || !named(c.Fun, "Counter") || len(c.Args) != 1 {
					return false
				}
				lit, ok := c.Args[0].(*ast.BasicLit)
				return ok && lit.Value == strconv.Quote(series)
			},
		})
	}
	return rules
}

var structureRules = append([]rule{
	{
		// The stage runner's pool and watchdog are built only by the job
		// runtime (internal/job: RunStage) and the packages it runs on.
		name:  "one stage runner: no recovery.Watchdog or engine.Pool literal outside internal/{job,engine,shuffle}",
		max:   0,
		scope: outside("internal/job", "internal/engine", "internal/shuffle"),
		match: func(s *srcFile, n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			return ok && (s.pkgSel(cl.Type, "repro/internal/recovery", "Watchdog") ||
				s.pkgSel(cl.Type, "repro/internal/engine", "Pool"))
		},
	},
	{
		// One exchange lifecycle: internal/job's ShuffleBy constructs,
		// fills and fetches every exchange.
		name:  "one exchange: no .FetchAll() or shuffle.NewExchange call outside internal/{job,engine,shuffle}",
		max:   0,
		scope: outside("internal/job", "internal/engine", "internal/shuffle"),
		match: func(s *srcFile, n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			return ok && (s.calls(c, "repro/internal/shuffle", "NewExchange") ||
				s.calls(c, "", "FetchAll") && len(c.Args) == 0)
		},
	},
	{
		// Driver-side fan-out (map writers, grouping, sorts) goes through
		// engine.ForEach, bounded by the pool's Workers; a front-end that
		// starts its own goroutines escapes that bound and its
		// deterministic error order.
		name:  "one fan-out: no go statement in internal/{spark,hadoop,stream,job}",
		max:   0,
		scope: under("internal/spark", "internal/hadoop", "internal/stream", "internal/job"),
		match: func(s *srcFile, n ast.Node) bool {
			_, ok := n.(*ast.GoStmt)
			return ok
		},
	},
	{
		// "Decide a task from its attempts" lives once (speculate,
		// settleNative, settleHeap): a native attempt's error is
		// classified as failed speculation at one comparison.
		name:  "one abort edge: at most one ==/!= AbortSpeculation comparison in internal/engine",
		max:   1,
		scope: under("internal/engine"),
		match: func(s *srcFile, n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return false
			}
			return named(b.X, "AbortSpeculation") || named(b.Y, "AbortSpeculation")
		},
	},
	{
		name:  "one task runtime: at most one runHeapAttempt call in internal/engine",
		max:   1,
		scope: under("internal/engine"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "", "runHeapAttempt") },
	},
	{
		name:  "one task runtime: at most one runNativeAttempt call in internal/engine",
		max:   1,
		scope: under("internal/engine"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "", "runNativeAttempt") },
	},
	{
		// A task attempt's simulated heap and arena come from the free
		// lists on engine.Compiled (internal/engine/memory.go); a second
		// construction site would bring back fresh memory per attempt.
		name:  "one allocation site per attempt resource: at most one heap.New call in internal/engine",
		max:   1,
		scope: under("internal/engine"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "repro/internal/heap", "New") },
	},
	{
		name:  "one allocation site per attempt resource: at most one arena.New call in internal/engine",
		max:   1,
		scope: under("internal/engine"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "repro/internal/arena", "New") },
	},
	{
		// Each Spark program declares its stage drivers once, in the
		// sparkapps catalog. The only driver names left quoted are the
		// stages Figures 5 and 10(b) run by hand.
		name:  `one catalog of applications: at most 9 "…Stage" literals in cmd/ and internal/bench`,
		max:   9,
		scope: under("cmd", "internal/bench"),
		match: func(s *srcFile, n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return false
			}
			v, err := strconv.Unquote(lit.Value)
			return err == nil && stageName.MatchString(v)
		},
	},
	{
		// Every flag needs a caller that sets it. A new one must replace
		// an old one or raise this bound in a change that says which
		// caller needs it.
		name:  "flag surface: at most 29 flag definitions in gerenukrun, gerenukbench, gerenukd and internal/bench/flags.go",
		max:   29,
		scope: under("cmd/gerenukrun", "cmd/gerenukbench", "cmd/gerenukd", "internal/bench/flags.go"),
		match: func(s *srcFile, n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			// A definition takes a name, a value and a usage string; the
			// *Var forms add the destination.
			return ok && flagDefiners[sel.Sel.Name] && len(c.Args) >= 3
		},
	},
	{
		// Key order is the exchange's: its writers sort each reducer's
		// records once (Writer.sortBuf) and a key-ordered fetch merges
		// them. A front-end or the job runtime sorting records would be a
		// second definition of the order and a second pass over the data.
		name:  "one key order: no call into package sort and no slices.Sort* call in internal/{spark,hadoop,job}",
		max:   0,
		scope: under("internal/spark", "internal/hadoop", "internal/job"),
		match: func(s *srcFile, n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && (s.imports[pkg.Name] == "sort" ||
				s.imports[pkg.Name] == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		},
	},
	{
		name:  "one key order: exactly one slices.SortFunc call in internal/shuffle",
		min:   1,
		max:   1,
		scope: under("internal/shuffle"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "slices", "SortFunc") },
	},
	{
		// An unbounded source's At runs once per record, inside a
		// function literal; seeding a math/rand source there costs the
		// full 607-entry seeding per record. Per-record draws go
		// through workload's lazily seeded recSource instead.
		name:  "per-record sources never seed math/rand: no rand.NewSource call inside a function literal in internal/{workload,stream}",
		max:   0,
		scope: under("internal/workload", "internal/stream"),
		match: func(s *srcFile, n ast.Node) bool {
			return s.calls(n, "math/rand", "NewSource") && s.inFuncLit(n)
		},
	},
	{
		// The per-dataset generators in workload.go seed once per
		// dataset, at function top level. A new call site is either one
		// more such generator, raising this bound, or a per-record seed
		// hidden behind a named helper.
		name:  "per-record sources never seed math/rand: exactly 7 top-level rand.NewSource calls in internal/{workload,stream}",
		min:   7,
		max:   7,
		scope: under("internal/workload", "internal/stream"),
		match: func(s *srcFile, n ast.Node) bool {
			return s.calls(n, "math/rand", "NewSource") && !s.inFuncLit(n)
		},
	},
	{
		// Record bytes are checked once, where they enter the exchange:
		// engine.KeyReader.Next, the one serde.RecordSize call below that
		// checks what it reads, under Writer.Add and a spill run's
		// decodeRun. Every other call is an unchecked walk over bytes
		// that passed that check or that this process encoded: the
		// engine's record sources, offsets, counts, grouping and
		// partitioning, the fetch's merge and baseline decode, the
		// interpreter's deserialize span and one figure's footprint scan.
		// A new walk needs a place behind the check, and a raised bound.
		name:  "one record check: at most 11 serde.RecordSize calls outside internal/serde",
		max:   11,
		scope: outside("internal/serde"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "repro/internal/serde", "RecordSize") },
	},
	{
		// Records reach a streaming window through one feed
		// (runner.feed: a live batch, or a rebuild replaying the run's
		// batches), and a window's bytes are folded in one place
		// (foldWindow). A third stage would be a second way to build
		// window state.
		name:  "one window feed: at most two RunStage calls in internal/stream",
		max:   2,
		scope: under("internal/stream"),
		match: func(s *srcFile, n ast.Node) bool { return s.calls(n, "", "RunStage") },
	},
	{
		// The central promise (gerenuk == baseline == interp == compiled
		// == streamed == recovered) is checked by one runner, bench.Matrix:
		// a pass or differential test is a table of variants over it, not
		// another loop over the modes. The one literal left is the
		// matrix's default modes.
		name:  "one differential loop: at most one []engine.Mode{…} literal in internal/bench, test files included",
		max:   1,
		tests: true,
		scope: under("internal/bench"),
		match: func(s *srcFile, n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return false
			}
			at, ok := cl.Type.(*ast.ArrayType)
			return ok && at.Len == nil && s.pkgSel(at.Elt, "repro/internal/engine", "Mode")
		},
	},
	{
		// A job's cost is charged by internal/job alone (RunStage,
		// ShuffleBy), under one rule: Total is summed busy time. A
		// front-end timing its own work into Total would charge a second
		// rule beside it.
		name:  "one record: no assignment to a Total field in internal/{spark,hadoop,stream}",
		max:   0,
		scope: under("internal/spark", "internal/hadoop", "internal/stream"),
		match: func(s *srcFile, n ast.Node) bool {
			total := func(e ast.Expr) bool {
				sel, ok := e.(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "Total"
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				return slices.ContainsFunc(n.Lhs, total)
			case *ast.IncDecStmt:
				return total(n.X)
			}
			return false
		},
	},
}, mirrorRules()...)

// named reports whether e is the identifier name, or a selector x.name.
func named(e ast.Expr, name string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		return e.Sel.Name == name
	}
	return false
}

// parseSource parses every .go file under root, skipping perfbench/,
// testdata and hidden directories.
func parseSource(t *testing.T, root string) (*token.FileSet, []*srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*srcFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		if d.IsDir() {
			name := d.Name()
			if rel == "perfbench" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if path.Ext(rel) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s := &srcFile{rel: rel, test: strings.HasSuffix(rel, "_test.go"), f: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			s.imports[local] = ip
		}
		files = append(files, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

func TestStructuralRules(t *testing.T) {
	fset, files := parseSource(t, ".")
	for _, r := range structureRules {
		var sites []string
		scoped := 0
		for _, s := range files {
			if s.test && !r.tests || !r.scope(s.rel) {
				continue
			}
			scoped++
			ast.Inspect(s.f, func(n ast.Node) bool {
				if n != nil && r.match(s, n) {
					p := fset.Position(n.Pos())
					sites = append(sites, fmt.Sprintf("%s:%d", s.rel, p.Line))
				}
				return true
			})
		}
		// A rule whose scope matched nothing would pass vacuously after a
		// directory moves.
		if scoped == 0 {
			t.Errorf("%s: no source file in scope", r.name)
		}
		t.Logf("%s: %d sites", r.name, len(sites))
		if len(sites) > r.max {
			t.Errorf("%s: %d sites, bound %d:\n\t%s", r.name, len(sites), r.max, strings.Join(sites, "\n\t"))
		}
		if len(sites) < r.min {
			t.Errorf("%s: %d sites, want at least %d", r.name, len(sites), r.min)
		}
	}
}
