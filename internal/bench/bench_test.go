package bench

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/hadoopapps"
	"repro/internal/apps/sparkapps"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/serde"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale < 1 || c.Workers < 1 || c.Partitions < 1 || c.Iters < 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
	q := Quick()
	if q.Scale != 1 {
		t.Errorf("quick scale = %d", q.Scale)
	}
	f := Full()
	if f.Scale <= q.Scale {
		t.Errorf("full config not larger than quick")
	}
}

func TestHeapSizesOrdering(t *testing.T) {
	hs := HeapSizes(2)
	if len(hs) != 3 {
		t.Fatalf("heap sizes = %d", len(hs))
	}
	names := []string{"10GB", "15GB", "20GB"}
	for i, h := range hs {
		if h.Name != names[i] {
			t.Errorf("name %d = %s", i, h.Name)
		}
		if i > 0 && h.Cfg.OldSize <= hs[i-1].Cfg.OldSize {
			t.Errorf("heap sizes not increasing")
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := newResult("Figure X", "demo", "a", "b")
	r.Table.AddRow("1", "2")
	r.Notes = append(r.Notes, "hello")
	out := r.Render()
	for _, want := range []string{"Figure X", "demo", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTables1And2AreComplete(t *testing.T) {
	t1 := Table1(Quick())
	if len(t1.Table.Rows) != 5 {
		t.Errorf("Table 1 rows = %d, want 5", len(t1.Table.Rows))
	}
	t2 := Table2(Quick())
	if len(t2.Table.Rows) != 7 {
		t.Errorf("Table 2 rows = %d, want 7", len(t2.Table.Rows))
	}
}

// TestTableInputCounts pins Tables 1 and 2 to the inputs the runs read:
// every row's dataset size is the number of records the app's input
// generator produces at that scale.
func TestTableInputCounts(t *testing.T) {
	cfg := Quick()
	firstInt := regexp.MustCompile(`\d+`)
	check := func(table *Result, apps []string, gen func(app string, scale int) (string, []serde.Obj)) {
		for i, app := range apps {
			row := table.Table.Rows[i]
			_, objs := gen(app, cfg.Scale)
			if got := firstInt.FindString(row[1]); got != strconv.Itoa(len(objs)) {
				t.Errorf("%s %s: row says %q (%s), generator produced %d records",
					table.ID, app, got, row[1], len(objs))
			}
		}
	}
	check(Table1(cfg), SparkAppNames, func(app string, scale int) (string, []serde.Obj) {
		return table1[app].input(scale)
	})
	check(Table2(cfg), hadoopapps.AllApps, hadoopInput)
}

// TestTable1NamesCatalogApps keeps Table 1 from drifting from the
// sparkapps catalog: every row is a catalog program, listed in catalog
// order.
func TestTable1NamesCatalogApps(t *testing.T) {
	if len(SparkAppNames) != len(table1) {
		t.Errorf("SparkAppNames = %v covers %d of %d Table 1 rows", SparkAppNames, len(SparkAppNames), len(table1))
	}
	for app := range table1 {
		if _, ok := sparkapps.Lookup(app); !ok {
			t.Errorf("Table 1 row %q names no sparkapps catalog entry", app)
		}
	}
	if want := []string{"PR", "KM", "LR", "CS", "GB"}; !reflect.DeepEqual(SparkAppNames, want) {
		t.Errorf("SparkAppNames = %v, want %v", SparkAppNames, want)
	}
}

// TestStaticStatsRows pins the compiler statistics of the whole suite:
// each catalog and Table 2 program compiled on its own, and a combiner
// that is its app's reduce driver (IMC) counted once.
func TestStaticStatsRows(t *testing.T) {
	r, err := StaticStats()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"Spark", "21", "17", "1", "291", "21"},
		{"Hadoop", "14", "6", "0", "203", "14"},
	}
	if !reflect.DeepEqual(r.Table.Rows, want) {
		t.Errorf("static stats rows = %v, want %v", r.Table.Rows, want)
	}
}

func TestRunAppDispatch(t *testing.T) {
	if _, err := RunApp("nope", Quick(), engine.Baseline); err == nil {
		t.Errorf("unknown app accepted")
	}
	res, err := RunApp("UAH", Quick(), engine.Gerenuk)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Total == 0 || st.Records == 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestSuiteFindHelpers(t *testing.T) {
	s := &Suite{Runs: []AppRun{
		{App: "PR", HeapName: "10GB", Mode: engine.Baseline},
		{App: "PR", HeapName: "20GB", Mode: engine.Gerenuk},
		{App: "KM", HeapName: "10GB", Mode: engine.Baseline},
		{App: "PR", HeapName: "10GB", Mode: engine.Gerenuk},
		{App: "IMC", Mode: engine.Gerenuk},
		{App: "IMC", Mode: engine.Baseline},
	}}
	if _, ok := s.Find("PR", "10GB", engine.Gerenuk); !ok {
		t.Errorf("Find missed an existing run")
	}
	if _, ok := s.Find("KM", "10GB", engine.Gerenuk); ok {
		t.Errorf("Find matched the wrong mode")
	}
	if _, ok := s.Find("IMC", "", engine.Baseline); !ok {
		t.Errorf("Find missed a run without a heap size")
	}
	// Baselines in run order, each with its own-heap twin; KM has none.
	var got []string
	for _, p := range s.pairs() {
		if p[0].Mode != engine.Baseline || p[1].Mode != engine.Gerenuk ||
			p[0].App != p[1].App || p[0].HeapName != p[1].HeapName {
			t.Errorf("mismatched pair %+v", p)
		}
		got = append(got, p[0].App+"/"+p[0].HeapName)
	}
	if want := []string{"PR/10GB", "IMC/"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}

// TestStageHookObservesEveryRun checks the suite-level hook fires for
// both engines with the stage's own (not yet folded) breakdown, and
// that mutations it makes propagate into the job totals the runner
// returns — the contract the GC attributor depends on.
func TestStageHookObservesEveryRun(t *testing.T) {
	var mu sync.Mutex
	type call struct {
		app, stage string
		mode       engine.Mode
	}
	var calls []call
	cfg := sized(1, 2, 2, 1)
	cfg.StageHook = func(app string, mode engine.Mode, stage string, stats *metrics.Breakdown, wall time.Duration) {
		mu.Lock()
		calls = append(calls, call{app, stage, mode})
		mu.Unlock()
		if wall <= 0 {
			t.Errorf("%s/%s: wall = %v, want > 0", app, stage, wall)
		}
		stats.GCAttributed += time.Microsecond
	}

	res, err := RunApp("PR", cfg, engine.Gerenuk)
	if err != nil {
		t.Fatalf("RunApp(PR): %v", err)
	}
	sparkCalls := len(calls)
	if sparkCalls == 0 {
		t.Fatal("StageHook never fired for the spark app")
	}
	if want := time.Duration(sparkCalls) * time.Microsecond; res.Stats.GCAttributed != want {
		t.Errorf("spark GCAttributed = %v, want %v (hook mutation must fold into totals)",
			res.Stats.GCAttributed, want)
	}

	calls = nil
	res, err = RunApp("IUF", cfg, engine.Gerenuk)
	if err != nil {
		t.Fatalf("RunApp(IUF): %v", err)
	}
	stages := map[string]bool{}
	for _, c := range calls {
		if c.app != "IUF" || c.mode != engine.Gerenuk {
			t.Errorf("unexpected hook call %+v", c)
		}
		stages[c.stage] = true
	}
	if !stages["map"] || !stages["reduce"] {
		t.Errorf("hadoop stages seen = %v, want map and reduce", stages)
	}
	if res.Stats.GCAttributed != time.Duration(len(calls))*time.Microsecond {
		t.Errorf("hadoop GCAttributed = %v, want %v", res.Stats.GCAttributed,
			time.Duration(len(calls))*time.Microsecond)
	}
}
