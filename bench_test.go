// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation at test scale (one testing.B benchmark per
// experiment) and assert the headline result *shapes* in regular tests:
// Gerenuk beats the baseline end to end, memory drops, GC all but
// disappears, Tungsten wins WordCount but loses PageRank, and aborts
// cost roughly a SER re-execution.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

func quickCfg() bench.Config { return bench.Quick() }

// ---- Figure/Table benchmarks (one per paper artifact) ----

func BenchmarkFigure4Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5SpaceRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure5(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkApp(b *testing.B, app string, mode engine.Mode) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunApp(app, quickCfg(), mode); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 6(a): the five Spark programs, baseline vs Gerenuk.
func BenchmarkFigure6aSparkPRBaseline(b *testing.B) { benchmarkApp(b, "PR", engine.Baseline) }
func BenchmarkFigure6aSparkPRGerenuk(b *testing.B)  { benchmarkApp(b, "PR", engine.Gerenuk) }
func BenchmarkFigure6aSparkKMBaseline(b *testing.B) { benchmarkApp(b, "KM", engine.Baseline) }
func BenchmarkFigure6aSparkKMGerenuk(b *testing.B)  { benchmarkApp(b, "KM", engine.Gerenuk) }
func BenchmarkFigure6aSparkLRBaseline(b *testing.B) { benchmarkApp(b, "LR", engine.Baseline) }
func BenchmarkFigure6aSparkLRGerenuk(b *testing.B)  { benchmarkApp(b, "LR", engine.Gerenuk) }
func BenchmarkFigure6aSparkCSBaseline(b *testing.B) { benchmarkApp(b, "CS", engine.Baseline) }
func BenchmarkFigure6aSparkCSGerenuk(b *testing.B)  { benchmarkApp(b, "CS", engine.Gerenuk) }
func BenchmarkFigure6aSparkGBBaseline(b *testing.B) { benchmarkApp(b, "GB", engine.Baseline) }
func BenchmarkFigure6aSparkGBGerenuk(b *testing.B)  { benchmarkApp(b, "GB", engine.Gerenuk) }

// Figure 6(b): the seven Hadoop programs, baseline vs Gerenuk.
func BenchmarkFigure6bHadoopIUFBaseline(b *testing.B) { benchmarkApp(b, "IUF", engine.Baseline) }
func BenchmarkFigure6bHadoopIUFGerenuk(b *testing.B)  { benchmarkApp(b, "IUF", engine.Gerenuk) }
func BenchmarkFigure6bHadoopUAHBaseline(b *testing.B) { benchmarkApp(b, "UAH", engine.Baseline) }
func BenchmarkFigure6bHadoopUAHGerenuk(b *testing.B)  { benchmarkApp(b, "UAH", engine.Gerenuk) }
func BenchmarkFigure6bHadoopSPFBaseline(b *testing.B) { benchmarkApp(b, "SPF", engine.Baseline) }
func BenchmarkFigure6bHadoopSPFGerenuk(b *testing.B)  { benchmarkApp(b, "SPF", engine.Gerenuk) }
func BenchmarkFigure6bHadoopUEDBaseline(b *testing.B) { benchmarkApp(b, "UED", engine.Baseline) }
func BenchmarkFigure6bHadoopUEDGerenuk(b *testing.B)  { benchmarkApp(b, "UED", engine.Gerenuk) }
func BenchmarkFigure6bHadoopCEDBaseline(b *testing.B) { benchmarkApp(b, "CED", engine.Baseline) }
func BenchmarkFigure6bHadoopCEDGerenuk(b *testing.B)  { benchmarkApp(b, "CED", engine.Gerenuk) }
func BenchmarkFigure6bHadoopIMCBaseline(b *testing.B) { benchmarkApp(b, "IMC", engine.Baseline) }
func BenchmarkFigure6bHadoopIMCGerenuk(b *testing.B)  { benchmarkApp(b, "IMC", engine.Gerenuk) }
func BenchmarkFigure6bHadoopTFCBaseline(b *testing.B) { benchmarkApp(b, "TFC", engine.Baseline) }
func BenchmarkFigure6bHadoopTFCGerenuk(b *testing.B)  { benchmarkApp(b, "TFC", engine.Gerenuk) }

// Figures 7(a)/7(b) and Table 3 derive from the same runs as Figure 6;
// the peak-memory accounting is exercised by every app benchmark above.
// BenchmarkFigure7Memory runs the whole Spark suite once per iteration,
// producing both the runtime and memory artifacts.
func BenchmarkFigure7Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := bench.RunSparkSuite(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		bench.Figure7a(s)
	}
}

func BenchmarkFigure8aPageRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8a(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8bWordCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8b(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Yak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10aAborts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure10a(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10bForcedAborts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure10b(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.StaticStats(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks (DESIGN.md section 4) ----

// AblationInterpOverhead: baseline vs Gerenuk on the same app isolates
// the representation costs, since both share the interpreter loop.
func BenchmarkAblationInterpOverheadBaseline(b *testing.B) { benchmarkApp(b, "LR", engine.Baseline) }
func BenchmarkAblationInterpOverheadGerenuk(b *testing.B)  { benchmarkApp(b, "LR", engine.Gerenuk) }

// AblationGCPolicy: the same Hadoop job under Parallel Scavenge vs the
// Yak region policy (see Figure 9 for the three-way comparison).
func BenchmarkAblationGCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Shape assertions (the paper's qualitative claims) ----

// timedShape asserts shapes derived from wall-clock or GC time. Load from
// a neighbouring process can push any one measurement out of its band, so
// such a shape fails only when three independent measurements all
// violate it; no band is widened to make room for noise. violation says
// what a result gets wrong ("" = in shape). The result returned is the
// one that passed, or the last one measured: checks derived from counts
// or bytes are deterministic and assert on it once, with no retry.
func timedShape(t *testing.T, measure func() (*bench.Result, error),
	violation func(*bench.Result) string) *bench.Result {
	t.Helper()
	const measurements = 3
	var r *bench.Result
	var bad string
	for i := 1; i <= measurements; i++ {
		var err error
		if r, err = measure(); err != nil {
			t.Fatal(err)
		}
		if bad = violation(r); bad == "" {
			return r
		}
		t.Logf("measurement %d of %d out of shape: %s", i, measurements, bad)
	}
	t.Errorf("out of shape in all %d measurements; the last: %s", measurements, bad)
	return r
}

func TestShapeFigure4(t *testing.T) {
	r, err := bench.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r.Checks["ratio"]; ratio < 2.0 || ratio > 3.5 {
		t.Errorf("heap/inline ratio = %.2f, want ~2.8 (paper 2.79)", ratio)
	}
}

func TestShapeFigure5(t *testing.T) {
	r, err := bench.Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if overall := r.Checks["overall"]; overall < 2.0 {
		t.Errorf("object/serialized ratio = %.2f, want > 2 (paper 3.5)", overall)
	}
}

func TestShapeSparkSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	var s *bench.Suite
	timedShape(t, func() (r *bench.Result, err error) {
		if s, err = bench.RunSparkSuite(quickCfg()); err != nil {
			return nil, err
		}
		return bench.Figure6a(s), nil
	}, func(r *bench.Result) string {
		if sp := r.Checks["overall_speedup"]; sp < 1.2 {
			return fmt.Sprintf("Spark overall speedup = %.2f, want > 1.2 (paper 1.96)", sp)
		}
		return ""
	})
	if s == nil {
		return
	}
	mem := bench.Figure7a(s)
	if ratio := mem.Checks["overall_ratio"]; ratio > 1.0 {
		t.Errorf("Spark memory ratio = %.2f, want < 1 (paper 0.82)", ratio)
	}
}

func TestShapeHadoopSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	timedShape(t, func() (*bench.Result, error) {
		s, err := bench.RunHadoopSuite(quickCfg())
		if err != nil {
			return nil, err
		}
		return bench.Figure6b(s), nil
	}, func(r *bench.Result) string {
		if sp := r.Checks["overall_speedup"]; sp < 1.1 {
			return fmt.Sprintf("Hadoop overall speedup = %.2f, want > 1.1 (paper 1.4)", sp)
		}
		return ""
	})
}

func TestShapeFigure9(t *testing.T) {
	timedShape(t, func() (*bench.Result, error) { return bench.Figure9(quickCfg()) },
		func(r *bench.Result) string {
			if sp := r.Checks["speedup_vs_ps"]; sp < 1.05 {
				return fmt.Sprintf("Gerenuk vs Parallel Scavenge = %.2f, want > 1.05 (paper 2.4)", sp)
			}
			// A ratio of GC times, not of GC counts: as load-sensitive as
			// the speedup.
			if gc := r.Checks["gc_reduction_vs_ps"]; gc < 2 {
				return fmt.Sprintf("GC reduction = %.2f, want large (paper 13.7)", gc)
			}
			return ""
		})
}

func TestShapeFigure10a(t *testing.T) {
	r := timedShape(t, func() (*bench.Result, error) { return bench.Figure10a(quickCfg()) },
		func(r *bench.Result) string {
			// Aborts erase the usual ~2x win: the transformed version lands
			// near (paper: 7% above) the baseline. At test scale, whether
			// every reduce partition contains a resizing vector varies, so
			// accept a band around parity rather than a point.
			if slow := r.Checks["slowdown"]; slow < 0.7 || slow > 2.0 {
				return fmt.Sprintf("SOA slowdown = %.2f, want ~1.07 (paper)", slow)
			}
			return ""
		})
	if r.Checks["aborts"] == 0 {
		t.Errorf("SOA triggered no aborts")
	}
}

func TestShapeFigure10b(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	r := timedShape(t, func() (*bench.Result, error) { return bench.Figure10b(quickCfg()) },
		func(r *bench.Result) string {
			// More forced aborts must cost more (compare the extremes;
			// small counts are noise-dominated at test scale).
			if rel := r.Checks["rel_20"]; rel <= 1.0 {
				return fmt.Sprintf("20 forced aborts not slower than 0: rel=%.2f", rel)
			}
			return ""
		})
	if r.Checks["aborts_20"] != 20 {
		t.Errorf("forced abort budget delivered %v aborts, want 20", r.Checks["aborts_20"])
	}
}

func TestShapeFigure8(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run")
	}
	timedShape(t, func() (*bench.Result, error) { return bench.Figure8a(quickCfg()) },
		func(r *bench.Result) string {
			if v := r.Checks["gerenuk_vs_tungsten"]; v < 0.95 {
				return fmt.Sprintf("PageRank: Gerenuk/Tungsten = %.2f, want >= ~1 (paper 2.2)", v)
			}
			return ""
		})
	timedShape(t, func() (*bench.Result, error) { return bench.Figure8b(quickCfg()) },
		func(r *bench.Result) string {
			if v := r.Checks["tungsten_vs_gerenuk"]; v < 1.0 {
				return fmt.Sprintf("WordCount: Tungsten should win (paper ~1.2x), got %.2f", v)
			}
			return ""
		})
}

func TestStaticStatsReport(t *testing.T) {
	r, err := bench.StaticStats()
	if err != nil {
		t.Fatal(err)
	}
	if r.Checks["spark_classes"] < 10 {
		t.Errorf("spark classes touched = %v, expected a broad set", r.Checks["spark_classes"])
	}
	if r.Checks["spark_violations"] < 1 {
		t.Errorf("no violation points found across the Spark suite")
	}
}
