package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTable pins BENCHMARK.json and `-list` to the one
// table in table.go, and the table to the limits the driver enforces.
func TestManifestMatchesTable(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the table: regenerate it with `go run ./perfbench -manifest > BENCHMARK.json`")
	}
	list := listText()
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if !strings.Contains(list, name) {
			t.Errorf("-list does not mention %q", name)
		}
	}
	if n := len(workloadTable); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadTable {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if d.Source != inSitu && d.Source != replay {
			t.Errorf("%s: source %q", d.Name, d.Source)
		}
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
}

func quickConfig(t *testing.T) runConfig {
	t.Helper()
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	tmp, err := scratchDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{
		seed: goldenSeed, minJobs: 1, setups: 1, runs: 1, e2e: true, layers: true, quick: true,
		env: env{workers: 2, sz: quickSizes, tmp: tmp}, rec: newRecorder(), golden: g,
	}
}

// TestWorkloadsQuick runs every workload once at -quick sizes: outputs
// match the Baseline reference and the golden digests, and every
// declared metric is present and finite.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloadTable {
		t.Run(w.Name, func(t *testing.T) {
			c := quickConfig(t)
			res, err := runWorkload(w.Name, c)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Note)
			}
			if miss := res.Runs[0].missing(endToEnd); len(miss) > 0 {
				t.Errorf("end-to-end metrics missing: %v", miss)
			}
			for name, v := range res.Runs[0] {
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v, want a positive finite number", name, v.Value)
				}
			}
			if miss := res.PerLayer.missing(perLayer); len(miss) > 0 {
				t.Errorf("per-layer metrics missing: %v", miss)
			}
			for name, v := range res.PerLayer {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v, want a finite number", name, v.Value)
				}
			}
			commit := res.PerLayer["engine.commit_ratio"].Value
			heapShare := res.PerLayer["engine.heap_task_share"].Value
			if w.Name == "pr-deopt" {
				if commit != 0 || heapShare < 0.5 {
					t.Errorf("pr-deopt: commit ratio %v, heap share %v; every task should abort to the heap path", commit, heapShare)
				}
			} else if commit != 1 || heapShare != 0 {
				t.Errorf("commit ratio %v, heap share %v; no speculation should fail here", commit, heapShare)
			}
			checkSpans(t, c.rec)
		})
	}
}

// checkSpans asserts the span tree is well formed: children lie inside
// their parents, no self time is negative, and the self times under a
// root add up to the root's duration.
func checkSpans(t *testing.T, rec *recorder) {
	t.Helper()
	if len(rec.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	self := rec.selfTimes()
	rootOf := make(map[int]int, len(rec.spans))
	sum := map[int]time.Duration{}
	replays := 0
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
			if strings.HasPrefix(s.Name, "replay:") {
				replays++
			}
		} else {
			p := rec.spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d %s [%v, %v] escapes its parent %s [%v, %v]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			rootOf[s.ID] = rootOf[s.Parent]
		}
		if self[s.ID] < 0 {
			t.Errorf("span %d %s has negative self time %v: its children overlap", s.ID, s.Name, self[s.ID])
		}
		sum[rootOf[s.ID]] += self[s.ID]
	}
	for root, total := range sum {
		if r := rec.spans[root-1]; total != r.End-r.Start {
			t.Errorf("self times under %s sum to %v, the span lasted %v", r.Name, total, r.End-r.Start)
		}
	}
	if replays != 1 {
		t.Errorf("%d layer-replay root spans, want 1", replays)
	}
}

// TestDeoptCountsRepeat: the program-made counts a later claim may rest
// on must repeat exactly from run to run.
func TestDeoptCountsRepeat(t *testing.T) {
	var counts [2][3]float64
	for i := range counts {
		c := quickConfig(t)
		c.e2e = false
		res, err := runWorkload("pr-deopt", c)
		if err != nil {
			t.Fatal(err)
		}
		for k, name := range []string{"engine.attempts", "engine.aborts", "engine.records"} {
			counts[i][k] = res.PerLayer[name].Value
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("attempts/aborts/records differ between runs: %v vs %v", counts[0], counts[1])
	}
	if counts[0][0] == 0 || counts[0][0] != counts[0][1] {
		t.Errorf("attempts %v, aborts %v: every attempt should abort", counts[0][0], counts[0][1])
	}
}

// TestDriverContract runs the command line the driver runs and parses
// its last line.
func TestDriverContract(t *testing.T) {
	// The scratch directory goes under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		code := run([]string{"--workload", "km-native", "--seed", "7", "--seconds", "0", "--trace", trace, "-quick"}, &out)
		if code != 0 {
			t.Fatalf("--trace %s: exit code %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   *bool     `json:"correct"`
			Attempted *int      `json:"attempted"`
			Failed    *int      `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("--trace %s: last line is not the result object: %v", trace, err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("--trace %s: bad result header in %s", trace, lines[len(lines)-1])
		}
		if miss := got.Metrics.missing(defs); len(miss) > 0 || len(got.Metrics) != len(defs) {
			t.Errorf("--trace %s: metrics %d, want exactly the %d declared (missing %v)", trace, len(got.Metrics), len(defs), miss)
		}
		for _, d := range defs {
			if got.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("--trace %s: %s has unit %q, want %q", trace, d.Name, got.Metrics[d.Name].Unit, d.Unit)
			}
		}
	}
	if ents, _ := os.ReadDir("."); len(ents) != 0 {
		t.Errorf("the run left %d entries behind in its working directory", len(ents))
	}
}

func testLedger(p50 []float64, failed int) *ledger {
	res := &result{Name: "pr-native", Attempted: 20, Failed: failed, Correct: failed == 0}
	for _, v := range p50 {
		m := metricSet{}
		m.set(endToEnd, "job_wall_p50_s", v)
		m.set(endToEnd, "records_per_s", 1000/v)
		res.Runs = append(res.Runs, m)
	}
	return &ledger{Schema: ledgerSchema, Seed: 1, Procs: 2, Workloads: []*result{res}}
}

// TestCompare: identical files pass, a perturbed one fails, and a
// difference inside the files' own spread is reported as unresolved.
func TestCompare(t *testing.T) {
	steady := []float64{0.300, 0.302, 0.301, 0.299, 0.300}
	cases := []struct {
		name string
		a, b *ledger
		code int
		want string
	}{
		{"identical", testLedger(steady, 0), testLedger(steady, 0), 0, verdictOK},
		{"slower", testLedger(steady, 0), testLedger([]float64{0.400, 0.402, 0.401, 0.399, 0.400}, 0), 1, verdictRegression},
		{"faster", testLedger(steady, 0), testLedger([]float64{0.200, 0.202, 0.201, 0.199, 0.200}, 0), 0, verdictOK},
		{"noisy", testLedger(steady, 0), testLedger([]float64{0.25, 0.45, 0.35, 0.30, 0.40}, 0), 0, verdictUnresolved},
		{"failures", testLedger(steady, 0), testLedger(steady, 2), 1, verdictRegression},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareLedgers(&out, c.a, c.b); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}

	// Through the files, as CI will call it.
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", cases[1].a)
	b := write("b.json", cases[1].b)
	var out bytes.Buffer
	if code := run([]string{"-compare", a, a}, &out); code != 0 {
		t.Errorf("-compare a a: exit code %d\n%s", code, out.String())
	}
	if code := run([]string{"-compare", a, b}, &out); code != 1 {
		t.Errorf("-compare a b: exit code %d, want 1\n%s", code, out.String())
	}
}
