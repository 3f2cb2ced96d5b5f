// Command benchmark is the repo's benchmark: seven workloads driven
// through the public API the way examples/ drive it, end-to-end metrics
// measured with tracing off, and an outside-in layer ledger measured on
// a separate traced pass. README.md explains every workload and metric.
//
//	go run ./perfbench                      all workloads, both passes, a table
//	go run ./perfbench --workload pr-native --seed 1 --seconds 10 --trace 0
//	go run ./perfbench -list                the metric and workload tables
//	go run ./perfbench -compare a.json b.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds, per size class and workload, the sha256 of every app's
// generated inputs and Baseline reference output at seed 1.
type golden map[string]map[string]goldenEntry

type goldenEntry struct {
	Inputs     []string `json:"inputs"`
	References []string `json:"references"`
}

const goldenSeed = 1

// setupsPerRun is how often a run sets its workload up; setup_s is the
// median, which one slow set-up cannot move.
const setupsPerRun = 3

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	minJobs int
	setups  int
	runs    int // untraced windows per workload
	e2e     bool
	layers  bool
	quick   bool
	env     env
	rec     *recorder
	golden  golden // nil skips the golden check
}

// result is what one workload produced; it is also the ledger's row.
type result struct {
	Name       string   `json:"name"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Inputs     []string `json:"input_sha256"`
	References []string `json:"reference_sha256"`
	// EndToEnd summarises Runs: the median beside the min of N, which
	// exposes the noise.
	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	Runs     []metricSet     `json:"end_to_end_runs,omitempty"`
	PerLayer metricSet       `json:"per_layer,omitempty"`
	Note     string          `json:"note,omitempty"`
}

type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func sizeClass(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(name string, c runConfig) (*result, error) {
	var in *instance
	setups := make([]float64, 0, c.setups)
	var refWalls []float64
	for i := 0; i < c.setups; i++ {
		in = nil // let the previous set-up's inputs go before building the next
		t := time.Now()
		var err error
		if in, err = setup(name, c.seed, c.env); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		for _, w := range in.refWall {
			refWalls = append(refWalls, w.Seconds())
		}
	}
	res := &result{Name: name, Inputs: in.inputSHA, References: in.refSHA}
	if c.golden != nil {
		want, ok := c.golden[sizeClass(c.quick)][name]
		if !ok {
			return nil, fmt.Errorf("%s: no golden digests for %s sizes", name, sizeClass(c.quick))
		}
		if !slices.Equal(want.Inputs, in.inputSHA) {
			return nil, fmt.Errorf("%s: generated inputs drifted from golden.json (got %v)", name, in.inputSHA)
		}
		if !slices.Equal(want.References, in.refSHA) {
			return nil, fmt.Errorf("%s: reference outputs drifted from golden.json (got %v): both execution paths changed together", name, in.refSHA)
		}
	}
	tally := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil && res.Note == "" {
			res.Note = p.firstErr.Error()
		}
	}
	if c.e2e {
		for r := 0; r < c.runs; r++ {
			p := in.window(c.env, passOpts{seconds: c.seconds, minJobs: c.minJobs})
			tally(p)
			m, err := p.endToEndMetrics(median(setups))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			res.Runs = append(res.Runs, m)
		}
		res.EndToEnd = map[string]stat{}
		for _, d := range endToEnd {
			vals := runValues(res.Runs, d.Name)
			res.EndToEnd[d.Name] = stat{median(vals), quantile(vals, 0), quantile(vals, 1), len(vals), d.Unit}
		}
	}
	if c.layers {
		// A third of the time each for the hooked untraced side and the
		// traced side (the replay is fixed work), in alternating windows
		// so a slow spell of the machine lands on both sides.
		hooked, traced := &pass{}, &pass{}
		for i := 0; i < 2; i++ {
			o := passOpts{seconds: c.seconds / 6, minJobs: c.minJobs, hooked: true}
			hooked.merge(in.window(c.env, o))
			o.traced = true
			traced.merge(in.window(c.env, o))
		}
		// A few jobs on the interpreter backend give the per-job side of
		// the compiled-versus-interpreted row.
		interp := in.window(c.env, passOpts{minJobs: c.minJobs, backend: engine.BackendInterp})
		tally(hooked)
		tally(traced)
		tally(interp)
		m, err := layerLedger(in, ledgerInputs{hooked: hooked, traced: traced, interp: interp, refWalls: refWalls}, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.PerLayer = m
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// layerLedger assembles the per-layer metrics: the in-situ half from the
// two passes, the replay half from direct calls into each layer.
func layerLedger(in *instance, li ledgerInputs, c runConfig) (metricSet, error) {
	for name, p := range map[string]*pass{"hooked": li.hooked, "traced": li.traced, "interpreter": li.interp} {
		if len(p.jobs) == 0 {
			return nil, fmt.Errorf("no job finished correctly in the %s pass: %v", name, p.firstErr)
		}
	}
	hooked := li.hooked
	for i, j := range hooked.jobs {
		c.rec.addJob(fmt.Sprintf("%s#%d", in.name, i), j)
	}
	// One finished job per app supplies the compiled drivers.
	var cr compileReplay
	comps := make([]*jobObs, len(in.apps))
	for i := range hooked.jobs {
		j := &hooked.jobs[i]
		for k, a := range in.apps {
			if a.name == j.app && comps[k] == nil {
				comps[k] = j
			}
		}
	}
	replayJob := in.name + "#replay"
	root := c.rec.begin(0, replayJob, "replay-compile")
	for k, j := range comps {
		if j == nil {
			return nil, fmt.Errorf("no %s job finished in the hooked pass", in.apps[k].name)
		}
		one, err := replayCompile(c.rec, root, replayJob, j.comp)
		if err != nil {
			return nil, err
		}
		// svc-mixed cycles its apps evenly, so a job pays their mean.
		n := float64(len(comps))
		cr.transformMS += one.transformMS / n
		cr.closureMS += one.closureMS / n
		cr.drivers += one.drivers
		cr.declined += one.declined
	}
	c.rec.end(root)
	layers, err := replayLayers(c.rec, replayJob, in.apps[0], comps[0].comp, cr, c.env)
	if err != nil {
		return nil, err
	}
	if in.svc {
		li.emptyUS = emptyJobUS(c.env.workers, emptyTasks)
	}
	li.cr, li.fixedUS = cr, layers["engine.task_fixed_us"].Value
	m := inSituMetrics(li)
	for k, v := range layers {
		m[k] = v
	}
	if miss := m.missing(perLayer); len(miss) > 0 {
		return nil, fmt.Errorf("per-layer metrics not measured: %v", miss)
	}
	return m, nil
}

// ledger is the JSON `-out` writes and `-compare` reads.
type ledger struct {
	Schema    string    `json:"schema"`
	Seed      int64     `json:"seed"`
	Procs     int       `json:"procs"`
	Workers   int       `json:"workers"`
	Seconds   float64   `json:"seconds"`
	Quick     bool      `json:"quick"`
	Go        string    `json:"go"`
	Workloads []*result `json:"workloads"`
}

const ledgerSchema = "gerenuk-benchmark/1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadF := fs.String("workload", "", "run this one workload and print the driver's JSON result as the last line")
	seed := fs.Int64("seed", goldenSeed, "seed for every input generator")
	seconds := fs.Float64("seconds", 4, "length of one measuring window")
	traceF := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = per-layer metrics")
	only := fs.String("only", "", "comma-separated workloads to run (default all)")
	procs := fs.Int("procs", 2, "GOMAXPROCS and pool workers; never above the machine's CPUs")
	runs := fs.Int("runs", 1, "untraced windows per workload (their spread is what -compare calls noise)")
	out := fs.String("out", "", "write the ledger JSON here")
	traceOut := fs.String("trace-out", "", "write the benchmark-owned spans here as a Chrome trace")
	quick := fs.Bool("quick", false, "tiny inputs and one job per window: a smoke run, not a measurement")
	list := fs.Bool("list", false, "print the workload and metric tables and exit")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the tables and exit")
	compare := fs.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
	updateGolden := fs.String("update-golden", "", "write the digests of this run to this golden.json (full and quick sizes, seed 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		fmt.Fprint(stdout, listText())
		return 0
	case *printManifest:
		stdout.Write(manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *updateGolden != "":
		return writeGolden(*updateGolden, *procs)
	}

	if n := runtime.NumCPU(); *procs > n {
		*procs = n
	}
	if *procs < 1 {
		*procs = 1
	}
	runtime.GOMAXPROCS(*procs)

	tmp, err := scratchDir(".bench_tmp")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer removeScratch(tmp)

	c := runConfig{
		seed: *seed, seconds: *seconds, minJobs: 3, setups: setupsPerRun, runs: *runs, quick: *quick,
		env: env{workers: *procs, sz: fullSizes, tmp: tmp},
		rec: newRecorder(),
	}
	if *quick {
		c.env.sz, c.minJobs, c.seconds = quickSizes, 1, 0
	}
	if *seed == goldenSeed {
		if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: golden.json:", err)
			return 1
		}
	}

	if *workloadF != "" {
		c.e2e, c.layers, c.runs = *traceF == 0, *traceF != 0, 1
		return driverRun(stdout, *workloadF, c, *traceOut)
	}
	c.e2e, c.layers = true, true
	names := workloadNames()
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	led := ledger{Schema: ledgerSchema, Seed: *seed, Procs: *procs, Workers: *procs,
		Seconds: c.seconds, Quick: *quick, Go: runtime.Version()}
	code := 0
	for _, name := range names {
		res, err := runWorkload(strings.TrimSpace(name), c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		led.Workloads = append(led.Workloads, res)
		printResult(stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	if err := writeOutputs(&led, c.rec, *out, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// scratchDir makes a private directory under base in the working
// directory: spill runs and disk checkpoints stay inside the checkout.
func scratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(tmp, "spill"), 0o755); err != nil {
		return "", err
	}
	return tmp, nil
}

// removeScratch deletes a scratchDir and, once no other run is using it,
// its parent.
func removeScratch(tmp string) {
	os.RemoveAll(tmp)
	os.Remove(filepath.Dir(tmp)) // fails, harmlessly, while another run's directory is in it
}

// driverRun is the BENCHMARK.json contract: one workload, one pass, the
// result object as the last line of standard output.
func driverRun(w io.Writer, name string, c runConfig, traceOut string) int {
	res, err := runWorkload(name, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(w, res)
	if err := writeOutputs(nil, c.rec, "", traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	metrics := res.PerLayer
	if c.e2e {
		metrics = res.Runs[0]
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s: %d jobs attempted, %d failed\n", res.Name, res.Attempted, res.Failed)
	if res.Note != "" {
		fmt.Fprintf(w, "   first failure: %s\n", res.Note)
	}
	if len(res.Runs) > 0 {
		for _, d := range endToEnd {
			st := res.EndToEnd[d.Name]
			fmt.Fprintf(w, "   %-34s %14.6g %-6s", d.Name, st.Median, st.Unit)
			if st.N > 1 {
				fmt.Fprintf(w, " (min %.6g, max %.6g, n=%d)", st.Min, st.Max, st.N)
			}
			fmt.Fprintln(w)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "   %-34s %14.6g %-6s %s\n", d.Name, v.Value, v.Unit, d.Source)
		}
	}
}

func runValues(runs []metricSet, name string) []float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r[name]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

func writeOutputs(led *ledger, rec *recorder, out, traceOut string) error {
	if out != "" {
		b, err := json.MarshalIndent(led, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" {
		return rec.writeChrome(traceOut)
	}
	return nil
}

// writeGolden regenerates golden.json: set every workload up at seed 1
// in both size classes and record the digests.
func writeGolden(path string, procs int) int {
	tmp, err := scratchDir(".bench_tmp")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer removeScratch(tmp)
	g := golden{}
	for _, quick := range []bool{false, true} {
		e := env{workers: procs, sz: fullSizes, tmp: tmp}
		if quick {
			e.sz = quickSizes
		}
		g[sizeClass(quick)] = map[string]goldenEntry{}
		for _, name := range workloadNames() {
			in, err := setup(name, goldenSeed, e)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			g[sizeClass(quick)][name] = goldenEntry{in.inputSHA, in.refSHA}
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
