package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the single table BENCHMARK.json, `-list`, the README's
// metric sections and `-compare` are all derived from. Names here are
// the contract later performance issues refer to; a non-benchmark PR may
// not edit them.

// runSeconds is the length of one measuring window the driver asks for
// (BENCHMARK.json run_seconds).
const runSeconds = 10

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadTable = []workloadDef{
	{"pr-native", "Spark PageRank on the native path: join + reduceByKey per iteration, so kernel, driver-side group/shuffle and per-task fixed cost all carry weight"},
	{"km-native", "Spark KMeans: fold-dominated with almost no shuffle, the control on which shuffle and driver-side changes must show nothing"},
	{"tfc-hadoop", "Hadoop TFC: the second front-end with its own map/sort/merge/reduce stage runner, so a Spark-only fix or a unification regression shows"},
	{"pr-spill", "pr-native inputs through a 64 KiB shuffle budget, LZ4 and 2 replicas: sorted spill runs, k-way merge, compress/decompress, replica registration"},
	{"pr-deopt", "PageRank with every task aborting on its second record: speculation always fails, so heap, serde, GC and abort machinery do the work"},
	{"stream-wc", "micro-batch wordcount, 16-record batches in 64 ms windows: hundreds of tiny tasks per second, so per-task and per-batch fixed costs dominate"},
	{"svc-mixed", "job service with 2 weighted tenants and 2 closed-loop clients cycling small PR/KM/TFC jobs: per-job compile, admission and dispatch dominate"},
}

// metricDef describes one metric. End-to-end metrics carry a Bound (the
// share of the parent's median by which the metric may worsen); per-layer
// metrics carry the end-to-end metric and workload they should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Source is "in-situ" (traced run of real jobs) or "replay" (direct
	// calls into one layer's public functions over the same inputs).
	Source string
	// Moves names the end-to-end metric @ workload this layer metric is
	// expected to move; Still the workload on which it must show nothing.
	Moves string
	Still string
	Help  string
}

// endToEnd lists what a user of the system sees. The same names are
// reported on every workload, with tracing off.
var endToEnd = []metricDef{
	{Name: "job_wall_p50_s", Unit: "s", Better: "lower", Bound: 0.20,
		Help: "median job wall: wire partitions in hand and a fresh engine.Compile, to output bytes in hand"},
	{Name: "job_wall_p95_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "95th percentile job wall; only svc-mixed has ten samples beyond it, elsewhere it is close to the slowest job"},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.20,
		Help: "sum of Breakdown.Records (stream.Result.Records on stream-wc) over the sum of timed job wall; mean-based, so it sees stalls a median hides"},
	{Name: "alloc_mb_per_job", Unit: "MB", Better: "lower", Bound: 0.02,
		Help: "runtime.MemStats.TotalAlloc delta over the timed run divided by jobs (process-wide, so an average on svc-mixed)"},
	{Name: "peak_model_kb", Unit: "KB", Better: "lower", Bound: 0.05,
		Help: "mean over jobs (per app, then over apps on svc-mixed) of Breakdown.PeakBytes(), the paper's Figure 7 quantity"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "median of repeated set-ups: generate + encode inputs, Baseline reference run, one warm-up job"},
}

const (
	inSitu = "in-situ"
	replay = "replay"
)

// perLayer lists the outside-in layer ledger. Every name is reported on
// every workload with --trace 1; a metric that does not apply to a
// workload (stream.* off stream-wc, cluster.* off svc-mixed) reads 0.
var perLayer = []metricDef{
	// ---- in situ: hooks that already exist (OnStage, Breakdown, MemStats, an attached trace.Tracer) ----
	{Name: "job.wall_p50_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s", Help: "median job wall of the hooked, untraced pass; the base of every share below"},
	{Name: "job.baseline_wall_s", Unit: "s", Better: "lower", Source: inSitu, Help: "median job wall of the set-ups' Baseline reference runs (untransformed IR over the simulated heap)"},
	{Name: "job.native_speedup_x", Unit: "x", Better: "higher", Source: inSitu, Help: "baseline job wall over gerenuk job wall: the per-job speed-up row beside engine.native_speedup_x"},
	{Name: "job.interp_wall_s", Unit: "s", Better: "lower", Source: inSitu, Help: "median job wall with the interpreter backend"},
	{Name: "job.compiled_speedup_x", Unit: "x", Better: "higher", Source: inSitu, Help: "interpreter job wall over compiled job wall: the per-job speed-up row beside engine.compiled_speedup_x"},
	{Name: "job.compile_share", Unit: "share", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ svc-mixed, stream-wc", Still: "pr-native", Help: "program build + engine.Compile (timed in the job) + Precompile + Closure (timed on a fresh Compiled over the job's drivers) over job wall"},
	{Name: "job.stage_share", Unit: "share", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s", Help: "sum of stage wall from the stage hook over job wall (0 on stream-wc: stream.Config has no stage hook)"},
	{Name: "job.shuffle_share", Unit: "share", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-native, pr-spill", Still: "km-native", Help: "Breakdown.ShuffleWrite + ShuffleRead over job wall; driver-side and serial"},
	{Name: "job.unattributed_share", Unit: "share", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-native", Help: "conservation row: 1 - front/transform share - stage share - shuffle share; driver-side grouping, sorting and glue"},
	{Name: "engine.task_busy_share", Unit: "share", Better: "higher", Source: inSitu, Moves: "job_wall_p50_s @ stream-wc", Help: "sum of task Stats.Total over stage wall x workers (job wall x workers on stream-wc); low means dispatch wait or skew"},
	{Name: "engine.native_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ km-native, pr-native", Still: "pr-deopt", Help: "program-reported Breakdown.NativeTime per job"},
	{Name: "engine.heap_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-deopt", Still: "pr-native", Help: "program-reported Breakdown.HeapTime per job; 0 unless speculation fails"},
	{Name: "engine.native_task_share", Unit: "share", Better: "higher", Source: inSitu, Help: "Breakdown.NativeTime over the sum of task time"},
	{Name: "engine.heap_task_share", Unit: "share", Better: "lower", Source: inSitu, Help: "Breakdown.HeapTime over the sum of task time"},
	{Name: "serde.ser_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-deopt", Help: "program-reported Breakdown.Ser per job"},
	{Name: "serde.deser_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-deopt", Help: "program-reported Breakdown.Deser per job"},
	{Name: "heap.gc_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-deopt", Help: "program-reported simulated-heap GC time per job"},
	{Name: "heap.minor_gcs", Unit: "count", Better: "lower", Source: inSitu, Help: "simulated-heap scavenges per job"},
	{Name: "shuffle.write_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-native, pr-spill", Help: "program-reported Breakdown.ShuffleWrite per job"},
	{Name: "shuffle.read_s", Unit: "s", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ pr-native, pr-spill", Help: "program-reported Breakdown.ShuffleRead per job"},
	{Name: "shuffle.bytes_written", Unit: "B", Better: "lower", Source: inSitu, Help: "raw record bytes sealed into shuffle blocks per job"},
	{Name: "shuffle.bytes_fetched", Unit: "B", Better: "lower", Source: inSitu, Help: "raw record bytes fetched on the reduce side per job"},
	{Name: "shuffle.spills", Unit: "count", Better: "lower", Source: inSitu, Help: "spill runs per job; non-zero only on pr-spill"},
	{Name: "engine.attempts", Unit: "count", Better: "lower", Source: inSitu, Help: "task attempts per job; repeats exactly"},
	{Name: "engine.aborts", Unit: "count", Better: "lower", Source: inSitu, Help: "speculative aborts per job; equals attempts on pr-deopt and repeats exactly"},
	{Name: "engine.retries", Unit: "count", Better: "lower", Source: inSitu, Help: "task attempts beyond each task's first, per job"},
	{Name: "engine.records", Unit: "count", Better: "higher", Source: inSitu, Help: "Breakdown.Records per job"},
	{Name: "engine.commit_ratio", Unit: "ratio", Better: "higher", Source: inSitu, Help: "(attempts - aborts - retries) / attempts; 1 everywhere, 0 on pr-deopt"},
	{Name: "engine.task_fixed_share", Unit: "share", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ stream-wc, svc-mixed", Still: "km-native", Help: "engine.task_fixed_us x engine.attempts over the sum of task time"},
	{Name: "go.alloc_b_per_rec", Unit: "B", Better: "lower", Source: inSitu, Moves: "alloc_mb_per_job", Help: "Go bytes allocated per record read"},
	{Name: "go.mallocs_per_rec", Unit: "count", Better: "lower", Source: inSitu, Moves: "alloc_mb_per_job", Help: "Go heap objects allocated per record read"},
	{Name: "go.gc_cycles_per_job", Unit: "count", Better: "lower", Source: inSitu, Moves: "job_wall_p95_s", Help: "Go GC cycles per job"},
	{Name: "go.gc_pause_ms_per_job", Unit: "ms", Better: "lower", Source: inSitu, Moves: "job_wall_p95_s", Help: "Go stop-the-world pause per job"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Source: inSitu, Help: "(traced p50 - untraced p50) / untraced p50 with a trace.Tracer attached"},
	{Name: "trace.events_per_job", Unit: "count", Better: "lower", Source: inSitu, Help: "trace events the attached tracer recorded per job"},
	{Name: "stream.batch_p50_ms", Unit: "ms", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ stream-wc", Help: "stream.Result.BatchP50"},
	{Name: "stream.batch_p99_ms", Unit: "ms", Better: "lower", Source: inSitu, Moves: "job_wall_p95_s @ stream-wc", Help: "stream.Result.BatchP99"},
	{Name: "stream.batches", Unit: "count", Better: "lower", Source: inSitu, Help: "micro-batches per run"},
	{Name: "stream.per_batch_ms", Unit: "ms", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ stream-wc", Help: "run wall over batches: per-batch cost including window closes"},
	{Name: "stream.shuffle_bytes", Unit: "B", Better: "lower", Source: inSitu, Help: "stream.Result.ShuffleBytes per run"},
	{Name: "cluster.queue_wait_p50_us", Unit: "us", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ svc-mixed", Help: "Submit to Run entry, median"},
	{Name: "cluster.queue_wait_p95_us", Unit: "us", Better: "lower", Source: inSitu, Moves: "job_wall_p95_s @ svc-mixed", Help: "Submit to Run entry, 95th percentile"},
	{Name: "cluster.finish_overhead_us", Unit: "us", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ svc-mixed", Help: "Run return to Await return, median"},
	{Name: "cluster.empty_job_us", Unit: "us", Better: "lower", Source: inSitu, Moves: "job_wall_p50_s @ svc-mixed", Help: "Submit to Await of a job whose Run returns at once: pure service overhead"},
	{Name: "cluster.rejected", Unit: "count", Better: "lower", Source: inSitu, Help: "submissions refused by admission control; each counts as a failed job"},

	// ---- layer replay: benchmark-owned spans around direct calls into each layer ----
	{Name: "workload.encode_mb_per_s", Unit: "MB/s", Better: "higher", Source: replay, Moves: "setup_s", Help: "workload.Encode over the generated objects"},
	{Name: "compiler.transform_ms", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ svc-mixed", Still: "pr-native", Help: "engine.Compile + Precompile of every driver the job compiled"},
	{Name: "compile.closure_ms", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ svc-mixed", Still: "pr-native", Help: "Compiled.Closure of every driver the job compiled"},
	{Name: "compiler.drivers", Unit: "count", Better: "lower", Source: replay, Help: "drivers the job compiled (keys of Compiled.SERs)"},
	{Name: "compile.declined", Unit: "count", Better: "lower", Source: replay, Help: "drivers closure compilation declined"},
	{Name: "arena.adopt_copy_mb_per_s", Unit: "MB/s", Better: "higher", Source: replay, Moves: "job_wall_p50_s @ km-native", Help: "Arena.AdoptBytes of one input partition"},
	{Name: "arena.adopt_owned_ns", Unit: "ns", Better: "lower", Source: replay, Help: "Arena.AdoptBytesOwned of one input partition"},
	{Name: "arena.read_ns", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ km-native", Help: "Arena.ReadNative of the size prefix at every RecordOffsets entry, per read"},
	{Name: "heap.new_us", Unit: "us", Better: "lower", Source: replay, Moves: "job_wall_p50_s, alloc_mb_per_job @ stream-wc, svc-mixed", Help: "heap.New at the workload's heap configuration"},
	{Name: "serde.deser_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-deopt", Still: "pr-native", Help: "Codec.Deserialize of every input record onto a heap.Heap"},
	{Name: "serde.ser_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-deopt", Still: "pr-native", Help: "Codec.Serialize of every deserialized record"},
	{Name: "heap.probe_gc_ms", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-deopt", Still: "pr-native", Help: "simulated GC time the deserialize sweep caused"},
	{Name: "engine.task_native_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ km-native, pr-native", Still: "pr-deopt", Help: "Executor.RunTask over the first narrow stage's specs, gerenuk mode, compiled backend"},
	{Name: "engine.task_interp_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Help: "same specs, interpreter backend"},
	{Name: "engine.task_heap_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-deopt", Help: "same specs, Baseline mode"},
	{Name: "engine.compiled_speedup_x", Unit: "x", Better: "higher", Source: replay, Help: "interp over compiled ns per record: the per-record speed-up row"},
	{Name: "engine.native_speedup_x", Unit: "x", Better: "higher", Source: replay, Help: "heap over native ns per record: the per-record gerenuk speed-up row"},
	{Name: "engine.task_fixed_us", Unit: "us", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ stream-wc, svc-mixed", Still: "km-native", Help: "RunTask on an empty-partition spec"},
	{Name: "engine.canary_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Help: "VerifyInputs on minus off over a key-grouped Offs spec; no workload arms it, this is the ledger row for the per-group re-hash"},
	{Name: "engine.pool_dispatch_us_per_task", Unit: "us", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ stream-wc", Help: "Pool.Run over 256 empty specs at 1 worker: wall minus task time, per task"},
	{Name: "engine.pool_scaling_x", Unit: "x", Better: "higher", Source: replay, Moves: "job_wall_p50_s @ pr-native", Help: "first narrow stage wall at 1 worker over wall at 2 workers"},
	{Name: "engine.groupbykey_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-native, tfc-hadoop", Still: "km-native", Help: "engine.GroupByKey on the fetched blocks"},
	{Name: "engine.partition_ns_per_rec", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-native, tfc-hadoop", Still: "km-native", Help: "engine.Partition on the shuffle input"},
	{Name: "shuffle.add_ns_per_rec_mem", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-native", Still: "km-native", Help: "Writer.Add, unbounded in-memory exchange"},
	{Name: "shuffle.close_ms_mem", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-native", Still: "km-native", Help: "Writer.Close summed over map tasks, in-memory exchange"},
	{Name: "shuffle.fetch_ms_mem", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-native", Still: "km-native", Help: "Exchange.FetchAll, in-memory exchange"},
	{Name: "shuffle.add_ns_per_rec_spill", Unit: "ns", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-spill", Still: "km-native", Help: "Writer.Add with a 64 KiB budget, LZ4, 2 replicas"},
	{Name: "shuffle.close_ms_spill", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-spill", Still: "km-native", Help: "Writer.Close (k-way merge of spill runs, compress, replicate)"},
	{Name: "shuffle.fetch_ms_spill", Unit: "ms", Better: "lower", Source: replay, Moves: "job_wall_p50_s @ pr-spill", Still: "km-native", Help: "Exchange.FetchAll with decompression"},
	{Name: "shuffle.compress_ratio", Unit: "ratio", Better: "higher", Source: replay, Help: "raw bytes fetched over wire bytes fetched, spill exchange"},
	{Name: "shuffle.spill_runs", Unit: "count", Better: "lower", Source: replay, Help: "spill runs the spill exchange wrote"},
	{Name: "recovery.ckpt_save_mb_per_s", Unit: "MB/s", Better: "higher", Source: replay, Moves: "job_wall_p50_s @ stream-wc", Help: "CheckpointStore.Save, in-memory store"},
	{Name: "recovery.ckpt_load_mb_per_s", Unit: "MB/s", Better: "higher", Source: replay, Help: "CheckpointStore.Load, in-memory store"},
	{Name: "recovery.disk_save_mb_per_s", Unit: "MB/s", Better: "higher", Source: replay, Help: "CheckpointStore.Save through OpenDiskCheckpointStore in a temp dir"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./perfbench"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadTable,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// manifestJSON renders BENCHMARK.json exactly as it is checked in.
func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // the manifest is a literal; failing to encode it is a bug
	}
	return append(b, '\n')
}

// listText renders the `-list` output from the same table.
func listText() string {
	out := "workloads:\n"
	for _, w := range workloadTable {
		out += fmt.Sprintf("  %-12s %s\n", w.Name, w.Why)
	}
	out += "\nend-to-end metrics (tracing off, every workload):\n"
	for _, d := range endToEnd {
		out += fmt.Sprintf("  %-20s %-6s %-6s bound %2.0f%%  %s\n", d.Name, d.Unit, d.Better, d.Bound*100, d.Help)
	}
	out += "\nper-layer metrics (--trace 1):\n"
	for _, d := range perLayer {
		out += fmt.Sprintf("  %-34s %-6s %-6s %-7s %s\n", d.Name, d.Unit, d.Better, d.Source, d.Help)
		if d.Moves != "" {
			out += fmt.Sprintf("  %-34s   should move: %s\n", "", d.Moves)
		}
		if d.Still != "" {
			out += fmt.Sprintf("  %-34s   should not move: %s\n", "", d.Still)
		}
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	return names
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value; complete fills in the unit from
// the table and fails on a name the table does not declare, so a metric
// cannot be reported without being listed.
type metricSet map[string]value

func (m metricSet) set(defs []metricDef, name string, v float64) {
	d, ok := findMetric(defs, name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	m[name] = value{Value: v, Unit: d.Unit}
}

// missing lists the declared metrics m lacks.
func (m metricSet) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
