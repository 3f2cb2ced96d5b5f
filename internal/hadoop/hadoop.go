// Package hadoop implements an in-process MapReduce engine over the
// Gerenuk execution layer: map tasks over input splits, optional
// combining of each map output's key groups (the paper's IMC workload),
// a hash partition to reducers, and reduce tasks that fold key groups.
// Key order is the exchange's: its writers sort each map output (Hadoop's
// spill-time sort) and each reducer's fetch merges them (Hadoop's merge).
//
// As in internal/spark, each task is one speculative execution region:
// the map driver spans WritableDeserializer.deserialize (the paper's
// Hadoop deserialization point) to the shuffle write, and the reduce
// driver spans the shuffle read to IFile.append.
package hadoop

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// JobConf configures one MapReduce job: the run environment (mode,
// workers, fault tolerance, tracing, shuffle, job identity — see
// job.Env) plus the MapReduce dataflow shape.
type JobConf struct {
	job.Env
	Name string
	// MapDriver reads records of InClass from source "in" and emits
	// MapOutClass records.
	MapDriver string
	// CombineDriver, if set, folds each key group of the map output
	// before the shuffle (in-map combining). Must be a reduce-style
	// driver over MapOutClass.
	CombineDriver string
	// ReduceDriver folds each key group on the reduce side, emitting
	// OutClass records.
	ReduceDriver string

	InClass     string
	MapOutClass string
	OutClass    string
	KeyField    string

	Reducers int
	// MapHeap and ReduceHeap size the per-task heaps (the paper gives
	// mappers and reducers different heaps).
	MapHeap    heap.Config
	ReduceHeap heap.Config
	// EpochPerTask wraps each task invocation in a Yak epoch (the
	// epoch_start/epoch_end in setup()/cleanup() of section 4.3).
	EpochPerTask bool
}

func (c JobConf) withDefaults() JobConf {
	if c.Reducers <= 0 {
		c.Reducers = 4
	}
	if c.MapHeap.YoungSize == 0 {
		c.MapHeap = heap.Config{YoungSize: 128 << 10, OldSize: 2 << 20}
	}
	if c.ReduceHeap.YoungSize == 0 {
		c.ReduceHeap = heap.Config{YoungSize: 128 << 10, OldSize: 3 << 20}
	}
	if c.EpochPerTask {
		c.MapHeap.Policy = heap.PolicyRegion
		c.ReduceHeap.Policy = heap.PolicyRegion
	}
	return c
}

// Drivers lists the job's distinct stage drivers, map first: a combiner
// that is the reduce driver (in-map combining) is one driver, not two.
func (c JobConf) Drivers() []string {
	var out []string
	for _, d := range []string{c.MapDriver, c.CombineDriver, c.ReduceDriver} {
		if d != "" && !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// Result is a job's output and cost record; its shuffle volume, after
// any map-side combining, is Stats.ShuffleBytesFetched.
type Result struct {
	Out   []byte
	Stats metrics.Breakdown
}

// Run executes the job over the given input splits. Even a failed job
// returns its partial accounting.
func Run(c *engine.Compiled, conf JobConf, splits [][]byte) (*Result, error) {
	conf = conf.withDefaults()
	return run(&job.Runtime{Env: conf.Env, C: c}, conf, splits)
}

func run(rt *job.Runtime, conf JobConf, splits [][]byte) (res *Result, err error) {
	res = &Result{}
	span := conf.Trace.StartSpan("job", conf.Name, trace.Str("mode", conf.Mode.String()))
	defer func() {
		res.Stats = rt.Stats
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		span.End(trace.Str("outcome", outcome))
	}()

	// ---- map phase ----
	mapSpecs := make([]engine.TaskSpec, len(splits))
	for i, split := range splits {
		mapSpecs[i] = engine.TaskSpec{
			Name:   fmt.Sprintf("%s-map%d", conf.Name, i),
			Driver: conf.MapDriver,
			Invocations: []map[string]engine.Input{
				{"in": {Class: conf.InClass, Buf: split}},
			},
			EpochPerInvocation: conf.EpochPerTask,
		}
	}
	mapOuts, err := rt.RunStage("map", span, conf.MapHeap, mapSpecs)
	if err != nil {
		return res, fmt.Errorf("hadoop: map phase: %w", err)
	}

	// ---- optional combine ----
	if conf.CombineDriver != "" {
		mapOuts, err = foldGroups(rt, conf, conf.CombineDriver, mapOuts, conf.MapHeap, "combine", span, false)
		if err != nil {
			return res, err
		}
	}

	// ---- shuffle: sort map outputs, merge each reducer's blocks ----
	blocks, err := rt.ShuffleBy(conf.Name+"-shuffle", conf.MapOutClass, conf.KeyField, conf.Reducers, true, mapOuts)
	if err != nil {
		return res, fmt.Errorf("hadoop: shuffle: %w", err)
	}

	// ---- reduce phase: fold each reducer's key groups ----
	outs, err := foldGroups(rt, conf, conf.ReduceDriver, blocks, conf.ReduceHeap, "reduce", span, true)
	if err != nil {
		return res, err
	}
	for _, o := range outs {
		res.Out = append(res.Out, o...)
	}
	return res, nil
}

// foldGroups runs a reduce-style driver once per key group of each
// block; outputs stay aligned with blocks. owned marks the blocks as
// freshly assembled for their task alone (the reduce side's fetched,
// key-merged buffers).
func foldGroups(rt *job.Runtime, conf JobConf, driver string, blocks [][]byte,
	hc heap.Config, phase string, span *trace.Span, owned bool) ([][]byte, error) {
	specs, blockOf, err := engine.FoldSpecs(rt.WorkerCount(), rt.C.Layouts, driver, conf.MapOutClass, conf.KeyField, blocks, owned,
		func(i int) string { return fmt.Sprintf("%s-%s%d", conf.Name, phase, i) })
	if err != nil {
		return nil, fmt.Errorf("hadoop: %s grouping: %w", phase, err)
	}
	for i := range specs {
		specs[i].EpochPerInvocation = conf.EpochPerTask
	}
	results, err := rt.RunStage(phase, span, hc, specs)
	if err != nil {
		return nil, fmt.Errorf("hadoop: %s phase: %w", phase, err)
	}
	outs := make([][]byte, len(blocks))
	for k, out := range results {
		outs[blockOf[k]] = out
	}
	return outs, nil
}
