// Package spark implements an in-process Spark-like dataflow engine over
// the Gerenuk execution layer: RDDs materialized as partitions of wire
// records, narrow stages that run one SER driver per partition
// (MapPartitions), hash shuffles with per-key folding (ReduceByKey),
// unique-key joins (JoinPairs), one-to-many joins (JoinMany) and Union.
//
// Each stage exhibits exactly the Figure-1 dataflow the paper builds on:
// a task starts by reading records (deserialization point), pipes them
// through IR UDFs, and ends by emitting records (serialization point).
// In Baseline mode the stage driver runs on the simulated managed heap;
// in Gerenuk mode the transformed driver runs over native buffers, with
// abort-and-re-execute handled by the engine executor.
package spark

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/job"
	"repro/internal/model"
)

// Context is a "SparkContext": the job runtime (run environment,
// compiled program, accumulated Stats/Wall/Stages/Tasks — see
// internal/job) plus the Spark-shaped knobs.
type Context struct {
	job.Runtime
	Partitions int
	HeapCfg    heap.Config
	// AbortAfterRecords forces speculative aborts in every Gerenuk task
	// (Figure 10(b)); 0 disables.
	AbortAfterRecords int64
	// ForcedAbortBudget forces an abort in up to N tasks (one abort per
	// task) and then stops — the Figure 10(b) "k forced aborts" knob.
	ForcedAbortBudget int

	shuffleSeq int
}

// NewContext creates a context with sane defaults.
func NewContext(c *engine.Compiled, mode engine.Mode) *Context {
	ctx := &Context{
		Partitions: 4,
		HeapCfg:    heap.Config{YoungSize: 128 << 10, OldSize: 2 << 20},
	}
	ctx.C, ctx.Mode = c, mode
	return ctx
}

// RDD is a materialized distributed dataset: wire-record partitions.
type RDD struct {
	ctx   *Context
	Class string
	Parts [][]byte
}

// Parallelize creates an RDD from pre-encoded wire partitions.
func (ctx *Context) Parallelize(class string, parts [][]byte) *RDD {
	return &RDD{ctx: ctx, Class: class, Parts: parts}
}

// CollectBytes concatenates all partitions' wire records.
func (r *RDD) CollectBytes() []byte {
	var out []byte
	for _, p := range r.Parts {
		out = append(out, p...)
	}
	return out
}

// abortKnob returns the per-task forced-abort setting, consuming the
// budget when one is configured.
func (ctx *Context) abortKnob() int64 {
	if ctx.AbortAfterRecords > 0 {
		return ctx.AbortAfterRecords
	}
	if ctx.ForcedAbortBudget > 0 {
		ctx.ForcedAbortBudget--
		return 1
	}
	return 0
}

// runStage runs specs as the stage named after their driver and wraps
// the outputs as an RDD of outClass. A stage nothing feeds is empty.
func (ctx *Context) runStage(driver, outClass string, specs []engine.TaskSpec) (*RDD, error) {
	for i := range specs {
		specs[i].AbortAfterRecords = ctx.abortKnob()
	}
	outs, err := ctx.RunStage(driver, nil, ctx.HeapCfg, specs)
	if err != nil {
		return nil, fmt.Errorf("spark: %w", err)
	}
	return &RDD{ctx: ctx, Class: outClass, Parts: outs}, nil
}

// MapPartitions runs the named stage driver once per partition. The
// driver owns the whole narrow pipeline of the stage (map/flatMap/filter
// fused), reading records from source "in" and emitting outputs.
func (r *RDD) MapPartitions(driver, outClass string) (*RDD, error) {
	specs := make([]engine.TaskSpec, len(r.Parts))
	for i, p := range r.Parts {
		specs[i] = engine.TaskSpec{
			Name:   fmt.Sprintf("%s-p%d", driver, i),
			Driver: driver,
			Invocations: []map[string]engine.Input{
				{"in": {Class: r.Class, Buf: p}},
			},
		}
	}
	return r.ctx.runStage(driver, outClass, specs)
}

// shuffle routes every wide operation through the job's exchange: one
// map-side writer per input partition and a fetch pass assembling the
// Partitions reduce-side blocks, which come back Owned — adopted
// zero-copy by the reduce tasks.
func (r *RDD) shuffle(keyField string) ([][]byte, error) {
	ctx := r.ctx
	ctx.shuffleSeq++
	name := fmt.Sprintf("shuffle-%d-%s.%s", ctx.shuffleSeq, r.Class, keyField)
	blocks, err := ctx.ShuffleBy(name, r.Class, keyField, ctx.Partitions, false, r.Parts)
	if err != nil {
		return nil, fmt.Errorf("spark: %w", err)
	}
	return blocks, nil
}

// ReduceByKey shuffles by keyField and folds each key group through the
// named combine driver (built by BuildReduceDriver), producing one record
// per key.
func (r *RDD) ReduceByKey(combineDriver, keyField string) (*RDD, error) {
	blocks, err := r.shuffle(keyField)
	if err != nil {
		return nil, err
	}
	specs, _, err := engine.FoldSpecs(r.ctx.WorkerCount(), r.ctx.C.Layouts, combineDriver, r.Class, keyField, blocks, true,
		func(i int) string { return fmt.Sprintf("%s-r%d", combineDriver, i) })
	if err != nil {
		return nil, err
	}
	return r.ctx.runStage(combineDriver, r.Class, specs)
}

// Union concatenates two RDDs of the same class partition-wise.
func (r *RDD) Union(other *RDD) (*RDD, error) {
	if r.Class != other.Class {
		return nil, fmt.Errorf("spark: union of %s with %s", r.Class, other.Class)
	}
	n := len(r.Parts)
	if len(other.Parts) > n {
		n = len(other.Parts)
	}
	parts := make([][]byte, n)
	for i := range parts {
		if i < len(r.Parts) {
			parts[i] = append(parts[i], r.Parts[i]...)
		}
		if i < len(other.Parts) {
			parts[i] = append(parts[i], other.Parts[i]...)
		}
	}
	return &RDD{ctx: r.ctx, Class: r.Class, Parts: parts}, nil
}

// JoinPairs hash-joins two RDDs that each hold at most one record per
// key (the PageRank links-with-ranks shape), running the named join
// driver per matched key. The driver reads one record from "left" and
// one from "right" and emits outputs. leftKey/rightKey name the key
// field on each side.
func (r *RDD) JoinPairs(other *RDD, joinDriver, leftKey, rightKey, outClass string) (*RDD, error) {
	return r.join(other, joinDriver, leftKey, rightKey, outClass, "j", true)
}

// JoinMany hash-joins a unique-keyed left RDD against a right RDD with
// repeated keys (the exploded-edge-table shape of DataFrame PageRank):
// per key, the driver reads the single left record and streams all right
// records through the UDF.
func (r *RDD) JoinMany(other *RDD, joinDriver, leftKey, rightKey, outClass string) (*RDD, error) {
	return r.join(other, joinDriver, leftKey, rightKey, outClass, "jm", false)
}

// join is the shared hash-join body: shuffle both sides by their key,
// then per reducer run the driver once per key present on both sides,
// all of a reducer's runs one binding.
// Left keys must be unique; uniqueRight demands the same of the right
// side (JoinPairs). tag distinguishes the two operators' task names.
// Reducers are grouped and matched on up to WorkerCount goroutines;
// specs stay in reducer order.
func (r *RDD) join(other *RDD, joinDriver, leftKey, rightKey, outClass, tag string, uniqueRight bool) (*RDD, error) {
	lBlocks, err := r.shuffle(leftKey)
	if err != nil {
		return nil, err
	}
	rBlocks, err := other.shuffle(rightKey)
	if err != nil {
		return nil, err
	}
	bindings := make([]map[string]engine.Input, len(lBlocks))
	err = engine.ForEach(r.ctx.WorkerCount(), len(lBlocks), func(i int) error {
		lKeys, lGroups, err := engine.GroupByKey(r.ctx.C.Layouts, r.Class, leftKey, lBlocks[i])
		if err != nil {
			return err
		}
		rKeys, rGroups, err := engine.GroupByKey(other.ctx.C.Layouts, other.Class, rightKey, rBlocks[i])
		if err != nil {
			return err
		}
		rIndex := make(map[string][]int, len(rKeys))
		for k, key := range rKeys {
			rIndex[string(key)] = rGroups[k]
		}
		// One binding per reducer: a driver run per key present on both
		// sides, reading that key's group of each.
		n := min(len(lKeys), len(rKeys))
		lOffs, lEnds, rOffs, rEnds := make([]int, 0, n), make([]int, 0, n), make([]int, 0, n), make([]int, 0, n)
		for k, key := range lKeys {
			ro, ok := rIndex[string(key)]
			if !ok {
				continue
			}
			if len(lGroups[k]) != 1 || (uniqueRight && len(ro) != 1) {
				return fmt.Errorf("spark: join %s requires unique keys (key has %d left, %d right)",
					joinDriver, len(lGroups[k]), len(ro))
			}
			lOffs = append(lOffs, lGroups[k][0])
			lEnds = append(lEnds, len(lOffs))
			rOffs = append(rOffs, ro...)
			rEnds = append(rEnds, len(rOffs))
		}
		if len(lEnds) > 0 {
			bindings[i] = map[string]engine.Input{
				"left":  {Class: r.Class, Buf: lBlocks[i], Offs: lOffs, Groups: lEnds, Owned: true},
				"right": {Class: other.Class, Buf: rBlocks[i], Offs: rOffs, Groups: rEnds, Owned: true},
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var specs []engine.TaskSpec
	for i, b := range bindings {
		if b == nil {
			continue
		}
		specs = append(specs, engine.TaskSpec{
			Name:        fmt.Sprintf("%s-%s%d", joinDriver, tag, i),
			Driver:      joinDriver,
			Invocations: bindings[i : i+1 : i+1],
		})
	}
	return r.ctx.runStage(joinDriver, outClass, specs)
}

// ---- driver templates (the "system code" of each stage) ----

// BuildMapDriver generates the canonical map-stage driver: read each
// record from source "in" and call the UDF, which emits 0..n outputs.
//
//	rec = readObject(in)
//	while rec != 0 { udf(rec); rec = readObject(in) }
func BuildMapDriver(prog *ir.Program, name, udf, inClass string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	rec := b.Local("rec", model.Object(inClass))
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		b.CallV(udf, rec)
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.Ret(nil)
	return b.Done()
}

// BuildReduceDriver generates the per-key-group fold driver:
//
//	acc = readObject(in)
//	rec = readObject(in)
//	while rec != 0 { acc = combine(acc, rec); rec = readObject(in) }
//	writeObject(acc)
//
// combine must be a (T, T) -> T function constructing a fresh record.
func BuildReduceDriver(prog *ir.Program, name, combine, class string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	acc := b.Local("acc", model.Object(class))
	rec := b.Local("rec", model.Object(class))
	b.Emit(&ir.Deserialize{Dst: acc, Source: "in"})
	b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	b.While(ir.CmpNE, rec, zero, func() {
		nacc := b.Call(combine, model.Object(class), acc, rec)
		b.Assign(acc, nacc)
		b.Emit(&ir.Deserialize{Dst: rec, Source: "in"})
	})
	b.WriteRecord("out", acc)
	b.Ret(nil)
	return b.Done()
}

// BuildJoinManyDriver generates the one-to-many join driver:
//
//	l = readObject(left)
//	r = readObject(right)
//	while r != 0 { udf(l, r); r = readObject(right) }
func BuildJoinManyDriver(prog *ir.Program, name, udf, leftClass, rightClass string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	l := b.Local("l", model.Object(leftClass))
	r := b.Local("r", model.Object(rightClass))
	b.Emit(&ir.Deserialize{Dst: l, Source: "left"})
	b.If(ir.CmpNE, l, zero, func() {
		b.Emit(&ir.Deserialize{Dst: r, Source: "right"})
		b.While(ir.CmpNE, r, zero, func() {
			b.CallV(udf, l, r)
			b.Emit(&ir.Deserialize{Dst: r, Source: "right"})
		})
	}, nil)
	b.Ret(nil)
	return b.Done()
}

// BuildJoinDriver generates the paired-join driver:
//
//	l = readObject(left); r = readObject(right)
//	if l != 0 && r != 0 { udf(l, r) }
func BuildJoinDriver(prog *ir.Program, name, udf, leftClass, rightClass string) *ir.Func {
	b := ir.NewFuncBuilder(prog, name, model.Type{})
	zero := b.IConst(0)
	l := b.Local("l", model.Object(leftClass))
	r := b.Local("r", model.Object(rightClass))
	b.Emit(&ir.Deserialize{Dst: l, Source: "left"})
	b.Emit(&ir.Deserialize{Dst: r, Source: "right"})
	b.If(ir.CmpNE, l, zero, func() {
		b.If(ir.CmpNE, r, zero, func() {
			b.CallV(udf, l, r)
		}, nil)
	}, nil)
	b.Ret(nil)
	return b.Done()
}
