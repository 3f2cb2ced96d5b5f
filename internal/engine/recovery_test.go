package engine_test

import (
	"bytes"
	"testing"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/recovery"
	"repro/internal/serde"
	"repro/internal/spark"
	"repro/internal/trace"
)

// reduceProgram defines Pair{key long, value double} with a summing
// combine UDF and the fold-style stage driver — a multi-invocation task
// shape the checkpoint tests need.
func reduceProgram(t *testing.T) *ir.Program {
	t.Helper()
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "Pair", Fields: []model.FieldDef{
		{Name: "key", Type: model.Prim(model.KindLong)},
		{Name: "value", Type: model.Prim(model.KindDouble)},
	}})
	prog := ir.NewProgram(reg)
	prog.TopTypes = []string{"Pair"}

	cb := ir.NewFuncBuilder(prog, "sumCombine", model.Object("Pair"))
	a := cb.Param("a", model.Object("Pair"))
	bb := cb.Param("b", model.Object("Pair"))
	ka := cb.Load(a, "key")
	va := cb.Load(a, "value")
	vb := cb.Load(bb, "value")
	sum := cb.Bin(ir.OpAdd, va, vb)
	acc := cb.New("Pair")
	cb.Store(acc, "key", ka)
	cb.Store(acc, "value", sum)
	cb.Ret(acc)
	cb.Done()
	spark.BuildReduceDriver(prog, "sumStage", "sumCombine", "Pair")
	return prog
}

// foldSpec builds a reduce task over nKeys key groups of nPerKey records
// each — one binding, hence one driver run, per key group.
func foldSpec(t *testing.T, c *Compiled, nKeys, nPerKey int) TaskSpec {
	t.Helper()
	buf := pairBlock(t, c, nKeys, nPerKey)
	_, groups, err := GroupByKey(c.Layouts, "Pair", "key", buf)
	if err != nil {
		t.Fatal(err)
	}
	invs := make([]map[string]Input, 0, len(groups))
	for _, offs := range groups {
		invs = append(invs, map[string]Input{
			"in": {Class: "Pair", Buf: buf, Offs: offs},
		})
	}
	return TaskSpec{Name: "fold-r0", Driver: "sumStage", Invocations: invs}
}

// pairBlock encodes nKeys key groups of nPerKey Pair records each, in key
// order, as a fetched reduce block holds them.
func pairBlock(t *testing.T, c *Compiled, nKeys, nPerKey int) []byte {
	t.Helper()
	var buf []byte
	var err error
	for k := 0; k < nKeys; k++ {
		for i := 0; i < nPerKey; i++ {
			buf, err = c.Codec.Encode("Pair",
				serde.Obj{"key": int64(k), "value": float64(10*k + i)}, buf)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf
}

func runFold(t *testing.T, mode Mode, mutate func(*TaskSpec), tr *trace.Tracer) ([]byte, error) {
	t.Helper()
	prog := reduceProgram(t)
	c := Compile(prog)
	if err := c.CompileDriver("sumStage"); err != nil {
		t.Fatal(err)
	}
	spec := foldSpec(t, c, 4, 3)
	if mutate != nil {
		mutate(&spec)
	}
	exec := func() *Executor {
		return &Executor{C: c, Mode: mode,
			HeapCfg: heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20}, Trace: tr}
	}
	pool := &Pool{Workers: 1, MaxAttempts: 3}
	job, err := pool.Run(exec, []TaskSpec{spec})
	if err != nil {
		return nil, err
	}
	return job.Outputs[0], nil
}

// TestKillResumesFromCheckpoint is the core differential recovery
// property at task granularity: a reduce attempt killed mid-fold
// resumes from its last checkpoint on the retry, and the recovered
// output is byte-identical to the fault-free run — in both modes.
func TestKillResumesFromCheckpoint(t *testing.T) {
	for _, mode := range []Mode{Baseline, Gerenuk} {
		want, err := runFold(t, mode, nil, nil)
		if err != nil {
			t.Fatalf("%v fault-free: %v", mode, err)
		}
		tr := trace.New()
		store := recovery.NewCheckpointStore()
		got, err := runFold(t, mode, func(s *TaskSpec) {
			s.CheckpointEvery = 1
			s.Checkpoints = store
			// 4 invocations × 3 records: record 8 is mid-invocation 3,
			// after two checkpoints exist.
			s.Faults = &faults.Plan{KillReduceAtRecord: 8}
		}, tr)
		if err != nil {
			t.Fatalf("%v killed: %v", mode, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: recovered output differs from fault-free run", mode)
		}
		reg := tr.Registry()
		if saved := reg.Counter("recovery_checkpoints_saved_total").Value(); saved < 2 {
			t.Errorf("%v: checkpoints saved = %d, want >= 2", mode, saved)
		}
		if resumes := reg.Counter("recovery_checkpoint_resumes_total").Value(); resumes < 1 {
			t.Errorf("%v: checkpoint resumes = %d, want >= 1", mode, resumes)
		}
		if store.Len() != 0 {
			t.Errorf("%v: %d checkpoints leaked after task success", mode, store.Len())
		}
	}
}

// TestCheckpointCorruptionFallsBackToRecordZero: the dying attempt
// mangles its checkpoint; the retry must detect the checksum mismatch,
// discard the checkpoint, and still produce byte-identical output.
func TestCheckpointCorruptionFallsBackToRecordZero(t *testing.T) {
	for _, mode := range []Mode{Baseline, Gerenuk} {
		want, err := runFold(t, mode, nil, nil)
		if err != nil {
			t.Fatalf("%v fault-free: %v", mode, err)
		}
		tr := trace.New()
		got, err := runFold(t, mode, func(s *TaskSpec) {
			s.CheckpointEvery = 1
			s.Checkpoints = recovery.NewCheckpointStore()
			s.Faults = &faults.Plan{KillReduceAtRecord: 8, CheckpointCorrupt: true}
		}, tr)
		if err != nil {
			t.Fatalf("%v killed+corrupt: %v", mode, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: output after corrupt checkpoint differs", mode)
		}
		reg := tr.Registry()
		if n := reg.Counter("recovery_checkpoint_corrupt_total").Value(); n < 1 {
			t.Errorf("%v: corrupt checkpoints detected = %d, want >= 1", mode, n)
		}
		if n := reg.Counter("recovery_checkpoint_resumes_total").Value(); n != 0 {
			t.Errorf("%v: resumed %d times from a corrupt checkpoint", mode, n)
		}
	}
}

// TestKillWithoutCheckpointsStillRecovers: the kill alone is an
// ordinary transient fault; without a checkpoint store the retry
// restarts from record zero and must still match.
func TestKillWithoutCheckpointsStillRecovers(t *testing.T) {
	for _, mode := range []Mode{Baseline, Gerenuk} {
		want, err := runFold(t, mode, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runFold(t, mode, func(s *TaskSpec) {
			s.Faults = &faults.Plan{KillReduceAtRecord: 5}
		}, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: output differs", mode)
		}
	}
}
