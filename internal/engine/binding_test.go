package engine_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	. "repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/recovery"
	"repro/internal/trace"
)

// sumCompiled compiles reduceProgram's fold driver.
func sumCompiled(t *testing.T) *Compiled {
	t.Helper()
	c := Compile(reduceProgram(t))
	if err := c.CompileDriver("sumStage"); err != nil {
		t.Fatal(err)
	}
	return c
}

// groupedSpec is the reduce task FoldSpecs builds over buf: one binding
// whose input carries the block's key groups.
func groupedSpec(t *testing.T, c *Compiled, buf []byte) TaskSpec {
	t.Helper()
	specs, _, err := FoldSpecs(1, c.Layouts, "sumStage", "Pair", "key", [][]byte{buf}, false,
		func(int) string { return "fold-r0" })
	if err != nil || len(specs) != 1 || len(specs[0].Invocations) != 1 {
		t.Fatalf("FoldSpecs: %d specs, err %v", len(specs), err)
	}
	return specs[0]
}

// mixedSpec splits a grouped spec's first key group off into a binding
// of its own without Groups, the one-map-per-group form, and keeps the
// rest as one grouped binding.
func mixedSpec(grouped TaskSpec) TaskSpec {
	in := grouped.Invocations[0]["in"]
	first := in.Groups[0]
	rest := in
	rest.Offs, rest.Groups = in.Offs[first:], nil
	for _, end := range in.Groups[1:] {
		rest.Groups = append(rest.Groups, end-first)
	}
	head := in
	head.Offs, head.Groups = in.Offs[:first], nil
	grouped.Invocations = []map[string]Input{{"in": head}, {"in": rest}}
	return grouped
}

// runSpec runs spec as a one-task job that retries, like a stage.
func runSpec(t *testing.T, c *Compiled, mode Mode, spec TaskSpec, tr *trace.Tracer) []byte {
	t.Helper()
	exec := func() *Executor {
		return &Executor{C: c, Mode: mode,
			HeapCfg: heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20}, Trace: tr}
	}
	job, err := (&Pool{Workers: 1, MaxAttempts: 3}).Run(exec, []TaskSpec{spec})
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	return job.Outputs[0]
}

// checkpointSeqs lists the Seq of every checkpoint a traced job saved
// and resumed from, in order.
func checkpointSeqs(tr *trace.Tracer) (saved, resumed []int64) {
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "checkpoint-save":
			saved = append(saved, ev.Args["seq"].(int64))
		case "checkpoint-resume":
			resumed = append(resumed, ev.Args["seq"].(int64))
		}
	}
	return saved, resumed
}

// A task killed in the middle of a grouped binding resumes from its last
// checkpoint inside that binding. Checkpoints count driver runs, so the
// grouped form, the one-map-per-group form and a mix of the two save and
// resume at the same Seq values, and every form's output, clean or
// recovered, equals the one-map-per-group form's clean output — on the
// native path and on the heap path.
func TestCheckpointInsideGroupedBinding(t *testing.T) {
	c := sumCompiled(t)
	grouped := groupedSpec(t, c, pairBlock(t, c, 6, 3))
	forms := []struct {
		name string
		spec TaskSpec
	}{{"per-group", foldSpec(t, c, 6, 3)}, {"grouped", grouped}, {"mixed", mixedSpec(grouped)}}
	for _, mode := range []Mode{Baseline, Gerenuk} {
		want := runSpec(t, c, mode, forms[0].spec, nil)
		var wantSaved, wantResumed []int64
		for _, f := range forms {
			if got := runSpec(t, c, mode, f.spec, nil); !bytes.Equal(got, want) {
				t.Errorf("%v %s: clean output differs from the per-group form's", mode, f.name)
			}
			spec := f.spec
			spec.CheckpointEvery = 2
			spec.Checkpoints = recovery.NewCheckpointStore()
			// Six runs of three records: record 14 is inside run 5, after
			// the checkpoint at Seq 4 — inside the mixed form's grouped
			// binding, at its fourth group.
			spec.Faults = &faults.Plan{KillReduceAtRecord: 14}
			tr := trace.New()
			if got := runSpec(t, c, mode, spec, tr); !bytes.Equal(got, want) {
				t.Errorf("%v %s: recovered output differs from the clean run", mode, f.name)
			}
			saved, resumed := checkpointSeqs(tr)
			if f.name == "per-group" {
				wantSaved, wantResumed = saved, resumed
				if !reflect.DeepEqual(resumed, []int64{4}) {
					t.Fatalf("%v: per-group form resumed at %v, want [4]", mode, resumed)
				}
				continue
			}
			if !reflect.DeepEqual(saved, wantSaved) || !reflect.DeepEqual(resumed, wantResumed) {
				t.Errorf("%v %s: saved %v and resumed %v, the per-group form saved %v and resumed %v",
					mode, f.name, saved, resumed, wantSaved, wantResumed)
			}
		}
	}
}

// A binding whose Groups do not cut its Offs, or whose inputs disagree
// on their group count, fails its task instead of reading out of range.
func TestMalformedGroupsFailTheTask(t *testing.T) {
	c := sumCompiled(t)
	buf := pairBlock(t, c, 2, 2)
	offs := RecordOffsets(buf)
	bad := map[string]map[string]Input{
		"short":      {"in": {Class: "Pair", Buf: buf, Offs: offs, Groups: []int{2, 3}}},
		"decreasing": {"in": {Class: "Pair", Buf: buf, Offs: offs, Groups: []int{3, 1, 4}}},
		"no offsets": {"in": {Class: "Pair", Buf: buf, Groups: []int{0}}},
		"disagree": {
			"in":    {Class: "Pair", Buf: buf, Offs: offs, Groups: []int{2, 4}},
			"other": {Class: "Pair", Buf: buf, Offs: offs, Groups: []int{4}},
		},
	}
	for name, inv := range bad {
		for _, mode := range []Mode{Baseline, Gerenuk} {
			e := &Executor{C: c, Mode: mode, HeapCfg: heap.Config{YoungSize: 64 << 10, OldSize: 1 << 20}}
			_, err := e.RunTask(TaskSpec{Name: name, Driver: "sumStage", Invocations: []map[string]Input{inv}})
			if err == nil || !strings.Contains(err.Error(), "group") || Classify(err) != FaultPermanent {
				t.Errorf("%s, %v: RunTask = %v, want a permanent group error", name, mode, err)
			}
		}
	}
}

// A reduce task's setup is per binding, not per key group: RunTask over
// the task FoldSpecs builds allocates the same in Gerenuk mode whether
// the same 4 096 records form 16 key groups or 1 024 (15 allocations
// each; the one-map-per-group form took 5 more per group, and 2 per
// record in the compiled fold). In Baseline mode the interpreter still
// allocates per driver run — its frames and the serialized output
// record, less one combine call's frame — which nets 2 per added group;
// the one-map-per-group form also built a sources map, a source, an Env
// and an interpreter per group, 9 in all.
func TestReduceAllocsIndependentOfGroupCount(t *testing.T) {
	const records, slack, baselinePerRun = 4096, 4, 3
	c := sumCompiled(t)
	allocs := func(mode Mode, groups int) float64 {
		spec := groupedSpec(t, c, pairBlock(t, c, groups, records/groups))
		e := &Executor{C: c, Mode: mode, HeapCfg: heap.Config{YoungSize: 4 << 20, OldSize: 16 << 20}}
		return testing.AllocsPerRun(10, func() {
			res, err := e.RunTask(spec)
			if err != nil || res.Stats.Aborts != 0 {
				t.Fatalf("%v: %v, %d aborts", mode, err, res.Stats.Aborts)
			}
		})
	}
	few, many := allocs(Gerenuk, 16), allocs(Gerenuk, 1024)
	t.Logf("Gerenuk: %.0f allocs at 16 groups, %.0f at 1024", few, many)
	if many > few+slack {
		t.Errorf("Gerenuk: %.0f allocs at 1024 groups, %.0f at 16: setup grows with the group count", many, few)
	}
	few, many = allocs(Baseline, 16), allocs(Baseline, 1024)
	perRun := (many - few) / (1024 - 16)
	t.Logf("Baseline: %.0f allocs at 16 groups, %.0f at 1024: %.2f per added group", few, many, perRun)
	if perRun > baselinePerRun {
		t.Errorf("Baseline: %.2f allocs per added key group, want <= %d", perRun, baselinePerRun)
	}
}

// Tracing stops at the binding: a traced task emits the same events,
// name for name, whatever its record count (1× and 4×) or key-group
// count (1 and 1 024) — on the heap path, the native path, a native
// attempt forced to abort and a straggler raced by a heap hedge. GC
// instants and counter samples are left out: they follow memory growth
// (one per collection, one per 64 KiB of arena), not records.
func TestTraceEventsIndependentOfRecordsAndGroups(t *testing.T) {
	cases := []struct {
		name   string
		mode   Mode
		hedge  time.Duration
		mutate func(*TaskSpec)
	}{
		{"baseline", Baseline, 0, nil},
		{"gerenuk", Gerenuk, 0, nil},
		{"forced-abort", Gerenuk, 0, func(s *TaskSpec) { s.Faults = &faults.Plan{PanicAtRecord: 1} }},
		{"hedged", Gerenuk, time.Millisecond, func(s *TaskSpec) { s.Faults = &faults.Plan{NativeDelay: 30 * time.Second} }},
	}
	shapes := []struct{ groups, perGroup int }{{1, 1024}, {1, 4096}, {1024, 1}, {1024, 4}}
	for _, tc := range cases {
		var want map[string]int
		for i, sh := range shapes {
			c := sumCompiled(t) // fresh, so every run compiles its driver
			spec := groupedSpec(t, c, pairBlock(t, c, sh.groups, sh.perGroup))
			if tc.mutate != nil {
				tc.mutate(&spec)
			}
			tr := trace.New()
			e := &Executor{C: c, Mode: tc.mode, HeapCfg: heap.Config{YoungSize: 4 << 20, OldSize: 16 << 20},
				Trace: tr, HedgeAfter: tc.hedge}
			if _, err := e.RunTask(spec); err != nil {
				t.Fatalf("%s, %d×%d: %v", tc.name, sh.groups, sh.perGroup, err)
			}
			got := map[string]int{}
			for _, ev := range tr.Events() {
				if ev.Cat != "gc" && ev.Ph != "C" {
					got[ev.Cat+":"+ev.Name]++
				}
			}
			if i == 0 {
				want = got
				t.Logf("%s: %v", tc.name, got)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d groups of %d records emit %v, %d of %d emit %v", tc.name,
					sh.groups, sh.perGroup, got, shapes[0].groups, shapes[0].perGroup, want)
			}
		}
	}
}
