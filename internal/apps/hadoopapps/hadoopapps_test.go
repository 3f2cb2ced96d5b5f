package hadoopapps

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/hadoop"
	"repro/internal/serde"
	"repro/internal/workload"
)

func splitsFor(t *testing.T, comp *engine.Compiled, app string, n int) [][]byte {
	t.Helper()
	var objs []serde.Obj
	var class string
	switch Dataset(app) {
	case "stackoverflow-users":
		objs = workload.GenUsers(60, 3)
		class = ClsUser
	case "stackoverflow-posts":
		objs = workload.GenPosts(25, 4, 3)
		class = ClsPost
	default:
		objs = workload.GenDocs(16, 10, 3)
		class = ClsDoc
	}
	parts, err := workload.Encode(comp.Codec, class, objs, n)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func decodeOut(t *testing.T, comp *engine.Compiled, class string, buf []byte) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for off := 0; off < len(buf); {
		v, next, err := comp.Codec.Decode(class, buf, off)
		if err != nil {
			t.Fatal(err)
		}
		o := v.(serde.Obj)
		switch class {
		case ClsCountRec:
			out[string(rune(o["k"].(int64)))+"#"] += o["n"].(int64)
		case ClsWordCount:
			out[o["word"].(string)] += o["n"].(int64)
		case ClsUser:
			out[string(rune(o["id"].(int64)))+"u"]++
		}
		off = next
	}
	return out
}

// TestAllAppsBothModes runs each Table 2 program in both execution modes
// and checks result equality and abort-freedom.
func TestAllAppsBothModes(t *testing.T) {
	for _, app := range AllApps {
		app := app
		t.Run(app, func(t *testing.T) {
			var results []map[string]int64
			for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
				prog, conf := NewProgram(app)
				conf.Mode = mode
				conf.Workers = 2
				conf.Reducers = 2
				comp := engine.Compile(prog)
				splits := splitsFor(t, comp, app, 2)
				res, err := hadoop.Run(comp, conf, splits)
				if err != nil {
					t.Fatalf("%s %v: %v", app, mode, err)
				}
				if res.Stats.Aborts != 0 {
					t.Errorf("%s %v: %d aborts", app, mode, res.Stats.Aborts)
				}
				if mode == engine.Baseline && res.Stats.Deser == 0 {
					t.Errorf("%s baseline paid no deserialization", app)
				}
				results = append(results, decodeOut(t, comp, conf.OutClass, res.Out))
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("%s results differ:\nbaseline %v\ngerenuk  %v", app, results[0], results[1])
			}
			if len(results[0]) == 0 {
				t.Fatalf("%s produced no output", app)
			}
		})
	}
}

// TestUAHHistogramIsComplete: every post lands in exactly one hour
// bucket and totals match.
func TestUAHHistogramIsComplete(t *testing.T) {
	posts := workload.GenPosts(25, 4, 3)
	prog, conf := NewProgram(UAH)
	conf.Mode = engine.Gerenuk
	comp := engine.Compile(prog)
	splits, err := workload.Encode(comp.Codec, ClsPost, posts, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hadoop.Run(comp, conf, splits)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for off := 0; off < len(res.Out); {
		v, next, err := comp.Codec.Decode(ClsCountRec, res.Out, off)
		if err != nil {
			t.Fatal(err)
		}
		o := v.(serde.Obj)
		if h := o["k"].(int64); h < 0 || h > 23 {
			t.Errorf("hour bucket %d out of range", h)
		}
		total += o["n"].(int64)
		off = next
	}
	if total != int64(len(posts)) {
		t.Errorf("histogram total %d != %d posts", total, len(posts))
	}
}

// TestIUFFiltersInactive: output contains only users active within 90
// days.
func TestIUFFiltersInactive(t *testing.T) {
	users := workload.GenUsers(80, 5)
	active := 0
	for _, u := range users {
		if u["lastActive"].(int64) <= 90 {
			active++
		}
	}
	prog, conf := NewProgram(IUF)
	conf.Mode = engine.Gerenuk
	comp := engine.Compile(prog)
	splits, err := workload.Encode(comp.Codec, ClsUser, users, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hadoop.Run(comp, conf, splits)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for off := 0; off < len(res.Out); {
		v, next, err := comp.Codec.Decode(ClsUser, res.Out, off)
		if err != nil {
			t.Fatal(err)
		}
		if la := v.(serde.Obj)["lastActive"].(int64); la > 90 {
			t.Errorf("inactive user in output: lastActive=%d", la)
		}
		n++
		off = next
	}
	if n != active {
		t.Errorf("output %d users, want %d active", n, active)
	}
}

// TestIMCCombinerReducesShuffleVolume: with the in-map combiner, the
// reduce side sees fewer records than the raw map output.
func TestIMCCombinerReducesShuffleVolume(t *testing.T) {
	run := func(app string) int64 {
		prog, conf := NewProgram(app)
		conf.Mode = engine.Baseline
		comp := engine.Compile(prog)
		splits, err := workload.Encode(comp.Codec, ClsDoc, workload.GenDocs(30, 20, 3), 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hadoop.Run(comp, conf, splits)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.ShuffleBytesFetched
	}
	withCombiner := run(IMC)
	without := run(TFC)
	if withCombiner >= without {
		t.Errorf("IMC shuffled %d bytes, TFC shuffled %d: combiner did not reduce volume",
			withCombiner, without)
	}
}

// TestJobsCoverAllApps keeps the jobs table and AllApps in step: every
// Table 2 app builds a program that defines each driver its job lists,
// and a combiner that is the reduce driver is listed once.
func TestJobsCoverAllApps(t *testing.T) {
	if len(jobs) != len(AllApps) {
		t.Errorf("jobs has %d entries, AllApps %d", len(jobs), len(AllApps))
	}
	for _, app := range AllApps {
		prog, conf := NewProgram(app)
		if conf.Name != app {
			t.Errorf("%s: conf.Name = %q", app, conf.Name)
		}
		for _, d := range conf.Drivers() {
			if _, ok := prog.Funcs[d]; !ok {
				t.Errorf("%s: driver %s not registered", app, d)
			}
		}
	}
	if _, conf := NewProgram(IMC); !reflect.DeepEqual(conf.Drivers(), []string{"wcSplitStage", "wcCombineStage"}) {
		t.Errorf("IMC drivers = %v, want the combiner counted once", conf.Drivers())
	}
}
