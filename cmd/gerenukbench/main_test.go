package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

func ids(exps []experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.id)
	}
	return out
}

func TestParseOnlyUnknownIDListsValid(t *testing.T) {
	exps := experiments(&bench.Config{})
	_, err := parseOnly("fig4,fig99", exps)
	if err == nil {
		t.Fatal("unknown id fig99 accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"fig99"`) {
		t.Errorf("error %q does not name the unknown id", msg)
	}
	for _, id := range ids(exps) {
		if !strings.Contains(msg, id) {
			t.Errorf("error %q does not list valid id %s", msg, id)
		}
	}
}

func TestParseOnlyResolvesEveryID(t *testing.T) {
	exps := experiments(&bench.Config{})
	for _, e := range exps {
		run, err := parseOnly(" "+e.id+" ", exps)
		if err != nil {
			t.Fatalf("-only %s: %v", e.id, err)
		}
		if got := ids(run); len(got) != 1 || got[0] != e.id {
			t.Errorf("-only %s selected %v", e.id, got)
		}
	}
	// A list selects in run order, whatever order it names the ids in.
	run, err := parseOnly("static,shuffle-check,fig4", exps)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ids(run), ","); got != "fig4,static,shuffle-check" {
		t.Errorf("selected %s, want fig4,static,shuffle-check", got)
	}
}

func TestParseOnlyEmptySelectsEveryExperimentNoPass(t *testing.T) {
	exps := experiments(&bench.Config{})
	var want []string
	passes := 0
	for _, e := range exps {
		if e.pass {
			passes++
		} else {
			want = append(want, e.id)
		}
	}
	if passes == 0 || len(want) == 0 {
		t.Fatalf("table has %d experiments and %d passes", len(want), passes)
	}
	for _, only := range []string{"", " , "} {
		run, err := parseOnly(only, exps)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(ids(run), ","); got != strings.Join(want, ",") {
			t.Errorf("-only %q selected %s, want %s", only, got, strings.Join(want, ","))
		}
	}
}

// TestFailedExperimentCloses: an experiment that fails still closes the
// session — the streamed trace ends as valid JSON and the metrics
// snapshot is written — and the failure is run's error.
func TestFailedExperimentCloses(t *testing.T) {
	dir := t.TempDir()
	tf, mf := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	var out strings.Builder
	err := run([]string{"-only", "recovery-check", "-stage-deadline", "1ns", "-scale", "1",
		"-trace", tf, "-metrics-json", mf}, &out)
	if err == nil {
		t.Fatal("recovery-check passed under a 1ns stage deadline")
	}
	decode(t, tf, new(trace.ChromeTraceFile))
	var mfile trace.MetricsFile
	decode(t, mf, &mfile)
	if mfile.Schema != trace.MetricsSchemaVersion {
		t.Errorf("%s: schema %d, want %d", mf, mfile.Schema, trace.MetricsSchemaVersion)
	}
}

// TestUnknownOnlyIsFlagError: an unknown -only id is rejected while the
// flags parse — before anything runs — so it exits 2 like any bad flag.
func TestUnknownOnlyIsFlagError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-only", "fig99"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown -only id "fig99"`) {
		t.Fatalf("err = %v, want the unknown -only id", err)
	}
	if out.Len() != 0 {
		t.Errorf("wrote %q before failing", out.String())
	}
}

func decode(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
