package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
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
