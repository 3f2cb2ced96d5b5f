package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestCompileEveryListedApp: -list names the whole suite (the sparkapps
// catalog and Table 2), every listed app compiles to a report, and an
// unknown app is an error.
func TestCompileEveryListedApp(t *testing.T) {
	var list bytes.Buffer
	if err := run([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(list.String()), "\n")
	if lines[0] != "applications:" || len(lines)-1 < 16 {
		t.Fatalf("-list printed %d apps, want >= 16:\n%s", len(lines)-1, list.String())
	}
	for _, line := range lines[1:] {
		app := strings.Fields(line)[0]
		var out bytes.Buffer
		if err := run([]string{"-app", app}, &out); err != nil {
			t.Errorf("-app %s: %v", app, err)
			continue
		}
		if !strings.HasPrefix(out.String(), "== "+app+" ==\n") || !strings.Contains(out.String(), "-- SER ") {
			t.Errorf("-app %s printed no compilation report:\n%s", app, out.String())
		}
	}
	if err := run([]string{"-app", "nosuch"}, io.Discard); err == nil {
		t.Error("-app nosuch compiled")
	}
}
