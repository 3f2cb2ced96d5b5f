package bench

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// pin holds a verification pass's printed table to a golden file. Only
// what scheduling or timing moves is masked: column, in the row whose
// first cell is row (every row when row is empty), and each note's
// match of note. A masked value reads "~".
type pin struct {
	file   string
	column string
	row    string
	note   *regexp.Regexp
}

// The passes' pins. Recovery masks the lineage re-execution counts:
// concurrent reducers race to the same rebuild, so a run counts one more
// or one fewer. Chaos masks what wall clocks decide: whether the hedged
// run beat the unhedged one, and the note reporting both walls.
var (
	shufflePin  = pin{file: "shuffle-check.golden"}
	recoveryPin = pin{file: "recovery-check.golden", column: "reexecs", note: regexp.MustCompile(`^\d+`)}
	streamPin   = pin{file: "stream-check.golden"}
	chaosPin    = pin{file: "chaos-42.golden", column: "outcome", row: "gerenuk (stragglers, hedged)",
		note: regexp.MustCompile(`^hedging cut .*`)}
)

// check compares r's masked rendering with testdata/<file>; -update
// rewrites the file instead.
func (p pin) check(t *testing.T, r *Result) {
	t.Helper()
	masked := *r
	masked.Table.Rows = nil
	col := slices.Index(r.Table.Header, p.column)
	for _, row := range r.Table.Rows {
		row = slices.Clone(row)
		if col >= 0 && (p.row == "" || row[0] == p.row) {
			row[col] = "~"
		}
		masked.Table.Rows = append(masked.Table.Rows, row)
	}
	masked.Notes = nil
	for _, n := range r.Notes {
		if p.note != nil {
			n = p.note.ReplaceAllString(n, "~")
		}
		masked.Notes = append(masked.Notes, n)
	}
	got := masked.Render()
	path := filepath.Join("testdata", p.file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s table differs from %s; got:\n%s", r.ID, path, got)
	}
}
