package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestAppOutputsPinned runs every Table 1 and Table 2 application in both
// modes at Quick() and compares the sha256 of RunApp's canonical output
// with testdata/app_outputs.sha256. A refactor of the suite's plumbing
// must leave every output byte-identical; a deliberate output change
// regenerates the file from the listing this test prints on mismatch.
func TestAppOutputsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/app_outputs.sha256")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Matrix{Variants: []Variant{{Name: "pinned"}}, Check: func(cells []*Cell) error {
		var got strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&got, "%s %v %x\n", c.App, c.Mode, sha256.Sum256(c.Out))
		}
		if got.String() != string(want) {
			return fmt.Errorf("app outputs differ from testdata/app_outputs.sha256; got:\n%s", got.String())
		}
		return nil
	}}.Run(Quick())
	if err != nil {
		t.Error(err)
	}
}
