package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
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
	var got strings.Builder
	for _, app := range allApps() {
		for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
			res, err := RunApp(app, Quick(), mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", app, mode, err)
			}
			fmt.Fprintf(&got, "%s %v %x\n", app, mode, sha256.Sum256(res.Out))
		}
	}
	if got.String() != string(want) {
		t.Errorf("app outputs differ from testdata/app_outputs.sha256; got:\n%s", got.String())
	}
}
