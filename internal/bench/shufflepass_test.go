package bench

import (
	"flag"
	"io"
	"testing"
)

// TestShuffleCheckQuick runs the full shuffle verification pass at test
// scale: every app, both modes, every storage variant byte-equal to the
// in-memory exchange, with the serde ledger intact.
func TestShuffleCheckQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("shuffle check runs the whole app matrix")
	}
	cfg := Quick()
	cfg.Shuffle.SpillDir = t.TempDir()
	r, err := ShuffleCheck(cfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, r.Render())
	}
	for _, check := range []string{"equal", "serde_ledger"} {
		if r.Checks[check] != 1 {
			t.Errorf("check %q = %v, want 1", check, r.Checks[check])
		}
	}
	if r.Checks["spills"] == 0 {
		t.Error("budgeted variants recorded zero spills")
	}
}

// TestShuffleConfigParsing drives the shuffle knobs through the shared
// flag binder: they land in the Config's exchange configuration, and an
// unknown codec is rejected when the flags are resolved.
func TestShuffleConfigParsing(t *testing.T) {
	parse := func(args ...string) (*Session, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := BindFlags(fs, "test", "workers", Quick(), TuningFlags)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Open(io.Discard)
	}
	sess, err := parse("-shuffle-compress", "lz4", "-shuffle-budget", "9")
	if err != nil {
		t.Fatal(err)
	}
	scfg := sess.Config.Shuffle
	if scfg.MemoryBudget != 9 || scfg.Compression.String() != "lz4" {
		t.Errorf("shuffle config = %+v", scfg)
	}
	if sess.Trace != nil || sess.Server != nil {
		t.Error("tracing or the obs plane started without their flags")
	}
	if _, err := parse("-shuffle-compress", "zstd"); err == nil {
		t.Error("unknown codec accepted")
	}
}
