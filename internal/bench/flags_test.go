package bench

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestExitStatus runs ParseArgs and Exit in a child process the way a
// command's main does: -help exits 0, a bad flag exits 2 with the error
// printed once (by the FlagSet), and a run error is printed after the
// program name and exits with the command's code.
func TestExitStatus(t *testing.T) {
	if args, ok := os.LookupEnv("BENCH_EXIT_ARGS"); ok {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.Bool("v", false, "verbose")
		err := ParseArgs(fs, strings.Fields(args))
		if err == nil {
			err = errors.New("run failed")
		}
		Exit("cmd", err, 3)
		os.Exit(0)
	}
	for _, c := range []struct {
		args   string
		code   int
		stderr string // must appear exactly once
	}{
		{"-h", 0, "Usage of cmd"},
		{"-nosuch", 2, "flag provided but not defined: -nosuch"},
		{"-v", 3, "cmd: run failed\n"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExitStatus$")
		cmd.Env = append(os.Environ(), "BENCH_EXIT_ARGS="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatal(err)
			}
			code = ee.ExitCode()
		}
		if code != c.code || strings.Count(stderr.String(), c.stderr) != 1 {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q once", c.args, code, stderr.String(), c.code, c.stderr)
		}
	}
}
