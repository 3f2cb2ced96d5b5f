package interp_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/transform"
)

// TestDifferentialCompiledVsInterp extends the random-UDF differential
// fuzz across execution backends: for every generated program the
// closure-compiled chain and the tree-walking interpreter must agree
// exactly — same output bytes, same return value, and on failure the
// same error text and the same abort classification. This is the
// property the engine's backend switch relies on: the two backends are
// interchangeable per task.
//
// It lives in the external interp_test package because the in-package
// test files cannot import internal/compile (test-variant import
// cycle); the case generator is exported from an in-package test file.
func TestDifferentialCompiledVsInterp(t *testing.T) {
	f := func(seed int64) bool {
		c, err := interp.GenFuzzUDFCase(t, seed)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		ser, err := analysis.AnalyzeSER(c.Prog, c.Layouts, "driver")
		if err != nil || !ser.Transformable {
			t.Logf("seed %d: analysis: %v / %v", seed, err, ser)
			return false
		}
		xf, err := transform.Transform(c.Prog, c.Layouts, ser)
		if err != nil {
			t.Logf("seed %d: transform: %v", seed, err)
			return false
		}

		// A fully transformed driver must always compile: it contains no
		// heap-path statements by construction.
		prog, err := compile.Compile(c.Prog, xf.Native)
		if err != nil {
			t.Logf("seed %d: compile declined transformed driver: %v", seed, err)
			return false
		}

		envI, outI := c.NewNativeEnv()
		retI, errI := interp.New(envI).Run(xf.Native)

		envC, outC := c.NewNativeEnv()
		retC, errC := prog.Bind(envC).Run()

		if (errI == nil) != (errC == nil) {
			t.Logf("seed %d: error mismatch: interp=%v compiled=%v", seed, errI, errC)
			return false
		}
		if errI != nil {
			if errI.Error() != errC.Error() {
				t.Logf("seed %d: error text differs:\ninterp   %v\ncompiled %v", seed, errI, errC)
				return false
			}
			if errors.Is(errI, interp.ErrAbort) != errors.Is(errC, interp.ErrAbort) {
				t.Logf("seed %d: abort classification differs: interp=%v compiled=%v", seed, errI, errC)
				return false
			}
			return true // identical failures are a valid differential outcome
		}
		if retI != retC {
			t.Logf("seed %d: return value differs: interp=%d compiled=%d", seed, retI, retC)
			return false
		}
		if !bytes.Equal(outI(), outC()) {
			t.Logf("seed %d: outputs differ\ninterp   %x\ncompiled %x", seed, outI(), outC())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
