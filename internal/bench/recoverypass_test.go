package bench

import (
	"testing"

	"repro/internal/engine"
)

// The ISSUE 6 acceptance criterion: for every app in both modes, output
// under injected replica loss, reduce-task kills, and checkpoint
// corruption is byte-identical to the fault-free run, with the recovery
// counters proving the loss was repaired by the durability layer. It
// holds on either native backend.
func TestRecoveryCheckQuick(t *testing.T) {
	for _, backend := range []engine.Backend{engine.BackendCompiled, engine.BackendInterp} {
		t.Run(backend.String(), func(t *testing.T) {
			cfg := Quick()
			cfg.Backend = backend
			res, err := RecoveryCheck(cfg)
			if err != nil {
				t.Fatalf("recovery check failed: %v", err)
			}
			if res.Checks["equal"] != 1 {
				t.Error("recovery outputs diverged")
			}
			if res.Checks["reexecs"] == 0 {
				t.Error("no lineage re-executions recorded")
			}
			if res.Checks["resumes"] == 0 {
				t.Error("no checkpoint resumes recorded")
			}
			if res.Checks["corrupt_detected"] == 0 {
				t.Error("no corrupt checkpoints detected")
			}
		})
	}
}
