package bench

import "testing"

// The ISSUE 6 acceptance criterion: for every app in both modes, output
// under injected replica loss, reduce-task kills, and checkpoint
// corruption is byte-identical to the fault-free run, with the recovery
// counters proving the loss was repaired by the durability layer.
func TestRecoveryCheckQuick(t *testing.T) {
	res, err := RecoveryCheck(Quick())
	if err != nil {
		t.Fatalf("recovery check failed: %v\n%s", err, res.Render())
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
}
