package engine

import (
	"testing"
	"time"
)

// TestCancelerSemantics pins the cooperative-cancellation primitive:
// idempotent cancel, nil-safe flag access, and sleep returning early
// (reporting canceled) when the flag trips mid-stall.
func TestCancelerSemantics(t *testing.T) {
	var nilC *canceler
	if nilC.cancelFlag() != nil {
		t.Fatalf("nil canceler must expose a nil flag")
	}

	c := newCanceler()
	if c.cancelFlag().Load() {
		t.Fatalf("fresh canceler already canceled")
	}
	c.cancel()
	c.cancel() // idempotent: a second cancel must not close twice
	if !c.cancelFlag().Load() {
		t.Fatalf("cancel did not set the flag")
	}
	if !c.sleep(time.Hour) {
		t.Fatalf("sleep on a canceled canceler must return immediately as canceled")
	}

	c2 := newCanceler()
	done := make(chan bool, 1)
	go func() { done <- c2.sleep(time.Hour) }()
	c2.cancel()
	select {
	case canceled := <-done:
		if !canceled {
			t.Fatalf("sleep returned uncanceled after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("canceled sleep did not wake up")
	}

	if c2.sleep(time.Microsecond) != true {
		t.Fatalf("sleep after cancel must report canceled")
	}
}
