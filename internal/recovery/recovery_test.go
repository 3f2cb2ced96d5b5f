package recovery

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestCheckpointSaveLoadDrop(t *testing.T) {
	s := NewCheckpointStore()
	if _, ok, corrupt := s.Load("t1"); ok || corrupt {
		t.Fatalf("empty store: ok=%v corrupt=%v", ok, corrupt)
	}
	data := []byte("partial fold state")
	s.Save("t1", 3, data)
	data[0] = 'X' // caller keeps ownership; the store must have copied
	ck, ok, corrupt := s.Load("t1")
	if !ok || corrupt {
		t.Fatalf("Load: ok=%v corrupt=%v", ok, corrupt)
	}
	if ck.Seq != 3 || string(ck.Data) != "partial fold state" {
		t.Fatalf("Load = %d %q", ck.Seq, ck.Data)
	}
	ck.Data[0] = 'Y' // returned copy must not alias the stored bytes
	if ck2, _, _ := s.Load("t1"); string(ck2.Data) != "partial fold state" {
		t.Fatalf("stored bytes aliased: %q", ck2.Data)
	}
	s.Save("t1", 5, []byte("later state"))
	if ck, _, _ := s.Load("t1"); ck.Seq != 5 {
		t.Fatalf("overwrite kept seq %d", ck.Seq)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Drop("t1")
	if s.Len() != 0 {
		t.Fatalf("Len after Drop = %d", s.Len())
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	s := NewCheckpointStore()
	s.Save("t1", 2, []byte("state"))
	if !s.Corrupt("t1") {
		t.Fatal("Corrupt found no checkpoint")
	}
	ck, ok, corrupt := s.Load("t1")
	if ok || !corrupt {
		t.Fatalf("corrupted Load: ok=%v corrupt=%v ck=%+v", ok, corrupt, ck)
	}
	// The corrupt entry must have been discarded, not resurface later.
	if _, ok, corrupt := s.Load("t1"); ok || corrupt {
		t.Fatalf("second Load after corruption: ok=%v corrupt=%v", ok, corrupt)
	}
	if s.Corrupt("missing") {
		t.Fatal("Corrupt invented a checkpoint")
	}
}

func TestNilCheckpointStoreIsInert(t *testing.T) {
	var s *CheckpointStore
	s.Save("t", 1, []byte("x"))
	if _, ok, corrupt := s.Load("t"); ok || corrupt {
		t.Fatal("nil store returned a checkpoint")
	}
	s.Drop("t")
	if s.Corrupt("t") || s.Len() != 0 {
		t.Fatal("nil store not inert")
	}
}

func TestLineageRebuild(t *testing.T) {
	l := NewLineage()
	if err := l.Rebuild("ex", 0); !errors.Is(err, ErrNoLineage) {
		t.Fatalf("unregistered Rebuild: %v", err)
	}
	calls := 0
	l.Register("ex", 0, func() error { calls++; return nil })
	if err := l.Rebuild("ex", 0); err != nil || calls != 1 {
		t.Fatalf("Rebuild: err=%v calls=%d", err, calls)
	}
	// Idempotent: a second rebuild replays the closure.
	if err := l.Rebuild("ex", 0); err != nil || calls != 2 {
		t.Fatalf("second Rebuild: err=%v calls=%d", err, calls)
	}
	if err := l.Rebuild("ex", 1); !errors.Is(err, ErrNoLineage) {
		t.Fatalf("wrong map task: %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	var nilL *Lineage
	nilL.Register("ex", 0, func() error { return nil })
	if err := nilL.Rebuild("ex", 0); !errors.Is(err, ErrNoLineage) {
		t.Fatalf("nil lineage: %v", err)
	}
}

func TestLineageRebuildSerializesPerProducer(t *testing.T) {
	l := NewLineage()
	inFlight := 0
	var mu sync.Mutex
	l.Register("ex", 0, func() error {
		mu.Lock()
		inFlight++
		if inFlight != 1 {
			mu.Unlock()
			t.Error("concurrent rebuilds of one producer")
			return nil
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Rebuild("ex", 0); err != nil {
				t.Errorf("Rebuild: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestWatchdogPassesResultsThrough(t *testing.T) {
	w := Watchdog{Deadline: time.Second}
	v, err := w.Guard("s", func() (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("Guard = %v, %v", v, err)
	}
	want := errors.New("boom")
	if _, err := w.Guard("s", func() (any, error) { return nil, want }); !errors.Is(err, want) {
		t.Fatalf("Guard error = %v", err)
	}
	// Disabled watchdog runs inline.
	w0 := Watchdog{}
	if v, err := w0.Guard("s", func() (any, error) { return "ok", nil }); err != nil || v.(string) != "ok" {
		t.Fatalf("disabled Guard = %v, %v", v, err)
	}
}

func TestWatchdogTimesOutHungStage(t *testing.T) {
	tr := trace.New()
	w := Watchdog{Deadline: 5 * time.Millisecond, Trace: tr}
	release := make(chan struct{})
	defer close(release)
	_, err := w.Guard("hung", func() (any, error) {
		<-release
		return nil, nil
	})
	if !errors.Is(err, ErrStageTimeout) {
		t.Fatalf("Guard = %v, want stage timeout", err)
	}
	var ste *StageTimeoutError
	if !errors.As(err, &ste) || ste.Stage != "hung" {
		t.Fatalf("timeout error = %#v", err)
	}
	if got := tr.Registry().Counter("recovery_watchdog_timeouts_total").Value(); got != 1 {
		t.Fatalf("watchdog counter = %d", got)
	}
}

// Two concurrent jobs registering producers for the same-named exchange
// used to collide on the unscoped (exchange, map task) key: the later Register
// silently replaced the earlier job's rebuild closure, so a fetch-miss
// in job A could replay job B's producer. Job-scoped views must keep
// the registrations separate.
func TestLineageScopeIsolatesSameNamedExchanges(t *testing.T) {
	root := NewLineage()
	jobA := root.Scope("jobA")
	jobB := root.Scope("jobB")

	var rebuilt []string
	jobA.Register("shuffle-0", 0, func() error { rebuilt = append(rebuilt, "A"); return nil })
	jobB.Register("shuffle-0", 0, func() error { rebuilt = append(rebuilt, "B"); return nil })

	if err := jobA.Rebuild("shuffle-0", 0); err != nil {
		t.Fatalf("jobA Rebuild: %v", err)
	}
	if err := jobB.Rebuild("shuffle-0", 0); err != nil {
		t.Fatalf("jobB Rebuild: %v", err)
	}
	if len(rebuilt) != 2 || rebuilt[0] != "A" || rebuilt[1] != "B" {
		t.Fatalf("rebuilds = %v, want [A B] (scoped closures must not alias)", rebuilt)
	}
	// A scope only sees its own registrations.
	if err := jobA.Rebuild("shuffle-0", 1); !errors.Is(err, ErrNoLineage) {
		t.Fatalf("jobA unregistered map task: %v", err)
	}
	if n := root.Scope("jobC").Len(); n != 0 {
		t.Fatalf("fresh scope Len = %d", n)
	}
	if jobA.Len() != 1 || jobB.Len() != 1 {
		t.Fatalf("scoped Len = %d/%d, want 1/1", jobA.Len(), jobB.Len())
	}
	// Releasing an exchange drops only the releasing scope's producers.
	jobA.Release("shuffle-0")
	if jobA.Len() != 0 || jobB.Len() != 1 || root.Len() != 1 {
		t.Fatalf("after release Len = %d/%d/%d, want 0/1/1", jobA.Len(), jobB.Len(), root.Len())
	}
	if err := jobA.Rebuild("shuffle-0", 0); !errors.Is(err, ErrNoLineage) {
		t.Fatalf("released producer rebuilt: %v", err)
	}
	var nilL *Lineage
	if nilL.Scope("job") != nil {
		t.Fatal("nil lineage Scope must stay nil")
	}
}

// Checkpoint keys are task names like "reduce-3", which repeat across
// every job; job-scoped views must not let one job resume from another
// job's fold state.
func TestCheckpointScopeIsolatesTaskKeys(t *testing.T) {
	root := NewCheckpointStore()
	jobA := root.Scope("jobA")
	jobB := root.Scope("jobB")

	jobA.Save("reduce-3", 1, []byte("A state"))
	jobB.Save("reduce-3", 7, []byte("B state"))

	ck, ok, corrupt := jobA.Load("reduce-3")
	if !ok || corrupt || ck.Seq != 1 || string(ck.Data) != "A state" {
		t.Fatalf("jobA Load = %+v ok=%v corrupt=%v", ck, ok, corrupt)
	}
	if ck, _, _ := jobB.Load("reduce-3"); ck.Seq != 7 || string(ck.Data) != "B state" {
		t.Fatalf("jobB Load = %+v", ck)
	}
	if jobA.Len() != 1 || jobB.Len() != 1 || root.Len() != 2 {
		t.Fatalf("Len scoped=%d/%d root=%d", jobA.Len(), jobB.Len(), root.Len())
	}
	// Corruption and Drop stay inside their scope.
	if !jobA.Corrupt("reduce-3") {
		t.Fatal("jobA Corrupt found nothing")
	}
	if _, ok, _ := jobB.Load("reduce-3"); !ok {
		t.Fatal("jobA corruption leaked into jobB")
	}
	// Loading the corrupted entry discards it (the recovery layer falls
	// back to from-scratch execution); the scoped load must discard only
	// jobA's entry.
	if _, ok, corrupt := jobA.Load("reduce-3"); ok || !corrupt {
		t.Fatalf("jobA corrupted Load: ok=%v corrupt=%v", ok, corrupt)
	}
	jobB.Drop("reduce-3")
	if root.Len() != 0 {
		t.Fatalf("root Len after scoped drops = %d", root.Len())
	}
	var nilS *CheckpointStore
	if nilS.Scope("job") != nil {
		t.Fatal("nil store Scope must stay nil")
	}
}
