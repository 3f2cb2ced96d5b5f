package shuffle_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/recovery"
	. "repro/internal/shuffle"
	"repro/internal/trace"
)

// A replicated block survives the loss of one copy: the fetch path fails
// over to the surviving replica and the output is byte-identical.
func TestReplicaFailoverSurvivesReplicaLoss(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 20, 5)
	ref, _ := runExchange(t, c, Config{Partitions: 2}, nil, parts)

	tr := trace.New()
	store := NewStore()
	cfg := Config{Partitions: 2, Replicas: 2, Trace: tr, SpillDir: t.TempDir()}
	ex, err := NewExchange(store, cfg, "test", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		w := ex.Writer(i)
		if err := w.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < 2; m++ {
		for r := 0; r < 2; r++ {
			store.Drop("test", m, r, 1)
		}
	}
	blocks, err := ex.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	for r := range blocks {
		if !bytes.Equal(blocks[r], ref[r]) {
			t.Errorf("reducer %d diverged after replica loss", r)
		}
	}
}

// A read that skips a lost first replica is a failover like one past a
// failing replica: losing one of a block's two copies counts once, in
// the counter and as an instant.
func TestLostReplicaCountsAsFailover(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 8, 4)
	tr := trace.New()
	store := NewStore()
	cfg := Config{Partitions: 1, Replicas: 2, Trace: tr, SpillDir: t.TempDir()}
	ex, err := NewExchange(store, cfg, "test", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, ex, parts)
	if n := store.Drop("test", 0, 0, 1); n != 1 {
		t.Fatalf("dropped %d replicas, want 1", n)
	}
	if _, err := ex.FetchAll(); err != nil {
		t.Fatal(err)
	}
	instants := 0
	for _, e := range tr.Events() {
		if e.Name == "replica-failover" {
			instants++
		}
	}
	if n := tr.Registry().Counter("recovery_replica_failover_total").Value(); n != 1 || instants != 1 {
		t.Errorf("replica failovers = %d, instants = %d, want 1 and 1", n, instants)
	}
}

// A first replica that keeps failing its fetches is abandoned after the
// retry budget (3 attempts) and the next replica takes over — the
// failover counter records it.
func TestReplicaFailoverOnExhaustedRetries(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 12, 4)
	ref, _ := runExchange(t, c, Config{Partitions: 1}, nil, parts)

	tr := trace.New()
	inj := &faults.Injector{Seed: 3, FetchFailRate: 1, FetchFails: 3}
	cfg := Config{Partitions: 1, Replicas: 2,
		Injector: inj, Trace: tr, SpillDir: t.TempDir()}
	blocks, st := runExchange(t, c, cfg, nil, parts)
	if !bytes.Equal(blocks[0], ref[0]) {
		t.Error("failover output diverged")
	}
	if st.FetchRetries < 1 {
		t.Errorf("fetch retries = %d, want >= 1", st.FetchRetries)
	}
	if n := tr.Registry().Counter("recovery_replica_failover_total").Value(); n < 1 {
		t.Errorf("replica failovers = %d, want >= 1", n)
	}
}

// The tentpole end state: every replica of a block is gone, the lineage
// re-runs just the producing map task, and the rebuilt fetch is
// byte-identical — with recovery_reexec_total recording the rescue.
func TestLineageRebuildRestoresFullyLostBlocks(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 20, 5)
	ref, _ := runExchange(t, c, Config{Partitions: 2}, nil, parts)

	tr := trace.New()
	store := NewStore()
	lin := recovery.NewLineage()
	cfg := Config{Partitions: 2, Lineage: lin, Trace: tr, SpillDir: t.TempDir()}
	ex, err := NewExchange(store, cfg, "test", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		w := ex.Writer(i)
		if err := w.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		i, p := i, p
		lin.Register("test", i, func() error {
			rw := ex.RecoveryWriter(i)
			if err := rw.Add(p); err != nil {
				return err
			}
			return rw.Close()
		})
	}
	// Lose every replica of map task 0's blocks for both reducers.
	for r := 0; r < 2; r++ {
		if dropped := store.Drop("test", 0, r, 99); dropped == 0 {
			t.Fatalf("reducer %d of map 0 had nothing to drop", r)
		}
	}
	blocks, err := ex.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	for r := range blocks {
		if !bytes.Equal(blocks[r], ref[r]) {
			t.Errorf("reducer %d diverged after lineage rebuild", r)
		}
	}
	if n := tr.Registry().Counter("recovery_reexec_total").Value(); n < 1 {
		t.Errorf("recovery_reexec_total = %d, want >= 1", n)
	}
}

// A reducer whose block is fully lost rebuilds it from lineage while the
// other reducers fetch concurrently: a rebuild re-publishes every block
// of its map task, including blocks other reducers are reading, and the
// rebuilt bytes must match. Once the fetch is over the exchange has
// released its producers.
func TestLineageRebuildDuringConcurrentFetch(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 6, 30, 11)
	base := Config{Partitions: 8, MemoryBudget: 256, Compression: LZ4}
	ref, _ := runExchange(t, c, base, nil, parts)

	tr := trace.New()
	store := NewStore()
	lin := recovery.NewLineage()
	cfg := base
	cfg.Replicas, cfg.Lineage, cfg.Trace, cfg.SpillDir = 2, lin, tr, t.TempDir()
	ex, err := NewExchange(store, cfg, "test", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, ex, parts)
	for i, p := range parts {
		lin.Register("test", i, func() error {
			rw := ex.RecoveryWriter(i)
			if err := rw.Add(p); err != nil {
				return err
			}
			return rw.Close()
		})
	}
	// Lose every replica of map task 2's block for reducers 1 and 5.
	for _, r := range []int{1, 5} {
		if dropped := store.Drop("test", 2, r, 99); dropped != 2 {
			t.Fatalf("reducer %d of map 2: dropped %d replicas, want 2", r, dropped)
		}
	}
	blocks, err := ex.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	for r := range blocks {
		if !bytes.Equal(blocks[r], ref[r]) {
			t.Errorf("reducer %d diverged after a concurrent lineage rebuild", r)
		}
	}
	if n := tr.Registry().Counter("recovery_reexec_total").Value(); n < 1 {
		t.Errorf("recovery_reexec_total = %d, want >= 1", n)
	}
	if n := lin.Len(); n != 0 {
		t.Errorf("%d lineage producers left after the fetch", n)
	}
}

// Without lineage, a fully lost block still fails the fetch loudly.
func TestFullReplicaLossWithoutLineageFails(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 8, 3)
	store := NewStore()
	ex, err := NewExchange(store, Config{Partitions: 1}, "test", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := ex.Writer(0)
	if err := w.Add(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	store.Drop("test", 0, 0, 99)
	if _, err := ex.FetchAll(); err == nil {
		t.Fatal("fetch of a fully lost block succeeded without lineage")
	}
}

// The injected replica-loss knob drives the same path end to end: a
// replicated exchange under LoseBlockReplicas completes byte-identically
// via failover alone (no breaker, no lineage).
func TestInjectedReplicaLossRecoversViaFailover(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 2, 16, 7)
	ref, _ := runExchange(t, c, Config{Partitions: 2}, nil, parts)

	inj := &faults.Injector{Seed: 11, ReplicaLossRate: 1, ReplicaLosses: 1}
	cfg := Config{Partitions: 2, Replicas: 2, Injector: inj}
	blocks, _ := runExchange(t, c, cfg, nil, parts)
	for r := range blocks {
		if !bytes.Equal(blocks[r], ref[r]) {
			t.Errorf("reducer %d diverged under injected replica loss", r)
		}
	}
}

// Satellite: the k-way merge under a zero-headroom budget — every single
// record spills as its own run, including the degenerate one-record
// exchange — still reproduces the in-memory reference bytes.
func TestTinyBudgetMergeDegenerateRuns(t *testing.T) {
	c := pairCompiled(t)

	t.Run("one-record", func(t *testing.T) {
		parts := encodeParts(t, c, 1, 1, 1)
		ref, _ := runExchange(t, c, Config{Partitions: 2}, nil, parts)
		got, st := runExchange(t, c, Config{Partitions: 2, MemoryBudget: 1}, nil, parts)
		if st.Spills != 1 {
			t.Errorf("one-record run spilled %d times, want 1", st.Spills)
		}
		for r := range got {
			if !bytes.Equal(got[r], ref[r]) {
				t.Errorf("reducer %d diverged", r)
			}
		}
	})

	t.Run("run-per-record", func(t *testing.T) {
		parts := encodeParts(t, c, 2, 15, 4)
		ref, _ := runExchange(t, c, Config{Partitions: 3}, nil, parts)
		got, st := runExchange(t, c, Config{Partitions: 3, MemoryBudget: 1}, nil, parts)
		if st.Spills != 30 {
			t.Errorf("spilled %d runs, want one per record (30)", st.Spills)
		}
		// Each run is one record in one group: the record's own bytes
		// behind an 8-byte [reducer][bytes] header, no per-record framing.
		if want := int64(len(parts[0])+len(parts[1])) + 8*st.Spills; st.BytesSpilled != want {
			t.Errorf("spilled %d bytes, want the records' bytes plus 8 per run (%d)", st.BytesSpilled, want)
		}
		for r := range got {
			if !bytes.Equal(got[r], ref[r]) {
				t.Errorf("reducer %d diverged with one-record runs", r)
			}
		}
	})

	t.Run("run-per-record-compressed", func(t *testing.T) {
		parts := encodeParts(t, c, 2, 15, 4)
		ref, _ := runExchange(t, c, Config{Partitions: 3}, nil, parts)
		got, _ := runExchange(t, c, Config{Partitions: 3, MemoryBudget: 1, Compression: LZ4}, nil, parts)
		for r := range got {
			if !bytes.Equal(got[r], ref[r]) {
				t.Errorf("reducer %d diverged with compressed one-record runs", r)
			}
		}
	})
}

// Satellite: a Close that fails mid-merge must not leak its spill run
// files.
func TestCloseRemovesRunsOnMergeError(t *testing.T) {
	c := pairCompiled(t)
	parts := encodeParts(t, c, 1, 10, 3)
	dir := t.TempDir()
	cfg := Config{Partitions: 2, MemoryBudget: 64, SpillDir: dir}
	ex, err := NewExchange(nil, cfg, "test", c.Layouts, "Pair", "key", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := ex.Writer(0)
	if err := w.Add(parts[0]); err != nil {
		t.Fatal(err)
	}
	// A writer spills into a directory of its own under SpillDir.
	runs, err := filepath.Glob(filepath.Join(dir, "shuffle-*", "shuffle-*.run"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no spill runs on disk (err=%v)", err)
	}
	// Truncate one run so the merge's readRun fails.
	if err := os.Truncate(runs[0], 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close over a truncated run succeeded")
	}
	left, _ := os.ReadDir(dir)
	if len(left) != 0 {
		t.Errorf("%d entries leaked into SpillDir after failed Close, first %s", len(left), left[0].Name())
	}
}
