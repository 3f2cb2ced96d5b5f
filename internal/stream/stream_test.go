package stream_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/recovery"
	. "repro/internal/stream"
	"repro/internal/trace"
)

// base returns a small, fully deterministic streaming config.
func base(t *testing.T, app string, mode engine.Mode) Config {
	t.Helper()
	spec, err := App(app)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		App:      spec,
		Mode:     mode,
		Workers:  2,
		Reducers: 2,
		Seed:     7,
		Interval: time.Millisecond,
		CutBy:    Cut{Count: 5},
		WindowBy: Window{Size: 8 * time.Millisecond},
		Windows:  3,
	}
}

// batchified turns a config into its one-giant-batch reference: every
// record of the run lands in a single micro-batch, so the run is the
// batch-computation baseline the streamed outputs must match.
func batchified(cfg Config) Config {
	cfg.CutBy = Cut{Count: 1 << 30}
	cfg.Checkpoints = recovery.NewCheckpointStore()
	cfg.Lineage = recovery.NewLineage()
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("stream.Run(%s/%s): %v", cfg.App.Name, cfg.Mode, err)
	}
	return res
}

func assertWindowsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("%s: %d windows, want %d", label, len(got.Windows), len(want.Windows))
	}
	for w := range got.Windows {
		if !bytes.Equal(got.Windows[w], want.Windows[w]) {
			t.Fatalf("%s: window %d differs (%d vs %d bytes)",
				label, w, len(got.Windows[w]), len(want.Windows[w]))
		}
	}
}

// TestStreamedEqualsBatch is the core differential contract: streamed
// micro-batches produce byte-identical window outputs to a single-batch
// run over the same records, for both apps, both modes, both backends —
// and the two modes agree with each other.
func TestStreamedEqualsBatch(t *testing.T) {
	for _, app := range AppNames {
		for _, backend := range []engine.Backend{engine.BackendCompiled, engine.BackendInterp} {
			var perMode []*Result
			for _, mode := range []engine.Mode{engine.Gerenuk, engine.Baseline} {
				cfg := base(t, app, mode)
				cfg.Backend = backend
				streamed := mustRun(t, cfg)
				ref := mustRun(t, batchified(cfg))
				label := app + "/" + mode.String() + "/" + backend.String()
				if len(streamed.Windows) != cfg.Windows {
					t.Fatalf("%s: %d windows, want %d", label, len(streamed.Windows), cfg.Windows)
				}
				if streamed.Batches <= ref.Batches {
					t.Fatalf("%s: streamed run cut %d batches, reference %d — no streaming happened",
						label, streamed.Batches, ref.Batches)
				}
				if streamed.Records != ref.Records {
					t.Fatalf("%s: streamed %d records, reference %d", label, streamed.Records, ref.Records)
				}
				assertWindowsEqual(t, label+" streamed-vs-batch", streamed, ref)
				nonEmpty := 0
				for _, w := range streamed.Windows {
					if len(w) > 0 {
						nonEmpty++
					}
				}
				if nonEmpty == 0 {
					t.Fatalf("%s: every window empty — vacuous equality", label)
				}
				perMode = append(perMode, streamed)
			}
			assertWindowsEqual(t, app+"/"+backend.String()+" gerenuk-vs-baseline",
				perMode[0], perMode[1])
		}
	}
}

// TestSlidingWindows checks the sliding assignment (each record folded
// into every window covering its arrival) against the batch reference.
func TestSlidingWindows(t *testing.T) {
	for _, mode := range []engine.Mode{engine.Gerenuk, engine.Baseline} {
		cfg := base(t, "wordcount", mode)
		cfg.WindowBy = Window{Size: 8 * time.Millisecond, Slide: 4 * time.Millisecond}
		cfg.Windows = 4
		cfg.CutBy = Cut{Count: 3}
		streamed := mustRun(t, cfg)
		ref := mustRun(t, batchified(cfg))
		assertWindowsEqual(t, "sliding/"+mode.String(), streamed, ref)
	}
}

// TestTimeSliceCut checks the time-based cut policy yields the same
// window outputs as the count-based one.
func TestTimeSliceCut(t *testing.T) {
	cfg := base(t, "wordcount", engine.Gerenuk)
	cfg.CutBy = Cut{Slice: 3 * time.Millisecond}
	byTime := mustRun(t, cfg)
	cfg.CutBy = Cut{Count: 5}
	byCount := mustRun(t, cfg)
	if byTime.Batches < 2 {
		t.Fatalf("time-slice cut produced %d batches, want several", byTime.Batches)
	}
	assertWindowsEqual(t, "slice-vs-count", byTime, byCount)
}

// TestStreamChaosDifferential runs the streamed pipeline under the
// recovery chaos plan — kills, replica loss, checkpoint rot, flaky
// fetches — and requires window outputs identical to a fault-free
// reference in both modes.
func TestStreamChaosDifferential(t *testing.T) {
	for _, app := range AppNames {
		var perMode []*Result
		for _, mode := range []engine.Mode{engine.Gerenuk, engine.Baseline} {
			clean := base(t, app, mode)
			ref := mustRun(t, clean)

			tr := trace.New()
			cfg := base(t, app, mode)
			cfg.Trace = tr
			cfg.Injector = faults.RecoveryChaos(11)
			cfg.CheckpointEvery = 2
			cfg.StageDeadline = 5 * time.Second
			cfg.Shuffle.Replicas = 2
			chaos := mustRun(t, cfg)
			label := app + "/" + mode.String() + "/chaos"
			assertWindowsEqual(t, label, chaos, ref)
			reg := tr.Registry()
			if n := reg.Counter("stream_batches_total").Value(); n == 0 {
				t.Fatalf("%s: stream_batches_total = 0", label)
			}
			if n := reg.Counter("stream_windows_total").Value(); n != int64(cfg.Windows) {
				t.Fatalf("%s: stream_windows_total = %d, want %d", label, n, cfg.Windows)
			}
			perMode = append(perMode, chaos)
		}
		assertWindowsEqual(t, app+"/chaos gerenuk-vs-baseline", perMode[0], perMode[1])
	}
}

// TestKillMidWindowResume kills the run after two batches (windows
// still open), then resumes from the shared checkpoint store: the
// resumed run must pick up mid-window — without reprocessing the
// ingested prefix — and emit byte-identical window outputs.
func TestKillMidWindowResume(t *testing.T) {
	for _, app := range AppNames {
		for _, mode := range []engine.Mode{engine.Gerenuk, engine.Baseline} {
			ref := mustRun(t, base(t, app, mode))

			store := recovery.NewCheckpointStore()
			tr := trace.New()
			cfg := base(t, app, mode)
			cfg.Checkpoints = store
			cfg.CrashAfterBatches = 2
			_, err := Run(cfg)
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("%s/%s: crash hook: err = %v, want ErrCrashed", app, mode, err)
			}

			cfg.CrashAfterBatches = 0
			cfg.Resume = true
			cfg.Trace = tr
			resumed := mustRun(t, cfg)
			label := app + "/" + mode.String() + "/resume"
			assertWindowsEqual(t, label, resumed, ref)
			if resumed.Resumed == 0 {
				t.Fatalf("%s: no window resumed from checkpoint", label)
			}
			if resumed.Records >= ref.Records {
				t.Fatalf("%s: resumed run ingested %d records (full run %d) — it recomputed instead of resuming",
					label, resumed.Records, ref.Records)
			}
			if n := tr.Registry().Counter("stream_window_resumes_total").Value(); n == 0 {
				t.Fatalf("%s: stream_window_resumes_total = 0", label)
			}
		}
	}
}

// resumeDamaged crashes a checkpointed wordcount run after two batches,
// lets damage rot the checkpoint store, then resumes: the resumed run
// must recompute the damaged window from the deterministic source and
// still match the uninterrupted run byte-for-byte.
func resumeDamaged(t *testing.T, damage func(*recovery.CheckpointStore)) {
	t.Helper()
	ref := mustRun(t, base(t, "wordcount", engine.Gerenuk))

	store := recovery.NewCheckpointStore()
	cfg := base(t, "wordcount", engine.Gerenuk)
	cfg.Checkpoints = store
	cfg.CrashAfterBatches = 2
	if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash hook: %v", err)
	}
	damage(store)

	cfg.CrashAfterBatches = 0
	cfg.Resume = true
	resumed := mustRun(t, cfg)
	assertWindowsEqual(t, "damaged-resume", resumed, ref)
	if resumed.Rebuilt == 0 {
		t.Fatal("damaged checkpoint did not trigger a source rebuild")
	}
}

// TestResumeRebuildsCorruptWindow rots one slot checkpoint between
// crash and resume.
func TestResumeRebuildsCorruptWindow(t *testing.T) {
	resumeDamaged(t, func(store *recovery.CheckpointStore) {
		if !store.Corrupt("stream/wordcount/w0/m0/b0") {
			t.Fatal("no slot checkpoint to corrupt — crash left no open window state")
		}
	})
}

// TestResumeRebuildsLostMeta loses a window's meta checkpoint between
// crash and resume: a source scan finds records in the window, so it is
// rebuilt rather than skipped as empty.
func TestResumeRebuildsLostMeta(t *testing.T) {
	const meta = "stream/wordcount/w0/meta"
	resumeDamaged(t, func(store *recovery.CheckpointStore) {
		if _, ok, _ := store.Load(meta); !ok {
			t.Fatal("no meta checkpoint to lose — crash left no open window state")
		}
		store.Drop(meta)
	})
}

// TestRebuiltWindowIsCheckpointed crashes twice. The first resume
// rebuilds a corrupt window that its one batch does not feed; that
// window must still be checkpointed, so the second resume restores it
// instead of rebuilding it again.
func TestRebuiltWindowIsCheckpointed(t *testing.T) {
	ref := mustRun(t, base(t, "wordcount", engine.Gerenuk))

	store := recovery.NewCheckpointStore()
	cfg := base(t, "wordcount", engine.Gerenuk)
	cfg.Checkpoints = store
	cfg.CrashAfterBatches = 2
	if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash hook: %v", err)
	}
	if !store.Corrupt("stream/wordcount/w0/m0/b0") {
		t.Fatal("no slot checkpoint to corrupt — crash left no open window state")
	}

	cfg.Resume = true
	cfg.CrashAfterBatches = 1
	first, err := Run(cfg)
	if !errors.Is(err, ErrCrashed) || first.Rebuilt != 1 {
		t.Fatalf("first resume: err = %v, %d windows rebuilt; want ErrCrashed and 1", err, first.Rebuilt)
	}

	cfg.CrashAfterBatches = 0
	second := mustRun(t, cfg)
	assertWindowsEqual(t, "second-resume", second, ref)
	if second.Rebuilt != 0 {
		t.Fatalf("second resume rebuilt %d windows: the first resume's rebuild was never checkpointed", second.Rebuilt)
	}
}

// TestDiskCheckpointSurvivesRestart is the end-to-end durability story:
// crash with a disk-backed store, reopen the directory in a fresh store
// (a new process), resume, and match the uninterrupted run.
func TestDiskCheckpointSurvivesRestart(t *testing.T) {
	ref := mustRun(t, base(t, "streamrank", engine.Gerenuk))

	dir := t.TempDir()
	store, err := recovery.OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base(t, "streamrank", engine.Gerenuk)
	cfg.Checkpoints = store
	cfg.CrashAfterBatches = 2
	if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash hook: %v", err)
	}

	reopened, err := recovery.OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoints = reopened
	cfg.CrashAfterBatches = 0
	cfg.Resume = true
	resumed := mustRun(t, cfg)
	assertWindowsEqual(t, "disk-restart", resumed, ref)
	if resumed.Resumed == 0 {
		t.Fatal("no window resumed across the simulated restart")
	}
}

// TestStreamCancellation closes the cancel channel before the run: the
// loop must observe it at the batch boundary and surface
// engine.ErrCanceled.
func TestStreamCancellation(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	cfg := base(t, "wordcount", engine.Gerenuk)
	cfg.Canceled = cancel
	res, err := Run(cfg)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
	if len(res.Windows) != 0 {
		t.Fatalf("canceled run emitted %d windows", len(res.Windows))
	}
}

// TestJobIDScoping runs two crashed jobs into one shared store under
// different job IDs and resumes both: scoped state never aliases.
func TestJobIDScoping(t *testing.T) {
	ref := mustRun(t, base(t, "wordcount", engine.Gerenuk))
	store := recovery.NewCheckpointStore()
	for _, id := range []string{"job-a", "job-b"} {
		cfg := base(t, "wordcount", engine.Gerenuk)
		cfg.Checkpoints = store
		cfg.JobID = id
		cfg.CrashAfterBatches = 2
		if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
			t.Fatalf("%s: crash hook: %v", id, err)
		}
	}
	for _, id := range []string{"job-a", "job-b"} {
		cfg := base(t, "wordcount", engine.Gerenuk)
		cfg.Checkpoints = store
		cfg.JobID = id
		cfg.Resume = true
		resumed := mustRun(t, cfg)
		assertWindowsEqual(t, id+"/resume", resumed, ref)
	}
}

// TestResumeRebuildsOldFormatMeta puts an 8-byte meta — the format
// before metas carried their batch's end record — in the store: that
// window counts as lost and is rebuilt, never decoded from too few
// bytes.
func TestResumeRebuildsOldFormatMeta(t *testing.T) {
	const meta = "stream/wordcount/w0/meta"
	resumeDamaged(t, func(store *recovery.CheckpointStore) {
		ck, ok, _ := store.Load(meta)
		if !ok {
			t.Fatal("no meta checkpoint to shorten — crash left no open window state")
		}
		store.Save(meta, ck.Seq, ck.Data[:8])
	})
}

// TestResumeTornBatch resumes from a store torn by a kill between a
// batch's window saves and its cursor save: every entry of a run
// crashed after three batches, but the cursor of the same run crashed
// after two. The windows batch 3 fed are saved past the cursor; resume
// must rebuild them up to the cursor, not restore them and then feed
// batch 3 a second time.
func TestResumeTornBatch(t *testing.T) {
	const cursor = "stream/wordcount/cursor"
	for _, mode := range []engine.Mode{engine.Gerenuk, engine.Baseline} {
		ref := mustRun(t, base(t, "wordcount", mode))

		crash := func(batches int) *recovery.CheckpointStore {
			cfg := base(t, "wordcount", mode)
			cfg.Checkpoints = recovery.NewCheckpointStore()
			cfg.CrashAfterBatches = batches
			if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
				t.Fatalf("%s: crash hook after %d batches: %v", mode, batches, err)
			}
			return cfg.Checkpoints
		}
		torn, early := crash(3), crash(2)
		ck, ok, _ := early.Load(cursor)
		if !ok {
			t.Fatalf("%s: no cursor checkpoint after two batches", mode)
		}
		torn.Save(cursor, ck.Seq, ck.Data)

		cfg := base(t, "wordcount", mode)
		cfg.Checkpoints = torn
		cfg.Resume = true
		resumed := mustRun(t, cfg)
		assertWindowsEqual(t, mode.String()+"/torn-resume", resumed, ref)
		if resumed.Rebuilt == 0 {
			t.Fatalf("%s: no window rebuilt from a store saved past its cursor", mode)
		}
	}
}

// Closing a window drops every key under its prefix, from memory and
// from disk — the whole-slot key an older layout wrote
// (stream/<app>/w<w>/m<m>) too: after a full run the store holds only
// the cursor and the window outputs.
func TestClosedWindowDropsAllItsKeys(t *testing.T) {
	const legacy = "stream/wordcount/w0/m0"
	dir := t.TempDir()
	store, err := recovery.OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Save(legacy, 1, []byte("whole-slot bytes"))
	cfg := base(t, "wordcount", engine.Gerenuk)
	cfg.Checkpoints = store
	mustRun(t, cfg)
	reopened, err := recovery.OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*recovery.CheckpointStore{"memory": store, "disk": reopened} {
		if _, ok, _ := s.Load(legacy); ok || s.Len() != 1+cfg.Windows {
			t.Errorf("%s: legacy key kept %v, %d checkpoints, want only the cursor and %d outputs",
				name, ok, s.Len(), cfg.Windows)
		}
	}
}
