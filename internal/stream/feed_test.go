package stream

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/recovery"
)

// slidingConfig is a small sliding-window run: 3-record batches feed two
// overlapping windows at a time, so most batches add a segment to more
// than one window.
func slidingConfig(t testing.TB, app string, mode engine.Mode) Config {
	t.Helper()
	spec, err := App(app)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		App: spec, Mode: mode, Workers: 2, Reducers: 2,
		Seed: 7, Interval: time.Millisecond, CutBy: Cut{Count: 3},
		WindowBy: Window{Size: 8 * time.Millisecond, Slide: 4 * time.Millisecond}, Windows: 4,
	}
}

// TestWindowCheckpointIsItsMapOutput crashes a run after each of its
// first batches and reads back every open window's checkpoint. Per slot
// it holds one segment per batch that fed the window and no more, and
// the segments joined equal the map output of the window's records in
// that slot, taken from a one-batch feed of the same records into a
// fresh runner. The meta is 16 bytes. So a window checkpoints its map
// output plus a constant-size meta per batch.
func TestWindowCheckpointIsItsMapOutput(t *testing.T) {
	for k := 1; k <= 6; k++ {
		cfg := slidingConfig(t, "wordcount", engine.Gerenuk)
		cfg.Checkpoints = recovery.NewCheckpointStore()
		cfg.CrashAfterBatches = k
		r := newRunner(cfg)
		if err := r.run(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("k=%d: crash hook: %v", k, err)
		}
		if len(r.open) == 0 {
			t.Fatalf("k=%d: crash left no open window", k)
		}
		for w := range r.open {
			fed := 0
			for lo := int64(0); lo < r.cursor; {
				hi := r.cutBatch(lo)
				for i := lo; i < hi; i++ {
					if a, b := r.windowRange(r.arrival(i)); a <= w && w <= b {
						fed++
						break
					}
				}
				lo = hi
			}
			meta, ok, _ := r.ckpts.Load(r.metaKey(w))
			if !ok || len(meta.Data) != 16 || meta.Seq != fed {
				t.Fatalf("k=%d window %d: meta ok=%v, %d bytes, %d segments; want 16 bytes, %d segments",
					k, w, ok, len(meta.Data), meta.Seq, fed)
			}
			one := newRunner(slidingConfig(t, "wordcount", engine.Gerenuk))
			if err := one.feed(nil, "one-batch", 0, r.cursor, w); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < mapSlots; m++ {
				var joined []byte
				for b := 0; b < fed; b++ {
					seg, ok, _ := r.ckpts.Load(r.segKey(w, m, b))
					if !ok {
						t.Fatalf("k=%d window %d slot %d: segment %d missing", k, w, m, b)
					}
					joined = append(joined, seg.Data...)
				}
				if _, ok, _ := r.ckpts.Load(r.segKey(w, m, fed)); ok {
					t.Errorf("k=%d window %d slot %d: a segment past the %d batches that fed it", k, w, m, fed)
				}
				if want := one.open[w].segs[m][0]; !bytes.Equal(joined, want) {
					t.Errorf("k=%d window %d slot %d: segments join to %d bytes, map output is %d",
						k, w, m, len(joined), len(want))
				}
			}
		}
	}
}

// TestRebuildResavesLostSegments crashes a run after k batches, loses
// every window meta, resumes for one batch and crashes again. Each window
// open at that point must hold, key for key, the meta and segments of a
// run crashed once after k+1 batches: rebuild replays the run's own cuts,
// so it re-saves exactly the segments the lost checkpoint held.
func TestRebuildResavesLostSegments(t *testing.T) {
	for k := 1; k <= 5; k++ {
		cfg := slidingConfig(t, "wordcount", engine.Gerenuk)
		cfg.Checkpoints = recovery.NewCheckpointStore()
		cfg.CrashAfterBatches = k + 1
		ref := newRunner(cfg)
		if err := ref.run(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("k=%d: crash hook: %v", k, err)
		}

		cfg.Checkpoints = recovery.NewCheckpointStore()
		cfg.CrashAfterBatches = k
		if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
			t.Fatalf("k=%d: crash hook: %v", k, err)
		}
		for w := 0; w < cfg.Windows; w++ {
			cfg.Checkpoints.Drop(ref.metaKey(w))
		}
		cfg.Resume = true
		cfg.CrashAfterBatches = 1
		res, err := Run(cfg)
		if !errors.Is(err, ErrCrashed) || res.Rebuilt == 0 {
			t.Fatalf("k=%d: resume: err = %v, %d windows rebuilt; want ErrCrashed and some", k, err, res.Rebuilt)
		}
		for w, st := range ref.open {
			keys := []string{ref.metaKey(w)}
			for m, segs := range st.segs {
				for b := 0; b <= len(segs); b++ {
					keys = append(keys, ref.segKey(w, m, b))
				}
			}
			for _, key := range keys {
				want, wok, _ := ref.ckpts.Load(key)
				got, gok, _ := cfg.Checkpoints.Load(key)
				if wok != gok || got.Seq != want.Seq || !bytes.Equal(got.Data, want.Data) {
					t.Errorf("k=%d %s: rebuilt (ok=%v, seq %d, %d bytes), uninterrupted (ok=%v, seq %d, %d bytes)",
						k, key, gok, got.Seq, len(got.Data), wok, want.Seq, len(want.Data))
				}
			}
		}
	}
}

// Resume damage actions, one per (kind, key) byte pair of a
// FuzzStreamResume input.
const (
	actDrop = iota
	actCorrupt
	// actTear puts the key's entry as a neighbouring crash point left it:
	// the cursor of the run crashed one batch earlier, or any other entry
	// of the run crashed one batch later (dropped if that run has none).
	// Either is what a kill between a batch's saves leaves behind.
	actTear
	numActs
)

// resumeKeys lists the checkpoint keys a FuzzStreamResume action can
// name: the cursor, then per window its output, its meta and the first
// six segments of each slot.
func resumeKeys(r *runner) []string {
	keys := []string{r.cursorKey()}
	for w := 0; w < r.cfg.Windows; w++ {
		keys = append(keys, r.outKey(w), r.metaKey(w))
		for m := 0; m < mapSlots; m++ {
			for b := 0; b < 6; b++ {
				keys = append(keys, r.segKey(w, m, b))
			}
		}
	}
	return keys
}

// FuzzStreamResume crashes a sliding-window run after 1 + crash%8
// batches (crash/8 picks the app), applies the input's drop, corrupt and
// tear actions to the crashed run's checkpoint store, and resumes. In
// both modes the resumed run must emit exactly the uninterrupted run's
// windows and never panic, whatever the damage.
func FuzzStreamResume(f *testing.F) {
	modes := []engine.Mode{engine.Gerenuk, engine.Baseline}
	refs := map[string][][]byte{}
	for _, app := range AppNames {
		for _, mode := range modes {
			res, err := Run(slidingConfig(f, app, mode))
			if err != nil {
				f.Fatal(err)
			}
			refs[app+mode.String()] = res.Windows
		}
	}
	f.Fuzz(func(t *testing.T, crash uint8, actions []byte) {
		app := AppNames[int(crash/8)%len(AppNames)]
		k := 1 + int(crash%8)
		for _, mode := range modes {
			cfg := slidingConfig(t, app, mode)
			crashed := func(batches int) *recovery.CheckpointStore {
				c := cfg
				c.Checkpoints = recovery.NewCheckpointStore()
				c.CrashAfterBatches = batches
				if batches > 0 {
					// A crash point past the last batch is a completed run.
					if _, err := Run(c); err != nil && !errors.Is(err, ErrCrashed) {
						t.Fatalf("%s/%s: crash after %d batches: %v", app, mode, batches, err)
					}
				}
				return c.Checkpoints
			}
			store, earlier, later := crashed(k), crashed(k-1), crashed(k+1)
			keys := resumeKeys(newRunner(cfg))
			for a := 0; a+1 < len(actions); a += 2 {
				key := keys[int(actions[a+1])%len(keys)]
				switch actions[a] % numActs {
				case actDrop:
					store.Drop(key)
				case actCorrupt:
					store.Corrupt(key)
				case actTear:
					from := later
					if key == keys[0] {
						from = earlier
					}
					if ck, ok, _ := from.Load(key); ok {
						store.Save(key, ck.Seq, ck.Data)
					} else {
						store.Drop(key)
					}
				}
			}
			cfg.Checkpoints = store
			cfg.Resume = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: resume after %d batches: %v", app, mode, k, err)
			}
			want := refs[app+mode.String()]
			if len(res.Windows) != len(want) {
				t.Fatalf("%s/%s: resumed run emitted %d windows, want %d", app, mode, len(res.Windows), len(want))
			}
			for w := range want {
				if !bytes.Equal(res.Windows[w], want[w]) {
					t.Fatalf("%s/%s: crash after %d batches, actions %v: window %d differs (%d vs %d bytes)",
						app, mode, k, actions, w, len(res.Windows[w]), len(want[w]))
				}
			}
		}
	})
}
