package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A restarted process reopening the same directory sees every
// checkpoint its predecessor saved — including scoped ones — and Drop
// removes the file so a dropped task stays dropped across restarts.
func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("task-a", 3, []byte("alpha"))
	s.Scope("job-1").Save("task-a", 7, []byte("scoped"))
	s.Save("task-b", 1, []byte("beta"))
	s.Drop("task-b")

	r, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck, ok, corrupt := r.Load("task-a"); !ok || corrupt || ck.Seq != 3 || string(ck.Data) != "alpha" {
		t.Fatalf("task-a after reopen: %+v ok=%v corrupt=%v", ck, ok, corrupt)
	}
	if ck, ok, _ := r.Scope("job-1").Load("task-a"); !ok || ck.Seq != 7 || string(ck.Data) != "scoped" {
		t.Fatalf("scoped task-a after reopen: %+v ok=%v", ck, ok)
	}
	if _, ok, _ := r.Load("task-b"); ok {
		t.Fatal("dropped task-b survived reopen")
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("reopened store holds %d entries, want 2", got)
	}
}

// On-disk corruption is detected by the normal Load checksum path after
// reopen: the entry is rejected, discarded (in memory and on disk), and
// the caller restarts from zero.
func TestDiskStoreDetectsRotAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("fold", 5, []byte("checkpoint-bytes"))
	if !s.Corrupt("fold") {
		t.Fatal("Corrupt found no entry")
	}

	r, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, corrupt := r.Load("fold"); ok || !corrupt {
		t.Fatalf("rotted checkpoint: ok=%v corrupt=%v, want detection", ok, corrupt)
	}
	// Detection discards the file too: a third open sees nothing.
	r2, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, corrupt := r2.Load("fold"); ok || corrupt {
		t.Fatalf("discarded checkpoint came back: ok=%v corrupt=%v", ok, corrupt)
	}
}

// Structurally invalid files — a torn temp write that never renamed,
// truncated content, alien bytes — are discarded at open instead of
// poisoning the store.
func TestDiskStoreDiscardsUnreadableFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Save("good", 1, []byte("fine"))
	if err := os.WriteFile(filepath.Join(dir, "alien.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncate a real entry below its declared lengths.
	full := encodeCheckpointFile("torn", ckptEntry{seq: 2, data: []byte("abcdef"), sum: 9})
	if err := os.WriteFile(filepath.Join(dir, "torn.ckpt"), full[:len(full)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("reopened store holds %d entries, want only the good one", got)
	}
	if _, ok, _ := r.Load("good"); !ok {
		t.Fatal("good entry lost")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("invalid files not cleaned up: %d left", len(ents))
	}
}

// The write path is temp-file + rename: no partially written .ckpt file
// is ever observable under the final name, and re-saving replaces the
// previous entry in place.
func TestDiskStoreSaveReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 10; seq++ {
		s.Save("fold", seq, []byte{byte(seq)})
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("10 saves of one task left %d files, want 1", len(ents))
	}
	r, err := OpenDiskCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck, ok, _ := r.Load("fold"); !ok || ck.Seq != 10 {
		t.Fatalf("latest save not the survivor: %+v ok=%v", ck, ok)
	}
}

// FuzzCheckpointFile feeds the checkpoint-file decoder arbitrary bytes —
// what a reused or damaged -checkpoint-dir can hold. It must never
// panic, and because the format is canonical (every length is explicit
// and trailing bytes are rejected), a successful decode must re-encode
// to exactly the input. The seed corpus in testdata/fuzz holds round
// trips (empty key, empty data, a scoped key), every truncation point
// of one entry, alien magic, and key/data lengths past the end.
func FuzzCheckpointFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		key, e, err := decodeCheckpointFile(data)
		if err != nil {
			return
		}
		if got := encodeCheckpointFile(key, e); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not canonical:\n in  %q\n out %q", data, got)
		}
	})
}
