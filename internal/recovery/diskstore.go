package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// Disk persistence for the checkpoint store. A store opened with
// OpenDiskCheckpointStore writes every Save through to one file per
// checkpoint (atomic temp-file + rename, so a crash mid-write leaves
// either the old entry or the new one, never a torn file) and reloads
// the directory at open, so a restarted gerenukd or stream run resumes
// from the checkpoints its predecessor persisted.
//
// The stored checksum travels with the entry: a file whose data rotted
// on disk loads structurally fine and is then caught by the normal
// Load-time checksum verification, firing the same
// recovery_checkpoint_corrupt_total accounting as in-memory corruption.
// Only structurally unreadable files (torn by a crash without rename,
// alien content) are discarded at open — a missing checkpoint means
// restart-from-zero, which is slower but never wrong.

// ckptMagic brands checkpoint files so open can cheaply reject alien
// content in a reused directory.
var ckptMagic = []byte("GCK1")

// OpenDiskCheckpointStore opens (creating if needed) a file-backed
// checkpoint store rooted at dir. Every checkpoint file already present
// is loaded; structurally invalid files are removed. Scoped views of
// the returned store persist too — the scope prefix is part of the
// stored key, so two jobs' same-named tasks land in distinct files.
func OpenDiskCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: checkpoint dir: %w", err)
	}
	s := &CheckpointStore{m: make(map[string]ckptEntry), dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("recovery: checkpoint dir: %w", err)
	}
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".ckpt" {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		var key string
		var e ckptEntry
		if err == nil {
			key, e, err = decodeCheckpointFile(data)
		}
		if err != nil {
			os.Remove(path)
			continue
		}
		s.m[key] = e
	}
	return s, nil
}

// ckptPath maps a (possibly scope-prefixed) key to its file. Keys carry
// "\x00" scope separators, so the filename is a digest, and the full key
// is stored inside the file.
func (s *CheckpointStore) ckptPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// encodeCheckpointFile renders one entry: magic, key, seq, data, and the
// entry's checksum, all length-prefixed little-endian.
func encodeCheckpointFile(key string, e ckptEntry) []byte {
	var buf bytes.Buffer
	var u32 [4]byte
	var u64 [8]byte
	buf.Write(ckptMagic)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	buf.Write(u32[:])
	buf.WriteString(key)
	binary.LittleEndian.PutUint64(u64[:], uint64(e.seq))
	buf.Write(u64[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(e.data)))
	buf.Write(u32[:])
	buf.Write(e.data)
	binary.LittleEndian.PutUint64(u64[:], e.sum)
	buf.Write(u64[:])
	return buf.Bytes()
}

// decodeCheckpointFile parses one checkpoint file's bytes — content a
// previous process (or anything else) left in the directory, so every
// length is bounds-checked. The format is canonical: a successful decode
// re-encodes to exactly data.
func decodeCheckpointFile(data []byte) (string, ckptEntry, error) {
	p := 0
	need := func(n int) error {
		if p+n > len(data) {
			return fmt.Errorf("recovery: truncated checkpoint file at offset %d", p)
		}
		return nil
	}
	if err := need(len(ckptMagic) + 4); err != nil {
		return "", ckptEntry{}, err
	}
	if !bytes.Equal(data[:len(ckptMagic)], ckptMagic) {
		return "", ckptEntry{}, fmt.Errorf("recovery: not a checkpoint file")
	}
	p = len(ckptMagic)
	kl := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	if err := need(kl + 12); err != nil {
		return "", ckptEntry{}, err
	}
	key := string(data[p : p+kl])
	p += kl
	seq := int(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	dl := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	if err := need(dl + 8); err != nil {
		return "", ckptEntry{}, err
	}
	d := append([]byte(nil), data[p:p+dl]...)
	p += dl
	sum := binary.LittleEndian.Uint64(data[p:])
	if p+8 != len(data) {
		return "", ckptEntry{}, fmt.Errorf("recovery: trailing bytes in checkpoint file")
	}
	return key, ckptEntry{seq: seq, data: d, sum: sum}, nil
}

// writeThrough persists one entry (best-effort: the in-memory map stays
// the running process's source of truth; a failed write costs only
// restart durability). Called with the root store's lock held.
func (r *CheckpointStore) writeThrough(key string, e ckptEntry) {
	if r.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(r.dir, "ckpt-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(encodeCheckpointFile(key, e))
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), r.ckptPath(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

// removeFile drops one entry's file. Called with the root store's lock
// held.
func (r *CheckpointStore) removeFile(key string) {
	if r.dir == "" {
		return
	}
	os.Remove(r.ckptPath(key))
}
