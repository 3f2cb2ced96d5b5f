package shuffle_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/serde"
	. "repro/internal/shuffle"
)

// appendGroup appends one spill-run group: the [reducer][bytes] header,
// then the block.
func appendGroup(run []byte, reducer int, block []byte) []byte {
	run = binary.LittleEndian.AppendUint32(run, uint32(reducer))
	run = binary.LittleEndian.AppendUint32(run, uint32(len(block)))
	return append(run, block...)
}

// frame is one wire record: a size prefix and a payload of n zero bytes.
// A Pair's key is its payload's first 8 bytes, so below that the payload
// is shorter than the key field.
func frame(n int) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(n)), make([]byte, n)...)
}

// FuzzSpillRun feeds the spill-run decoder arbitrary bytes and reducer
// counts — everything a run file read back from SpillDir can hold. It
// must return an error, or one block per reducer, each whole Pair
// records the key reader validates, that re-encode — a header per
// non-empty block, in reducer order — to exactly the input: the format
// is canonical. The seed corpus in testdata/fuzz holds runs written at
// budgets 1 and 64 and truncated copies of them.
func FuzzSpillRun(f *testing.F) {
	keys := keyReader(f, pairCompiled(f), "Pair")
	f.Fuzz(func(t *testing.T, data []byte, partitions uint8) {
		blocks, err := DecodeRun(data, keys, int(partitions))
		if err != nil {
			return
		}
		if len(blocks) != int(partitions) {
			t.Fatalf("%d blocks for %d reducers", len(blocks), partitions)
		}
		var run []byte
		for r, b := range blocks {
			if err := keys.Validate(b); err != nil {
				t.Fatalf("reducer %d: decoded block does not validate: %v", r, err)
			}
			if len(b) > 0 {
				run = appendGroup(run, r, b)
			}
		}
		if !bytes.Equal(run, data) {
			t.Fatalf("decoded run re-encodes to %d bytes that differ from the %d-byte input", len(run), len(data))
		}
	})
}

// Every damage class the decoder must reject, each next to the valid
// run it was cut from.
func TestDecodeRunRejectsDamage(t *testing.T) {
	c := pairCompiled(t)
	keys := keyReader(t, c, "Pair")
	recs := encodeParts(t, c, 1, 3, 3)[0]
	if n := serde.RecordSize(recs, 0); n != 20 {
		t.Fatalf("a Pair record is %d bytes, the cuts below assume 20", n)
	}
	valid := appendGroup(appendGroup(nil, 0, recs[:40]), 2, recs[40:])
	blocks, err := DecodeRun(valid, keys, 3)
	if err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	if len(blocks[0]) != 40 || blocks[1] != nil || len(blocks[2]) != 20 {
		t.Fatalf("valid run decoded to blocks of %d, %d, %d bytes", len(blocks[0]), len(blocks[1]), len(blocks[2]))
	}
	for name, run := range map[string][]byte{
		"truncated header":                   valid[:3],
		"truncated group":                    valid[:len(valid)-1],
		"reducer out of range":               appendGroup(nil, 3, recs[:20]),
		"reducer repeated":                   appendGroup(appendGroup(nil, 1, recs[:20]), 1, recs[20:40]),
		"reducer descending":                 appendGroup(appendGroup(nil, 2, recs[:20]), 1, recs[20:40]),
		"empty group":                        appendGroup(nil, 1, nil),
		"record crosses group":               appendGroup(nil, 0, recs[:30]),
		"size prefix in group":               appendGroup(nil, 0, recs[:23]),
		"crossing into next":                 appendGroup(appendGroup(nil, 0, recs[:10]), 2, recs[40:]),
		"payload shorter than the key field": appendGroup(nil, 0, append(frame(0), frame(4)...)),
		"group longer than run":              binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 1<<20),
	} {
		if _, err := DecodeRun(run, keys, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
