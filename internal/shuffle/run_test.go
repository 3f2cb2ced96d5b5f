package shuffle

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/serde"
)

// appendGroup appends one spill-run group: the [reducer][bytes] header,
// then the block.
func appendGroup(run []byte, reducer int, block []byte) []byte {
	run = binary.LittleEndian.AppendUint32(run, uint32(reducer))
	run = binary.LittleEndian.AppendUint32(run, uint32(len(block)))
	return append(run, block...)
}

// frame is one wire record: a size prefix and a payload of n bytes.
func frame(n int) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(n)), make([]byte, n)...)
}

// FuzzSpillRun feeds the spill-run decoder arbitrary bytes and reducer
// counts — everything a run file read back from SpillDir can hold. It
// must return an error, or one block per reducer, each tiled exactly by
// whole record frames, that re-encode — a header per non-empty block,
// in reducer order — to exactly the input: the format is canonical. The
// seed corpus in testdata/fuzz holds runs written at budgets 1 and 64
// and truncated copies of them.
func FuzzSpillRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, partitions uint8) {
		blocks, err := decodeRun(data, int(partitions))
		if err != nil {
			return
		}
		if len(blocks) != int(partitions) {
			t.Fatalf("%d blocks for %d reducers", len(blocks), partitions)
		}
		var run []byte
		for r, b := range blocks {
			for off := 0; off < len(b); off += serde.RecordSize(b, off) {
				if len(b)-off < serde.SizePrefixBytes || serde.RecordSize(b, off) > len(b)-off {
					t.Fatalf("reducer %d: record at offset %d crosses its block", r, off)
				}
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
	valid := appendGroup(appendGroup(nil, 0, append(frame(3), frame(0)...)), 2, frame(5))
	blocks, err := decodeRun(valid, 3)
	if err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	if len(blocks[0]) != 11 || blocks[1] != nil || len(blocks[2]) != 9 {
		t.Fatalf("valid run decoded to blocks of %d, %d, %d bytes", len(blocks[0]), len(blocks[1]), len(blocks[2]))
	}
	for name, run := range map[string][]byte{
		"truncated header":      valid[:3],
		"truncated group":       valid[:len(valid)-1],
		"reducer out of range":  appendGroup(nil, 3, frame(1)),
		"reducer repeated":      appendGroup(appendGroup(nil, 1, frame(1)), 1, frame(1)),
		"reducer descending":    appendGroup(appendGroup(nil, 2, frame(1)), 1, frame(1)),
		"empty group":           appendGroup(nil, 1, nil),
		"record crosses group":  appendGroup(nil, 0, frame(3)[:6]),
		"size prefix in group":  appendGroup(nil, 0, frame(1)[:3]),
		"crossing into next":    appendGroup(appendGroup(nil, 0, frame(4)[:6]), 2, frame(5)),
		"group longer than run": binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 1<<20),
	} {
		if _, err := decodeRun(run, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
