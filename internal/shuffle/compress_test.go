package shuffle

import (
	"bytes"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, c Compression, raw []byte) []byte {
	t.Helper()
	payload, err := compressBlock(c, raw)
	if err != nil {
		t.Fatalf("%v: compress: %v", c, err)
	}
	got, err := decompressBlock(c, payload, len(raw))
	if err != nil {
		t.Fatalf("%v: decompress: %v", c, err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("%v: round trip diverged (%d bytes in, %d out)", c, len(raw), len(got))
	}
	return payload
}

func TestCompressionRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 10_000)
	rng.Read(random)
	repetitive := bytes.Repeat([]byte("the quick brown fox "), 500)
	runs := bytes.Repeat([]byte{0xAB}, 5_000)
	short := []byte{1, 2, 3}
	var mixed []byte
	for i := 0; i < 200; i++ {
		mixed = append(mixed, repetitive[:50]...)
		var r [17]byte
		rng.Read(r[:])
		mixed = append(mixed, r[:]...)
	}
	cases := map[string][]byte{
		"empty": nil, "short": short, "random": random,
		"repetitive": repetitive, "runs": runs, "mixed": mixed,
	}
	for _, c := range []Compression{None, LZ4} {
		for name, raw := range cases {
			payload := roundTrip(t, c, raw)
			if c != None && name == "repetitive" && len(payload) >= len(raw) {
				t.Errorf("%v: repetitive input did not shrink (%d -> %d)", c, len(raw), len(payload))
			}
			if c != None && name == "runs" && len(payload) >= len(raw)/10 {
				t.Errorf("%v: byte run compressed poorly (%d -> %d)", c, len(raw), len(payload))
			}
		}
	}
}

// FuzzDecompressBlock feeds the block decoder arbitrary (codec, payload,
// rawLen) triples — everything a fetched block's header can claim. For
// every input it must return an error or exactly rawLen bytes and never
// panic. It never allocates past max(rawLen, 0) because the LZ4 decoder
// writes into one rawLen-sized buffer by index: a run that escaped the
// bounds checks would panic here rather than grow it. The seed corpus
// in testdata/fuzz holds the round-trip and corruption cases above.
func FuzzDecompressBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, codec uint8, payload []byte, rawLen int) {
		c := Compression(codec)
		out, err := decompressBlock(c, payload, rawLen)
		if err != nil {
			return
		}
		if len(out) != rawLen {
			t.Fatalf("%v: returned %d bytes, header says %d", c, len(out), rawLen)
		}
		if c == LZ4 && cap(out) != rawLen {
			t.Fatalf("lz4: output capacity %d, want the one rawLen-sized buffer (%d)", cap(out), rawLen)
		}
	})
}

func TestLZ4RandomizedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("abcd")
	for i := 0; i < 200; i++ {
		n := rng.Intn(4096)
		raw := make([]byte, n)
		// Low-entropy alphabet produces plenty of matches, including
		// overlapping ones; vary entropy with i.
		for j := range raw {
			if i%3 == 0 {
				raw[j] = byte(rng.Intn(256))
			} else {
				raw[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		roundTrip(t, LZ4, raw)
	}
}

func TestLZ4LongMatchLengthExtensions(t *testing.T) {
	// A single 100KB run forces multi-byte (255-continuation) match
	// length extensions and window-capped offsets.
	raw := bytes.Repeat([]byte{7}, 100_000)
	payload := roundTrip(t, LZ4, raw)
	if len(payload) > 500 {
		t.Errorf("100KB run compressed to %d bytes, want < 500", len(payload))
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	raw := bytes.Repeat([]byte("hello world "), 100)
	payload, err := compressBlock(LZ4, raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decompressBlock(LZ4, payload, len(raw)+1); err == nil {
		t.Error("lz4: wrong rawLen accepted")
	}
	if _, err := decompressBlock(LZ4, payload[:len(payload)/2], len(raw)); err == nil {
		t.Error("lz4: truncated payload accepted")
	}
	if _, err := decompressBlock(None, raw, len(raw)-1); err == nil {
		t.Error("None: wrong rawLen accepted")
	}
	// LZ4: an offset pointing before the start of the output must be
	// rejected, not read wild.
	bad := []byte{0x10, 'a', 0xFF, 0xFF}
	if _, err := lz4Decompress(bad, 100); err == nil {
		t.Error("lz4: wild back-reference accepted")
	}
}

// lz4ExpansionBomb is a valid-looking payload that decodes to far more
// than any small declared raw length: one literal, then one match of
// about a megabyte spelled with 255-continuation length bytes.
func lz4ExpansionBomb() []byte {
	bomb := []byte{0x1F, 'x', 0x01, 0x00}
	for i := 0; i < 4000; i++ {
		bomb = append(bomb, 255)
	}
	return append(bomb, 0)
}

// TestLZ4DecompressBoundsOutput pins the rawLen contract: a negative or
// unreachable declared length is rejected instead of panicking in make,
// and a literal run or match that would write past rawLen is rejected
// before it is copied, so a corrupt block never expands beyond its
// header — rejecting the bomb costs the 10-byte buffer and the error,
// not a megabyte of regrowth.
func TestLZ4DecompressBoundsOutput(t *testing.T) {
	abc := lz4Compress([]byte("abc"))
	for _, rawLen := range []int{-1, lz4MaxExpansion*len(abc) + 1} {
		if _, err := decompressBlock(LZ4, abc, rawLen); err == nil {
			t.Errorf("rawLen %d accepted", rawLen)
		}
	}
	if _, err := lz4Decompress([]byte{0x50, 'a', 'b', 'c', 'd', 'e'}, 3); err == nil {
		t.Error("literal run past rawLen accepted")
	}
	bomb := lz4ExpansionBomb()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := lz4Decompress(bomb, 10); err == nil {
			t.Error("expansion bomb accepted")
		}
	})
	if allocs > 8 {
		t.Errorf("rejecting the expansion bomb took %.0f allocations, want <= 8", allocs)
	}
}

func TestParseCompression(t *testing.T) {
	for in, want := range map[string]Compression{
		"": None, "none": None, "NONE": None, "lz4": LZ4, " LZ4 ": LZ4,
	} {
		got, err := ParseCompression(in)
		if err != nil || got != want {
			t.Errorf("ParseCompression(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"zstd", "flate"} {
		if _, err := ParseCompression(bad); err == nil {
			t.Errorf("unknown codec %q accepted", bad)
		}
	}
}
