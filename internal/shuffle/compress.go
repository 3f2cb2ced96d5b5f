package shuffle

import (
	"fmt"
	"strings"
)

// Compression selects the per-block codec applied between a map-side
// writer sealing a block and a reduce-side fetcher decompressing it.
// Blocks are compressed whole: the exchange ships far fewer, far larger
// units than records, which is where block codecs earn their CPU.
type Compression int

const (
	// None ships raw block bytes.
	None Compression = iota
	// LZ4 uses a hand-rolled LZ4-style sequence codec (byte-aligned
	// match/literal tokens, 64KB window, no entropy stage). The format is
	// this package's own — both ends of the exchange live in-process, so
	// interoperability with real LZ4 frames is explicitly a non-goal.
	LZ4
)

func (c Compression) String() string {
	if c == LZ4 {
		return "lz4"
	}
	return "none"
}

// ParseCompression maps a CLI flag value to a Compression. The empty
// string parses as None so an unset flag means "raw blocks".
func ParseCompression(s string) (Compression, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return None, nil
	case "lz4":
		return LZ4, nil
	}
	return None, fmt.Errorf("shuffle: unknown compression %q (want none|lz4)", s)
}

// compressBlock encodes raw with the chosen codec. None returns raw
// unchanged (no copy); the caller treats the payload as immutable either
// way.
func compressBlock(c Compression, raw []byte) ([]byte, error) {
	switch c {
	case None:
		return raw, nil
	case LZ4:
		return lz4Compress(raw), nil
	}
	return nil, fmt.Errorf("shuffle: unknown compression %d", c)
}

// decompressBlock reverses compressBlock. rawLen is the expected
// uncompressed size carried in the block header; a mismatch means the
// payload was corrupted in flight and is reported, never silently
// truncated.
func decompressBlock(c Compression, payload []byte, rawLen int) ([]byte, error) {
	switch c {
	case None:
		if len(payload) != rawLen {
			return nil, fmt.Errorf("shuffle: raw block is %d bytes, header says %d", len(payload), rawLen)
		}
		return payload, nil
	case LZ4:
		return lz4Decompress(payload, rawLen)
	}
	return nil, fmt.Errorf("shuffle: unknown compression %d", c)
}

// ---- LZ4-style block codec ----
//
// A block is a flat run of sequences. Each sequence is:
//
//	token        1 byte: literal count (high nibble) | match length - 4 (low nibble)
//	ext lit len  0..n bytes of 255 + terminator, present when the nibble is 15
//	literals     <literal count> raw bytes
//	offset       2 bytes little-endian back-reference distance (1..65535)
//	ext mat len  as ext lit len, for the match nibble
//
// The final sequence of a block carries literals only: decoding stops
// when the literals end exactly at the payload boundary, so no offset
// follows. Matches may overlap their own output (offset < length), which
// is how runs compress.

const (
	lz4MinMatch  = 4
	lz4MaxOffset = 1 << 16 // offsets are u16; 0 is reserved as "corrupt"
	lz4HashLog   = 13
	lz4NibbleMax = 15
)

func lz4Hash(v uint32) uint32 {
	// Knuth multiplicative hash over the 4 candidate bytes.
	return (v * 2654435761) >> (32 - lz4HashLog)
}

func lz4Word(src []byte, i int) uint32 {
	return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
}

// lz4Compress greedily matches 4+ byte repeats against a 64KB window
// using a last-occurrence hash table. Incompressible input degrades to a
// single literal run with ~0.4% framing overhead.
func lz4Compress(src []byte) []byte {
	dst := make([]byte, 0, len(src)/2+16)
	var table [1 << lz4HashLog]int32 // position+1 of the last occurrence
	anchor, i := 0, 0
	for i+lz4MinMatch <= len(src) {
		h := lz4Hash(lz4Word(src, i))
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand >= lz4MaxOffset || lz4Word(src, cand) != lz4Word(src, i) {
			i++
			continue
		}
		mlen := lz4MinMatch
		for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		dst = lz4EmitSeq(dst, src[anchor:i], i-cand, mlen)
		i += mlen
		anchor = i
	}
	return lz4EmitSeq(dst, src[anchor:], 0, 0) // trailing literals, no match
}

// lz4EmitSeq appends one sequence. offset 0 marks the final literals-only
// sequence (no offset bytes follow).
func lz4EmitSeq(dst, lits []byte, offset, mlen int) []byte {
	ltok := len(lits)
	if ltok > lz4NibbleMax {
		ltok = lz4NibbleMax
	}
	mtok := 0
	if offset > 0 {
		mtok = mlen - lz4MinMatch
		if mtok > lz4NibbleMax {
			mtok = lz4NibbleMax
		}
	}
	dst = append(dst, byte(ltok<<4|mtok))
	if ltok == lz4NibbleMax {
		dst = lz4EmitLen(dst, len(lits)-lz4NibbleMax)
	}
	dst = append(dst, lits...)
	if offset > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if mtok == lz4NibbleMax {
			dst = lz4EmitLen(dst, mlen-lz4MinMatch-lz4NibbleMax)
		}
	}
	return dst
}

func lz4EmitLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

func lz4ReadLen(payload []byte, p int) (n, np int, err error) {
	for {
		if p >= len(payload) {
			return 0, 0, fmt.Errorf("shuffle: lz4 block truncated in length extension")
		}
		b := payload[p]
		p++
		n += int(b)
		if b != 255 {
			return n, p, nil
		}
	}
}

// lz4MaxExpansion bounds how many output bytes one payload byte can
// decode to: a 255 match-length extension byte is the densest encoding.
const lz4MaxExpansion = 255

// lz4Decompress decodes payload into exactly rawLen bytes. rawLen comes
// from the block header and bounds everything: the output is allocated
// once, at that length, and written by index, and a literal run or
// match that would write past it is rejected before any byte of it is
// copied — so a corrupt block can neither panic nor expand beyond its
// declared size. A rawLen no payload of this size could reach is
// rejected before anything is allocated.
func lz4Decompress(payload []byte, rawLen int) ([]byte, error) {
	corrupt := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("shuffle: corrupt lz4 block: "+format, args...)
	}
	if rawLen < 0 || rawLen > lz4MaxExpansion*len(payload) {
		return corrupt("raw length %d impossible for a %d-byte payload", rawLen, len(payload))
	}
	dst := make([]byte, rawLen)
	d, p := 0, 0 // bytes decoded, payload read position
	for p < len(payload) {
		tok := payload[p]
		p++
		litLen := int(tok >> 4)
		if litLen == lz4NibbleMax {
			n, np, err := lz4ReadLen(payload, p)
			if err != nil {
				return nil, err
			}
			litLen += n
			p = np
		}
		if p+litLen > len(payload) {
			return corrupt("literal run past payload end")
		}
		if litLen > rawLen-d {
			return corrupt("literal run of %d bytes past raw length %d", litLen, rawLen)
		}
		d += copy(dst[d:], payload[p:p+litLen])
		p += litLen
		if p == len(payload) {
			break // final literals-only sequence
		}
		if p+2 > len(payload) {
			return corrupt("truncated match offset")
		}
		offset := int(payload[p]) | int(payload[p+1])<<8
		p += 2
		if offset == 0 || offset > d {
			return corrupt("match offset %d with %d bytes decoded", offset, d)
		}
		mlen := int(tok&lz4NibbleMax) + lz4MinMatch
		if tok&lz4NibbleMax == lz4NibbleMax {
			n, np, err := lz4ReadLen(payload, p)
			if err != nil {
				return nil, err
			}
			mlen += n
			p = np
		}
		if mlen > rawLen-d {
			return corrupt("match of %d bytes past raw length %d", mlen, rawLen)
		}
		// Byte-at-a-time so overlapping matches (offset < length)
		// replicate runs, as the format intends.
		for end := d + mlen; d < end; d++ {
			dst[d] = dst[d-offset]
		}
	}
	if d != rawLen {
		return corrupt("decompressed to %d bytes, header says %d", d, rawLen)
	}
	return dst, nil
}
