package shuffle

import "repro/internal/engine"

// MergeByKey exposes the exchange's key merge to the external tests.
func MergeByKey(kr *engine.KeyReader, buf []byte, raws [][]byte) []byte {
	return mergeByKey(kr, buf, raws)
}

// DecodeRun exposes the spill-run decoder to the external tests.
func DecodeRun(data []byte, keys *engine.KeyReader, partitions int) ([][]byte, error) {
	return decodeRun(data, keys, partitions)
}
