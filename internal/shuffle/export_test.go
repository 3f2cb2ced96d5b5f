package shuffle

import "repro/internal/engine"

// MergeByKey exposes the exchange's key merge to the external tests.
func MergeByKey(kr *engine.KeyReader, buf []byte, raws [][]byte) []byte {
	return mergeByKey(kr, buf, raws)
}
