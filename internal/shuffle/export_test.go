package shuffle

// MergeBlocks exposes the fetch's key-order merge to the external tests.
func (ex *Exchange) MergeBlocks(buf []byte, raws [][]byte) []byte { return ex.mergeBlocks(buf, raws) }
