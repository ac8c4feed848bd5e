//go:build !linux

package tctree

import "os"

// retainMappings is false where files are read rather than mapped: a kept
// copy would be heap the residency budget no longer counts after an
// eviction, so every load reads the file afresh.
const retainMappings = false

// mapping holds a shard file read into memory on platforms without the raw
// mmap path.
type mapping struct {
	data []byte
}

// mapShardFile reads path into memory.
func mapShardFile(path string) (*mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &mapping{data: data}, nil
}

// current is never asked: no mapping is retained here.
func (m *mapping) current(string) bool { return false }

// dropPages has nothing to give back: the bytes are garbage once the last
// view over them goes.
func (m *mapping) dropPages() {}
