//go:build !linux

package tctree

import "os"

// mapFile reads path into memory on platforms without the raw mmap path.
// The nil closure tells the caller no explicit release is needed.
func mapFile(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}

// dropPages has nothing to give back: mapFile never maps here.
func dropPages([]byte) {}
