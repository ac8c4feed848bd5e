//go:build linux

package tctree

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only into memory. It returns the mapped bytes and
// an unmap closure; a nil closure means the bytes are heap-allocated and
// need no release. Mapping shares the OS page cache across processes and
// defers I/O to first touch — the zero-copy half of the TCBIN design.
func mapFile(path string) ([]byte, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		// mmap rejects zero-length maps; an empty file fails validation with
		// a clear error instead.
		return nil, nil, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("file too large to map (%d bytes)", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap: %w", err)
	}
	return data, func() { _ = syscall.Munmap(data) }, nil
}

// dropPages gives the resident pages of a mapping made by mapFile back to
// the OS without unmapping it: the range stays valid, and a later access
// faults the page in again from the file.
func dropPages(data []byte) { _ = syscall.Madvise(data, syscall.MADV_DONTNEED) }
