//go:build linux

package tctree

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// retainMappings says a ShardFile keeps its mapping across loads: a shared
// read-only map stays valid after its pages are dropped, so the next load
// only re-validates it.
const retainMappings = true

// fileGen identifies one generation of a file: the device and inode the path
// named and the size the file had. An in-place write keeps the generation —
// a shared map sees the new bytes anyway — while a rename over the path, a
// truncation or an extension starts a new one.
type fileGen struct {
	dev, ino uint64
	size     int64
}

func genOf(st *syscall.Stat_t) fileGen {
	return fileGen{dev: uint64(st.Dev), ino: uint64(st.Ino), size: st.Size}
}

// mapping is one read-only shared memory map of a shard file. Mapping shares
// the OS page cache across processes and defers I/O to first touch — the
// zero-copy half of the TCBIN design. The map is released by a finalizer once
// neither its ShardFile nor any BinShard over it is reachable: an explicit
// unmap could pull the bytes out from under a concurrent query.
type mapping struct {
	data []byte
	gen  fileGen
}

// mapShardFile maps path, recording the generation fstat saw on the very
// descriptor it mapped.
func mapShardFile(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return nil, err
	}
	m := &mapping{gen: genOf(&st)}
	if st.Size == 0 {
		// mmap rejects zero-length maps; an empty file fails validation with
		// a clear error instead.
		return m, nil
	}
	if st.Size != int64(int(st.Size)) {
		return nil, fmt.Errorf("file too large to map (%d bytes)", st.Size)
	}
	m.data, err = syscall.Mmap(int(f.Fd()), 0, int(st.Size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	runtime.SetFinalizer(m, func(m *mapping) { _ = syscall.Munmap(m.data) })
	return m, nil
}

// current reports whether path still names the generation m maps.
func (m *mapping) current(path string) bool {
	var st syscall.Stat_t
	return syscall.Stat(path, &st) == nil && genOf(&st) == m.gen
}

// dropPages gives the resident pages of the map back to the OS without
// unmapping it: the range stays valid, and a later access faults the page in
// again from the file.
func (m *mapping) dropPages() {
	if len(m.data) > 0 {
		_ = syscall.Madvise(m.data, syscall.MADV_DONTNEED)
	}
}
