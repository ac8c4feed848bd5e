//go:build linux || darwin

package journal

import (
	"fmt"
	"os"
	"syscall"
)

// lockDir takes a non-blocking exclusive flock on dir, held for as long as
// the returned file stays open. flock locks an open file description, so a
// second lockDir of the same directory fails in this process too.
func lockDir(dir string) (*os.File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %s is locked by another open journal: %w", dir, err)
	}
	return f, nil
}
