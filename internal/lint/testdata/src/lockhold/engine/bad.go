// Package engine is a fixture analyzed as internal/engine: no file or
// network I/O inside write-side critical sections of the declared
// query-blocking mutexes (updateMu).
package engine

import (
	"os"
	"sync"

	"themecomm/internal/dbnet"
	"themecomm/internal/durable"
)

type eng struct {
	updateMu sync.RWMutex
	f        *os.File
}

// swapSlow does disk I/O while every in-flight query is excluded.
func (e *eng) swapSlow(path string) error {
	e.updateMu.Lock()
	err := os.Remove(path) // want "os.Remove inside the updateMu critical section"
	e.updateMu.Unlock()
	return err
}

// swapDeferred holds the lock to the end of the function via defer; the
// fsync and the module-internal write helper are both I/O under the lock.
func (e *eng) swapDeferred(path string) error {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if err := e.f.Sync(); err != nil { // want "Sync\\(\\) inside the updateMu critical section"
		return err
	}
	return dbnet.WriteFileAtomic(path, nil, nil) // want "dbnet.WriteFileAtomic inside the updateMu critical section"
}

// swapDurable replaces a file through the one durable write routine while
// every in-flight query is excluded.
func (e *eng) swapDurable(path string) error {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	return durable.WriteFile(path, nil) // want "durable.WriteFile inside the updateMu critical section"
}
