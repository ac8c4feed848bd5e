//go:build !linux && !darwin

package journal

import "os"

// lockDir locks nothing where flock is not available: the journal is then
// guarded only by the discipline of opening it from one process.
func lockDir(string) (*os.File, error) { return nil, nil }
