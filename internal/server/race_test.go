//go:build race

package server

// The race detector makes sync.Pool drop a share of what is put back, by
// design, so allocation counts that rely on the pool do not hold under it.
func init() { raceEnabled = true }
