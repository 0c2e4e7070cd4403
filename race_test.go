//go:build race

package usp

// The race detector makes sync.Pool drop items at random, so a pooled
// Searcher is sometimes rebuilt and allocation counts that rely on the pool
// do not hold.
func init() { raceEnabled = true }
