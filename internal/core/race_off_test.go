//go:build !race

package core

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because its instrumentation (and
// sync.Pool's altered behavior) adds allocations of its own.
const raceEnabled = false
