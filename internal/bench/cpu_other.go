//go:build !unix && !windows

package bench

import "time"

// cpuNow reports no CPU time on targets with neither getrusage nor
// GetProcessTimes (wasm, plan9): every Measurement's CPU, and with it
// CPUPerGB, reads 0 there.
func cpuNow() time.Duration { return 0 }
