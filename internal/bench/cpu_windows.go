package bench

import (
	"syscall"
	"time"
)

// cpuNow returns the process's user plus kernel CPU time so far.
func cpuNow() time.Duration {
	h, err := syscall.GetCurrentProcess()
	if err != nil {
		return 0
	}
	var created, exited, kernel, user syscall.Filetime
	if err := syscall.GetProcessTimes(h, &created, &exited, &kernel, &user); err != nil {
		return 0
	}
	return ticks(kernel) + ticks(user)
}

// ticks reads a Filetime that holds a duration, in 100 ns units (not a
// date, which is what Filetime.Nanoseconds converts).
func ticks(ft syscall.Filetime) time.Duration {
	return time.Duration(int64(ft.HighDateTime)<<32|int64(ft.LowDateTime)) * 100
}
