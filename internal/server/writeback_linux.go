//go:build linux && !arm

package server

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE from <linux/fs.h>: start
// writeback of the range's dirty pages and return without waiting.
const syncFileRangeWrite = 2

// startWriteback queues bytes [off, off+n) of f for writeback and returns
// without waiting for the device. It is a hint, so its error is dropped:
// the fsync that gates the ack writes whatever it did not.
func startWriteback(f *os.File, off, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) { //nolint:errcheck // a hint; see above
		syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}
