//go:build !linux || arm

package server

import "os"

// startWriteback does nothing where syscall has no SyncFileRange (every
// target but Linux, and 32-bit arm Linux): the fsync that gates the ack
// writes the whole file, as it would without the hint.
func startWriteback(f *os.File, off, n int64) {}
