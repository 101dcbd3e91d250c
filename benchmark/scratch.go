package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// Linux's inode-flag ioctls on a 64-bit machine and ext4's "top of
// directory hierarchy" flag (chattr +T).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// spreadChildren marks dir so that ext4 places every directory made in it
// in a block group of its own choosing, spread over the disk, instead of
// next to dir. It reports whether the flag took; elsewhere than on ext4 it
// does nothing.
//
// Why the benchmark needs it: ext4 will not reuse an inode freed less than
// a minute ago (five minutes while its table block is still dirty), and
// steps over every such inode of the block group, one by one, on every
// file create. All directories made under one parent share its block
// group, so without the flag a create in this run's store costs 15 µs or
// 400 µs depending on how many files earlier runs, earlier set-ups and the
// test before them deleted in the last minutes — measured here: 14-24 µs
// per create under a marked directory, 150-350 µs and drifting under a
// plain one. The flag goes on the scratch directory and on each run's
// directory, so each store root starts in a group of its own; what a run
// then pays for is the churn of its own store: the program's, not the
// harness's. (Marking the store roots too, so that a store's node and
// metadata directories spread as well, was tried: ext4 packs such
// directories into the first group of a few hundred flex groups, seventy
// directories a run churned them all, and every create was slow.)
func spreadChildren(dir string) bool {
	d, err := os.Open(dir)
	if err != nil {
		return false
	}
	defer d.Close()
	var flags int32
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return false
	}
	flags |= fsTopdirFl
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, d.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
	return errno == 0
}

// freshRoot makes the directory a store (or the ladder) will live in, under
// a parent marked by spreadChildren. Spreading alone is not enough: the
// groups ext4 spreads into are few enough that a root now and then lands
// where the root of an earlier run was deleted minutes ago — three runs in
// ten paid 9 ms for a small PUT where the others paid 6. So it makes four
// candidates, each placed in a group of its own, times a handful of file
// creates in each, keeps the cheapest and removes the rest. It is harness
// work and never inside a timed set-up.
func freshRoot(parent, prefix string) (string, error) {
	const candidates, probes = 4, 32
	var (
		best     string
		bestCost time.Duration
	)
	for i := 0; i < candidates; i++ {
		dir, err := os.MkdirTemp(parent, prefix)
		if err != nil {
			return "", err
		}
		start := time.Now()
		for j := 0; j < probes; j++ {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("probe%d", j)), nil, 0o644); err != nil {
				return "", err
			}
		}
		cost := time.Since(start)
		for j := 0; j < probes; j++ {
			os.Remove(filepath.Join(dir, fmt.Sprintf("probe%d", j)))
		}
		switch {
		case best == "":
			best, bestCost = dir, cost
		case cost < bestCost:
			os.Remove(best)
			best, bestCost = dir, cost
		default:
			os.Remove(dir)
		}
	}
	return best, nil
}
