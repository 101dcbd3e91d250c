// Package vfs is the minimal filesystem seam the shard I/O paths go
// through: just enough surface (open, create, rename, remove, stat, whole-file
// read/write) for internal/shardfile to stream shard sets and for
// internal/faultfs to inject faults underneath it in tests. It sits at the
// bottom of the dependency graph — no gemmec imports — so both the
// production layers and the fault injector can share it without cycles.
//
// Only shard-file I/O is routed through the interface. Directory
// management (MkdirAll, ReadDir, Glob) and object metadata stay on the os
// package: the failure modes worth injecting — torn shard writes, rotten
// reads, stalled disks — all live on the shard data path.
package vfs

import (
	"io"
	"os"
)

// File is the per-file surface shard I/O needs: reads and writes at the
// file position, Seek (a read plan opens each shard at its first planned
// stripe; a patch rewrites stripes in place), WriteAt (an encode's kernel
// tasks write each finished unit at its stripe's offset, several at once,
// in any order), and Stat for length checks. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Stat() (os.FileInfo, error)
	Name() string
}

// FS opens, creates and renames files. Implementations must be safe for
// concurrent use; OS is the default everywhere an FS is optional.
type FS interface {
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// OpenRW opens the named existing file for reading and writing
	// without truncating it — the seek-and-overwrite surface of the
	// stripe-patching small-write path, which rewrites only the touched
	// stripe offsets of a committed shard file.
	OpenRW(name string) (File, error)
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Rename atomically moves oldpath to newpath (the commit point of
	// every shard write in this repository).
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating it if necessary.
	WriteFile(name string, data []byte, perm os.FileMode) error
}

// StatFS is the optional interface of an FS that can report a file's
// size without opening it. A read plan probes every shard it does not read
// for presence and length only; without StatFS that probe is an open, a
// stat and a close.
type StatFS interface {
	Stat(name string) (os.FileInfo, error)
}

// Stat returns the named file's FileInfo: one stat when fsys implements
// StatFS, Open + Stat + Close otherwise.
func Stat(fsys FS, name string) (os.FileInfo, error) {
	if sfs, ok := fsys.(StatFS); ok {
		return sfs.Stat(name)
	}
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Stat()
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) OpenRW(name string) (File, error) { return os.OpenFile(name, os.O_RDWR, 0) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}
func (osFS) Remove(name string) error              { return os.Remove(name) }
func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }
func (osFS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Or returns fsys when non-nil and OS otherwise — the one-liner every
// Opts-style consumer uses to default its FS field.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
