// Package faultfs is the repository's fault-injection harness: a vfs.FS
// that wraps another filesystem and makes configured operations fail,
// lie, lag or hang. The serving path's robustness claims — canceled
// requests free their workers, stalled shards get demoted instead of
// hanging a GET, torn writes never commit — are only claims until a test
// can make a disk misbehave on demand; this package is that disk.
//
// Faults are described as Rules matched per operation and per path
// pattern. Rule firing is deterministic for a given seed: the same rule
// set, seed and operation sequence injects the same faults, so a failure
// seen in CI replays locally byte for byte.
//
//	fs := faultfs.New(vfs.OS, 42,
//	    faultfs.Rule{Op: faultfs.OpRead, Pattern: "*.shard_001", Stall: true},
//	    faultfs.Rule{Op: faultfs.OpWrite, Pattern: "*.tmp", Prob: 0.1, Err: io.ErrShortWrite},
//	)
//
// Stalled operations block until ReleaseStalls is called (tests release
// them during cleanup so nothing leaks past the test body).
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"sync"
	"time"

	"gemmec/internal/vfs"
)

// ErrInjected is the default error injected by rules that do not carry
// their own Err.
var ErrInjected = errors.New("faultfs: injected fault")

// Op names one filesystem operation class a Rule can arm.
type Op string

const (
	OpOpen   Op = "open"
	OpCreate Op = "create"
	OpRead   Op = "read"
	OpWrite  Op = "write"
	OpRename Op = "rename"
	OpRemove Op = "remove"
	// OpAny arms the rule for every operation class.
	OpAny Op = "any"
)

// Rule describes one fault. A rule fires when its Op and Pattern match an
// operation, its Prob coin (seeded, see New) comes up, and its Count
// budget is not exhausted. Exactly one of the fault kinds is applied, in
// this order of precedence: Stall, then TornAfter (writes only), then
// Err; Latency composes with all of them (the sleep happens first).
type Rule struct {
	// Pattern is a path.Match pattern tested against both the full path
	// and its base name. Empty matches everything.
	Pattern string
	// Op selects the operation class; OpAny (or empty) arms all classes.
	Op Op
	// Prob is the firing probability per matching event in (0, 1]; 0
	// means always fire.
	Prob float64
	// Count caps how many times the rule fires; 0 is unlimited.
	Count int
	// Err is the error to inject; nil selects ErrInjected, except on a
	// rule whose only fault is Latency.
	Err error
	// Latency delays the operation before it proceeds (or fails). A rule
	// with Latency and no other fault kind only delays: the operation
	// then proceeds normally — a slow disk, not a broken one.
	Latency time.Duration
	// Stall blocks the operation until ReleaseStalls; the operation then
	// proceeds normally. This is the "disk that stopped answering" fault
	// the per-shard read deadline exists for.
	Stall bool
	// TornAfter, for write-class rules, lets the first TornAfter bytes of
	// the file through, then writes a short fragment of the next write
	// and fails it — a torn write mid-shard.
	TornAfter int64
}

// FS is the fault-injecting filesystem. Safe for concurrent use.
type FS struct {
	inner vfs.FS

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	count map[Op]int64

	stallOnce sync.Once
	stallC    chan struct{}
}

type ruleState struct {
	Rule
	fired int
}

// New wraps inner with the given rules. All probabilistic decisions come
// from one rand.Rand seeded with seed, so a fixed operation sequence
// injects a fixed fault sequence.
func New(inner vfs.FS, seed int64, rules ...Rule) *FS {
	f := &FS{
		inner:  vfs.Or(inner),
		rng:    rand.New(rand.NewSource(seed)),
		count:  map[Op]int64{},
		stallC: make(chan struct{}),
	}
	for i := range rules {
		f.rules = append(f.rules, &ruleState{Rule: rules[i]})
	}
	return f
}

// ReleaseStalls unblocks every stalled operation, current and future.
// Idempotent; tests call it in cleanup so stalled goroutines drain.
func (f *FS) ReleaseStalls() {
	f.stallOnce.Do(func() { close(f.stallC) })
}

// Injected returns how many faults fired for op (OpAny totals all).
func (f *FS) Injected(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op == OpAny {
		var n int64
		for _, v := range f.count {
			n += v
		}
		return n
	}
	return f.count[op]
}

// match reports whether the rule arms op on name.
func (r *ruleState) match(op Op, name string) bool {
	if r.Op != OpAny && r.Op != "" && r.Op != op {
		return false
	}
	if r.Pattern == "" {
		return true
	}
	if ok, _ := path.Match(r.Pattern, name); ok {
		return true
	}
	ok, _ := path.Match(r.Pattern, filepath.Base(name))
	return ok
}

// fire finds the first armed rule for (op, name), consumes its budget and
// coin, and returns it. The stall/latency/error application happens in
// the caller, outside f.mu, so a stalled op never blocks the whole FS.
func (f *FS) fire(op Op, name string) *ruleState {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if !r.match(op, name) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && f.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		f.count[op]++
		return r
	}
	return nil
}

// apply executes the non-write fault kinds of a fired rule and reports
// the error to inject (nil when the rule only delayed or stalled).
func (f *FS) apply(r *ruleState) error {
	if r.Latency > 0 {
		time.Sleep(r.Latency)
		if r.Err == nil && !r.Stall && r.TornAfter == 0 {
			return nil // a slow operation, not a failed one
		}
	}
	if r.Stall {
		<-f.stallC
		return nil
	}
	if r.TornAfter > 0 {
		return nil // torn writes are applied by the file wrapper
	}
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

func (f *FS) Open(name string) (vfs.File, error) {
	if r := f.fire(OpOpen, name); r != nil {
		if err := f.apply(r); err != nil {
			return nil, &os.PathError{Op: "open", Path: name, Err: err}
		}
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

// OpenRW opens for in-place read/write (the stripe-patch path). It arms
// OpOpen rules at open time; once open, the returned file routes reads
// through OpRead rules and writes through OpWrite rules (including
// TornAfter — a patch torn mid-stripe), same as Create-d files.
func (f *FS) OpenRW(name string) (vfs.File, error) {
	if r := f.fire(OpOpen, name); r != nil {
		if err := f.apply(r); err != nil {
			return nil, &os.PathError{Op: "open", Path: name, Err: err}
		}
	}
	file, err := f.inner.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *FS) Create(name string) (vfs.File, error) {
	if r := f.fire(OpCreate, name); r != nil {
		if err := f.apply(r); err != nil {
			return nil, &os.PathError{Op: "create", Path: name, Err: err}
		}
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if r := f.fire(OpRename, newpath); r != nil {
		if err := f.apply(r); err != nil {
			return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
		}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if r := f.fire(OpRemove, name); r != nil {
		if err := f.apply(r); err != nil {
			return &os.PathError{Op: "remove", Path: name, Err: err}
		}
	}
	return f.inner.Remove(name)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if r := f.fire(OpRead, name); r != nil {
		if err := f.apply(r); err != nil {
			return nil, &os.PathError{Op: "read", Path: name, Err: err}
		}
	}
	return f.inner.ReadFile(name)
}

func (f *FS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if r := f.fire(OpWrite, name); r != nil {
		if err := f.apply(r); err != nil {
			return &os.PathError{Op: "write", Path: name, Err: err}
		}
		if r.TornAfter > 0 && int64(len(data)) > r.TornAfter {
			// Tear the whole-file write: persist the prefix, report failure.
			f.inner.WriteFile(name, data[:r.TornAfter], perm) //nolint:errcheck
			return &os.PathError{Op: "write", Path: name,
				Err: fmt.Errorf("%w: torn after %d of %d bytes", ErrInjected, r.TornAfter, len(data))}
		}
	}
	return f.inner.WriteFile(name, data, perm)
}

// faultFile applies read/write rules to per-file traffic. Write and
// WriteAt share one set of write rules — without the WriteAt override the
// embedded file would promote an unfaulted one — and TornAfter counts the
// bytes written through either, so a positioned encode tears like a
// sequential one.
type faultFile struct {
	vfs.File
	fs   *FS
	name string

	mu      sync.Mutex // serializes writes; guards written
	written int64
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if r := ff.fs.fire(OpRead, ff.name); r != nil {
		if err := ff.fs.apply(r); err != nil {
			return 0, err
		}
	}
	return ff.File.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	return ff.write(p, ff.File.Write)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ff.write(p, func(b []byte) (int, error) { return ff.File.WriteAt(b, off) })
}

// write applies the write rules to one write of p, which do performs.
// Writes to one file are serialized, so a tear lands at one byte count
// however many goroutines write.
func (ff *faultFile) write(p []byte, do func([]byte) (int, error)) (int, error) {
	r := ff.fs.fire(OpWrite, ff.name)
	if r != nil {
		if err := ff.fs.apply(r); err != nil {
			return 0, err
		}
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if r != nil && r.TornAfter > 0 {
		if ff.written >= r.TornAfter {
			return 0, fmt.Errorf("%w: torn write to %s at byte %d",
				ErrInjected, ff.name, ff.written)
		}
		if remain := r.TornAfter - ff.written; int64(len(p)) > remain {
			n, _ := do(p[:remain])
			ff.written += int64(n)
			return n, fmt.Errorf("%w: torn write to %s after %d bytes",
				ErrInjected, ff.name, ff.written)
		}
	}
	n, err := do(p)
	ff.written += int64(n)
	return n, err
}
