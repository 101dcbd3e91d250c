package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gemmec/internal/vfs"
)

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestErrorInjectionByOpAndPattern(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.shard_001"), []byte("hello"))
	write(t, filepath.Join(dir, "a.shard_002"), []byte("world"))

	boom := errors.New("boom")
	fs := New(vfs.OS, 1, Rule{Op: OpOpen, Pattern: "*.shard_001", Err: boom})

	if _, err := fs.Open(filepath.Join(dir, "a.shard_001")); !errors.Is(err, boom) {
		t.Fatalf("open shard_001: %v, want boom", err)
	}
	f, err := fs.Open(filepath.Join(dir, "a.shard_002"))
	if err != nil {
		t.Fatalf("open shard_002 (no rule) failed: %v", err)
	}
	b, err := io.ReadAll(f)
	if err != nil || string(b) != "world" {
		t.Fatalf("read through = %q, %v", b, err)
	}
	f.Close()
	if got := fs.Injected(OpOpen); got != 1 {
		t.Fatalf("Injected(OpOpen) = %d, want 1", got)
	}
}

func TestDefaultErrAndCountBudget(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	write(t, p, []byte("x"))
	fs := New(vfs.OS, 1, Rule{Op: OpRead, Count: 2})

	for i := 0; i < 2; i++ {
		if _, err := fs.ReadFile(p); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: %v, want ErrInjected", i, err)
		}
	}
	if b, err := fs.ReadFile(p); err != nil || string(b) != "x" {
		t.Fatalf("read after budget exhausted: %q, %v", b, err)
	}
	if got := fs.Injected(OpAny); got != 2 {
		t.Fatalf("Injected(OpAny) = %d, want 2", got)
	}
}

// The same seed and operation sequence must fire the same faults: that is
// what makes a CI failure replayable locally.
func TestSeedDeterminism(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	write(t, p, []byte("x"))
	run := func(seed int64) []bool {
		fs := New(vfs.OS, seed, Rule{Op: OpRead, Prob: 0.5})
		fired := make([]bool, 64)
		for i := range fired {
			_, err := fs.ReadFile(p)
			fired[i] = err != nil
		}
		return fired
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different fault sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
}

func TestTornWholeFileWritePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "shard.tmp")
	fs := New(vfs.OS, 1, Rule{Op: OpWrite, TornAfter: 3})

	err := fs.WriteFile(p, []byte("abcdef"), 0o644)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn WriteFile err = %v, want ErrInjected", err)
	}
	got, rerr := os.ReadFile(p)
	if rerr != nil || string(got) != "abc" {
		t.Fatalf("on-disk after torn write = %q, %v; want prefix \"abc\"", got, rerr)
	}
}

func TestTornStreamWrite(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	fs := New(vfs.OS, 1, Rule{Op: OpWrite, TornAfter: 4})

	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write([]byte("abcdef"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn Write = (%d, %v), want (4, ErrInjected)", n, err)
	}
	if n, err := f.Write([]byte("gh")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write past tear = (%d, %v), want (0, ErrInjected)", n, err)
	}
}

// WriteAt is a write like any other: an Err rule fails it, Latency delays
// it, and TornAfter counts positioned bytes with sequential ones, landing
// the fragment at the write's own offset.
func TestWriteAtObeysWriteRules(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	fs := New(vfs.OS, 1,
		Rule{Op: OpWrite, Pattern: "err", Err: boom},
		Rule{Op: OpWrite, Pattern: "slow", Latency: 30 * time.Millisecond},
		Rule{Op: OpWrite, Pattern: "torn", TornAfter: 6})
	open := func(name string) vfs.File {
		t.Helper()
		f, err := fs.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	if n, err := open("err").WriteAt([]byte("abc"), 3); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("WriteAt under an Err rule = (%d, %v), want (0, boom)", n, err)
	}
	start := time.Now()
	if _, err := open("slow").WriteAt([]byte("abc"), 3); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency rule delayed WriteAt only %v", d)
	}

	f := open("torn")
	if n, err := f.WriteAt([]byte("wxyz"), 4); n != 4 || err != nil {
		t.Fatalf("WriteAt inside the budget = (%d, %v)", n, err)
	}
	if n, err := f.WriteAt([]byte("abcd"), 0); n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn WriteAt = (%d, %v), want (2, ErrInjected)", n, err)
	}
	if n, err := f.Write([]byte("q")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write past tear = (%d, %v), want (0, ErrInjected)", n, err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "torn")); err != nil || string(got) != "ab\x00\x00wxyz" {
		t.Fatalf("on-disk after torn WriteAt = %q, %v", got, err)
	}
	if got := fs.Injected(OpWrite); got != 5 {
		t.Fatalf("Injected(OpWrite) = %d, want 5", got)
	}
}

func TestStallBlocksUntilRelease(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	write(t, p, []byte("x"))
	fs := New(vfs.OS, 1, Rule{Op: OpRead, Stall: true, Count: 1})

	done := make(chan error, 1)
	go func() {
		_, err := fs.ReadFile(p)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fs.ReleaseStalls()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released stall should proceed normally, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after ReleaseStalls")
	}
}

func TestLatency(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	write(t, p, []byte("x"))
	fs := New(vfs.OS, 1, Rule{Op: OpRead, Latency: 30 * time.Millisecond, Err: ErrInjected})

	start := time.Now()
	_, err := fs.ReadFile(p)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency rule slept only %v", d)
	}
}
