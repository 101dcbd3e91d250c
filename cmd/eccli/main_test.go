package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// eccli builds the command once per test binary and returns a runner
// that executes it, reporting combined output and whether it exited 0.
func eccli(t *testing.T) func(args ...string) (string, bool) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "eccli")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (string, bool) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		return string(out), err == nil
	}
}

// flipBytes rots n bytes of the file at off, in place (length unchanged).
func flipBytes(t *testing.T, path string, off, n int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := off; i < off+n; i++ {
		b[i] ^= 0xA5
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSilentRotIsReconstructedAround pins the CLI's integrity contract on
// its default flags: a shard whose bytes rotted in place is detected by
// its manifest CRCs, decode reconstructs around it and names it, repair
// and scrub heal it, and r+1 rotten shards fail non-zero with no output
// file — never exit 0 with corrupt bytes.
func TestSilentRotIsReconstructedAround(t *testing.T) {
	run := eccli(t)
	tmp := t.TempDir()
	in, out := filepath.Join(tmp, "in.bin"), filepath.Join(tmp, "out.bin")
	want := make([]byte, 300_000)
	rand.New(rand.NewSource(1)).Read(want)
	if err := os.WriteFile(in, want, 0o644); err != nil {
		t.Fatal(err)
	}
	shard := func(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard_%03d", i)) }
	encode := func(dir string, extra ...string) {
		t.Helper()
		args := append([]string{"encode", "-in", in, "-dir", dir, "-k", "4", "-r", "2", "-unit", "4096"}, extra...)
		if o, ok := run(args...); !ok {
			t.Fatalf("encode: %s", o)
		}
	}
	decodeOK := func(dir string) string {
		t.Helper()
		o, ok := run("decode", "-dir", dir, "-out", out)
		if !ok {
			t.Fatalf("decode: %s", o)
		}
		got, err := os.ReadFile(out)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("decode exited 0 but the output is not byte-identical (err=%v): %s", err, o)
		}
		return o
	}

	dir := filepath.Join(tmp, "shards")
	encode(dir)
	// The worker count sizes a pool; it does not select a shard layout.
	dir2 := filepath.Join(tmp, "shards2")
	encode(dir2, "-stream-workers", "2")
	for i := 0; i < 6; i++ {
		a, _ := os.ReadFile(shard(dir, i))
		b, _ := os.ReadFile(shard(dir2, i))
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("shard %d differs between default and -stream-workers 2 encodes", i)
		}
	}

	for _, heal := range []string{"repair", "scrub"} {
		flipBytes(t, shard(dir, 1), 5000, 4)
		if o := decodeOK(dir); !strings.Contains(o, "reconstructed shards: [1]") {
			t.Fatalf("decode did not report rotten shard 1: %s", o)
		}
		if o, ok := run(heal, "-dir", dir); !ok || !strings.Contains(o, "[1]") {
			t.Fatalf("%s did not heal shard 1 (ok=%v): %s", heal, ok, o)
		}
		if o, ok := run("verify", "-dir", dir); !ok {
			t.Fatalf("verify after %s: %s", heal, o)
		}
		if o := decodeOK(dir); !strings.Contains(o, "reconstructed shards: []") {
			t.Fatalf("decode after %s still reconstructs: %s", heal, o)
		}
	}

	// r+1 rotten shards in one stripe: nothing can vouch for the bytes.
	os.Remove(out)
	for _, i := range []int{0, 2, 5} {
		flipBytes(t, shard(dir, i), 100, 4)
	}
	if o, ok := run("decode", "-dir", dir, "-out", out); ok {
		t.Fatalf("decode of a set with r+1 rotten shards exited 0: %s", o)
	}
	if _, err := os.Stat(out); err == nil {
		t.Fatal("failed decode left an output file behind")
	}
	for _, heal := range []string{"repair", "scrub"} {
		if o, ok := run(heal, "-dir", dir); ok {
			t.Fatalf("%s of a set with r+1 rotten shards exited 0: %s", heal, o)
		}
	}
}
