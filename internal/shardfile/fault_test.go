package shardfile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"gemmec/internal/ecerr"
	"gemmec/internal/faultfs"
	"gemmec/internal/vfs"
)

// Integration of the Opts plumbing with the fault harness: canceled
// writes clean up, stalled shards demote instead of hanging, injected
// open errors degrade reads, and a dead context stops a scrub.

const (
	fk    = 3
	fr    = 2
	funit = 512
)

func faultPaths(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, fk+fr)
	for i := range paths {
		paths[i] = ShardPath(dir, i)
	}
	return dir, paths
}

func writeFaultObject(t *testing.T, paths []string, stripes int) (Manifest, []byte) {
	t.Helper()
	data := make([]byte, stripes*fk*funit-37)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m, _, err := WriteStreamPaths(paths, bytes.NewReader(data), int64(len(data)),
		fk, fr, funit, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return m, data
}

// cancelingReader serves zeros forever and cancels the context once
// trigger bytes have been read — the write must then stop at the next
// between-stripe check rather than run away with an endless source.
type cancelingReader struct {
	served  int
	trigger int
	cancel  context.CancelFunc
	fired   bool
}

func (r *cancelingReader) Read(p []byte) (int, error) {
	r.served += len(p)
	if r.served >= r.trigger && !r.fired {
		r.fired = true
		r.cancel()
	}
	return len(p), nil
}

func TestWriteStreamPathsCanceledLeavesNoTemps(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir, paths := faultPaths(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &cancelingReader{trigger: 4 * fk * funit, cancel: cancel}
			_, _, err := WriteStreamPaths(paths, src, -1, fk, fr, funit, 0,
				withWorkers(Opts{Ctx: ctx}, workers))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			ents, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			for _, e := range ents {
				t.Errorf("canceled write left %s behind", e.Name())
			}
		})
	}
}

func TestDecodeStalledShardDemoted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, paths := faultPaths(t)
			m, data := writeFaultObject(t, paths, 6)

			ffs := faultfs.New(vfs.OS, 1,
				faultfs.Rule{Op: faultfs.OpRead, Pattern: "shard_000", Stall: true})
			t.Cleanup(ffs.ReleaseStalls)

			sr, err := OpenStreamPaths(paths, m, withWorkers(Opts{
				FS:               ffs,
				ShardReadTimeout: 50 * time.Millisecond,
			}, workers))
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()

			var out bytes.Buffer
			start := time.Now()
			if _, err := sr.Decode(&out, 0); err != nil {
				t.Fatalf("decode with stalled shard: %v", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("decode took %v: stalled shard hung the stream", d)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("degraded payload mismatch")
			}
			dems := sr.Demoted()
			if len(dems) != 1 || dems[0].Shard != 0 {
				t.Fatalf("demotions = %+v, want exactly shard 0", dems)
			}
			if !errors.Is(dems[0].Cause, ecerr.ErrShardStall) {
				t.Fatalf("cause = %v, want ErrShardStall", dems[0].Cause)
			}
			if cls := ecerr.DemotionCauseClass(dems[0].Cause); cls != "stall" {
				t.Fatalf("cause class = %q, want \"stall\"", cls)
			}
		})
	}
}

// A stalled shard must never be classified as corrupt: scrubbers rewrite
// corrupt shards, and rewriting a shard that was merely slow destroys a
// healthy copy.
func TestStallDemotionIsNotCorrupt(t *testing.T) {
	_, paths := faultPaths(t)
	m, _ := writeFaultObject(t, paths, 4)

	ffs := faultfs.New(vfs.OS, 1,
		faultfs.Rule{Op: faultfs.OpRead, Pattern: "shard_001", Stall: true})
	t.Cleanup(ffs.ReleaseStalls)

	sr, err := OpenStreamPaths(paths, m, Opts{FS: ffs, ShardReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Decode(bytes.NewBuffer(nil), 0); err != nil {
		t.Fatal(err)
	}
	if got := sr.Unusable(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("unusable = %v, want [1]", got)
	}
	if got := sr.Corrupt(); len(got) != 0 {
		t.Fatalf("corrupt = %v: a stall is not rot and must not be scrub-rewritten", got)
	}
}

func TestOpenInjectedErrorDegradesRead(t *testing.T) {
	_, paths := faultPaths(t)
	m, data := writeFaultObject(t, paths, 5)

	ffs := faultfs.New(vfs.OS, 1,
		faultfs.Rule{Op: faultfs.OpOpen, Pattern: "shard_002", Err: errors.New("disk gone")})
	var out bytes.Buffer
	degraded, _, err := readStreamPaths(paths, m, &out, 2, Opts{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 1 || degraded[0] != 2 {
		t.Fatalf("degraded = %v, want [2]", degraded)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("degraded payload mismatch")
	}
	if got := ffs.Injected(faultfs.OpOpen); got != 1 {
		t.Fatalf("Injected(OpOpen) = %d, want 1", got)
	}
}

func TestScrubPathsCanceled(t *testing.T) {
	_, paths := faultPaths(t)
	m, _ := writeFaultObject(t, paths, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScrubPaths(paths, m, Opts{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("scrub on dead ctx = %v, want context.Canceled", err)
	}
}

// A failed tmp-file write during an encode — torn or erroring, on the
// buffered in-order path of small units or the positioned path of
// unit-sized ones, partway through the object — must fail the write and
// leave nothing: no committed shard, and no .tmp left behind.
func TestWriteStreamPathsTornWriteAborts(t *testing.T) {
	const big = streamBufSize // positioned: kernel tasks WriteAt their units
	full := errors.New("disk full")
	cases := []struct {
		name string
		unit int
		rule faultfs.Rule
		want error
	}{
		{"torn, buffered", funit, faultfs.Rule{Op: faultfs.OpWrite, Pattern: "shard_001.tmp", TornAfter: funit}, faultfs.ErrInjected},
		{"error, positioned", big, faultfs.Rule{Op: faultfs.OpWrite, Pattern: "shard_002.tmp", Err: full}, full},
		{"torn mid-object, positioned", big, faultfs.Rule{Op: faultfs.OpWrite, Pattern: "shard_004.tmp", TornAfter: 2*big + 100}, faultfs.ErrInjected},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				dir, paths := faultPaths(t)
				ffs := faultfs.New(vfs.OS, 1, c.rule)
				data := make([]byte, 4*fk*c.unit)
				_, _, err := WriteStreamPaths(paths, bytes.NewReader(data), int64(len(data)),
					fk, fr, c.unit, 0, withWorkers(Opts{FS: ffs}, workers))
				if !errors.Is(err, c.want) {
					t.Fatalf("failed write err = %v, want %v", err, c.want)
				}
				ents, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				for _, e := range ents {
					t.Errorf("failed write left %s behind", e.Name())
				}
			})
		}
	}
}
