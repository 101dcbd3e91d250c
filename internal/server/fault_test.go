package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gemmec"
	"gemmec/internal/faultfs"
	"gemmec/internal/vfs"
)

// Faults on the file PUT path at the default unit, where the kernel task
// that codes a stripe writes its units at their offsets: a failed write
// anywhere in the object fails the overwrite whole, and the removal of a
// superseded generation, which runs after the PUT is answered, is still
// finished before anything else touches the key.

// tmpFiles lists the temporary shard files under root.
func tmpFiles(t *testing.T, root string) []string {
	t.Helper()
	var left []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".tmp") {
			left = append(left, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestPutWriteFaultKeepsPreviousGeneration: an overwrite whose positioned
// shard write fails — an injected error, or a write torn partway through
// the object — fails, leaves no temporary file, and leaves the metadata
// naming the previous generation, whose bytes read back intact.
func TestPutWriteFaultKeepsPreviousGeneration(t *testing.T) {
	const unit = gemmec.DefaultUnitSize
	full := errors.New("disk full")
	cases := []struct {
		name string
		rule faultfs.Rule
		want error
	}{
		{"write error", faultfs.Rule{Op: faultfs.OpWrite, Pattern: "*.g2.shard_001.tmp", Err: full}, full},
		{"torn mid-object", faultfs.Rule{Op: faultfs.OpWrite, Pattern: "*.g2.shard_003.tmp", TornAfter: 2*unit + 100}, faultfs.ErrInjected},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				root := t.TempDir()
				ffs := faultfs.New(vfs.OS, 1, c.rule)
				s, err := Open(StoreConfig{Root: root, Nodes: tnode, K: tk, R: tr, UnitSize: unit, Workers: workers, FS: ffs})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				old := randBytes(41, 3*tk*unit+5)
				first := mustPut(t, s, "obj", old)

				_, _, err = s.Put(context.Background(), "obj", bytes.NewReader(randBytes(42, 5*tk*unit+9)), int64(5*tk*unit+9))
				if !errors.Is(err, c.want) {
					t.Fatalf("overwrite through the fault = %v, want the injected error", err)
				}
				if ffs.Injected(faultfs.OpWrite) == 0 {
					t.Fatal("fault never fired")
				}
				if left := tmpFiles(t, root); len(left) > 0 {
					t.Errorf("failed overwrite left %v behind", left)
				}
				meta, err := s.Stat("obj")
				if err != nil || meta.Gen != first.Gen || !reflect.DeepEqual(meta.Manifest, first.Manifest) {
					t.Fatalf("metadata after the failed overwrite: gen %d (err %v), want generation %d as committed", meta.Gen, err, first.Gen)
				}
				if got, bad := mustGet(t, s, "obj"); !bytes.Equal(got, old) || len(bad) != 0 {
					t.Fatalf("previous generation after the failed overwrite: %d bytes, reconstructed %v", len(got), bad)
				}
			})
		}
	}
}

// TestReclaimUnderRemoveLatencyFault: with every remove of the superseded
// generation slowed down, an overwrite is answered before the removes
// finish — and yet the next GET, the next PUT of the key, a scrub (which
// finds no orphan to remove) and Close each find the old generation gone.
func TestReclaimUnderRemoveLatencyFault(t *testing.T) {
	const latency = 250 * time.Millisecond
	cases := []struct {
		name string
		next func(t *testing.T, s *Store)
	}{
		{"get", func(t *testing.T, s *Store) {
			if got, _ := mustGet(t, s, "obj"); !bytes.Equal(got, randBytes(52, 2*tk*tunit+3)) {
				t.Fatal("GET after the overwrite did not read the new generation")
			}
		}},
		{"put", func(t *testing.T, s *Store) { mustPut(t, s, "obj", randBytes(53, tunit)) }},
		{"scrub", func(t *testing.T, s *Store) {
			if rep := s.ScrubAll(context.Background()); !rep.Clean() || rep.OrphansRemoved != 0 {
				t.Fatalf("scrub after the overwrite: %+v, want clean with no orphans", rep)
			}
		}},
		{"close", func(t *testing.T, s *Store) { s.Close() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ffs := faultfs.New(vfs.OS, 1, faultfs.Rule{Op: faultfs.OpRemove, Pattern: "*.g1.shard_*", Latency: latency})
			s, err := Open(StoreConfig{Root: t.TempDir(), Nodes: tnode, K: tk, R: tr, UnitSize: tunit, Workers: 2, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			first := mustPut(t, s, "obj", randBytes(51, 3*tk*tunit+1))
			old := s.shardPaths(objKey("obj"), first)

			mustPut(t, s, "obj", randBytes(52, 2*tk*tunit+3))
			if _, err := os.Stat(old[0]); err != nil {
				t.Fatalf("the overwrite waited for its reclaim: old shard 0 is gone at once (%v)", err)
			}
			c.next(t, s)
			for _, p := range old {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("old-generation shard %s still there after the %s", filepath.Base(p), c.name)
				}
			}
			if got := ffs.Injected(faultfs.OpRemove); got != int64(len(old)) {
				t.Errorf("%d slowed removes, want one per old shard (%d)", got, len(old))
			}
		})
	}
}
