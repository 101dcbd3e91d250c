package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gemmec"
	"gemmec/internal/peer"
	"gemmec/internal/vfs"
)

// TestBackendsShareEngine: Store (shard files) and Gateway (peer
// streams) are two instantiations of one shardfile engine, so for the
// same payload and geometry they commit the same manifest — stripe sums
// included — and agree on every edge the engine owns: empty objects of
// declared and of unknown size, and range windows cut out of the middle
// of stripes.
func TestBackendsShareEngine(t *testing.T) {
	ctx := context.Background()
	store, err := Open(StoreConfig{Root: t.TempDir(), Nodes: 6, K: 4, R: 2, UnitSize: tunit, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	backends := map[string]interface {
		Backend
		RangeOpener
	}{"store": store, "gateway": newFaultCluster(t, 6, 4, 2, 1, tunit).gw}

	const stripeBytes = 4 * tunit
	payload := randBytes(77, 5*stripeBytes+123)
	objects := []struct {
		name string
		body []byte
		size int64 // declared to Put; -1 = unknown
	}{
		{"full", payload, int64(len(payload))},
		{"chunked", payload, -1},
		{"empty", nil, 0},
		{"empty-chunked", nil, -1},
	}
	windows := []struct{ off, n int64 }{
		{0, 1}, {3, stripeBytes}, {stripeBytes - 1, 2}, {2*stripeBytes + 9, 2 * stripeBytes},
		{int64(len(payload)) - 5, 5}, {-1, 100}, {stripeBytes, -1},
	}
	for _, obj := range objects {
		manifests := map[string]any{}
		for bname, b := range backends {
			meta, _, err := b.Put(ctx, obj.name, bytes.NewReader(obj.body), obj.size)
			if err != nil {
				t.Fatalf("%s put %s: %v", bname, obj.name, err)
			}
			assertStripeSumsOnly(t, bname+" "+obj.name, meta.Manifest)
			if meta.Manifest.FileSize != int64(len(obj.body)) || meta.Manifest.Stripes < 1 {
				t.Fatalf("%s %s: FileSize=%d Stripes=%d for %d bytes", bname, obj.name,
					meta.Manifest.FileSize, meta.Manifest.Stripes, len(obj.body))
			}
			manifests[bname] = meta.Manifest

			o, err := b.Open(ctx, obj.name)
			if err != nil {
				t.Fatalf("%s open %s: %v", bname, obj.name, err)
			}
			var got bytes.Buffer
			_, err = o.Stream(&got)
			o.Close()
			if err != nil || !bytes.Equal(got.Bytes(), obj.body) {
				t.Fatalf("%s get %s: %d bytes, err=%v", bname, obj.name, got.Len(), err)
			}
			if len(obj.body) == 0 {
				continue
			}
			for _, w := range windows {
				ro, err := b.OpenRange(ctx, obj.name, w.off, w.n)
				if err != nil {
					t.Fatalf("%s range %s [%d,+%d): %v", bname, obj.name, w.off, w.n, err)
				}
				off, n := ro.Range()
				got.Reset()
				_, err = ro.Stream(&got)
				ro.Close()
				if err != nil || !bytes.Equal(got.Bytes(), obj.body[off:off+n]) {
					t.Fatalf("%s range %s [%d,+%d) resolved [%d,+%d): %d bytes, err=%v",
						bname, obj.name, w.off, w.n, off, n, got.Len(), err)
				}
			}
		}
		if !reflect.DeepEqual(manifests["store"], manifests["gateway"]) {
			t.Fatalf("%s: store and gateway committed different manifests:\n store   %+v\n gateway %+v",
				obj.name, manifests["store"], manifests["gateway"])
		}
	}
	// An unsatisfiable window is the same error from either backend.
	for bname, b := range backends {
		var re *RangeError
		if _, err := b.OpenRange(ctx, "empty", 0, 1); !errors.As(err, &re) || re.Size != 0 {
			t.Fatalf("%s: range over an empty object = %v, want *RangeError{Size: 0}", bname, err)
		}
	}
}

// repairHook runs a function the moment a repair opens its first target —
// a shard temp file on a Store, a shard upload on a Gateway.
type repairHook struct{ f atomic.Pointer[func()] }

func (h *repairHook) fire() {
	if f := h.f.Swap(nil); f != nil {
		(*f)()
	}
}

type hookFS struct {
	vfs.FS
	h *repairHook
}

func (fs hookFS) Create(name string) (vfs.File, error) {
	fs.h.fire()
	return fs.FS.Create(name)
}

type hookTransport struct {
	peer.Transport
	h *repairHook
}

func (tr hookTransport) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	tr.h.fire()
	return tr.Transport.PutShard(ctx, key, gen, idx, size, body)
}

// TestBackendsShareRepair: Store's scrub and Gateway's rebuild are two
// instantiations of one shardfile repair core, so both bring a lost shard
// back byte-identical, refuse to push anything rebuilt from a unit that
// fails its checksum, and leave nothing behind when canceled mid-repair.
// They differ only in how damage is found: a Store scrub reads every unit
// (a rotten cell is healed), a Gateway sweep stats its peers and reads
// exactly k survivors (a rotten survivor fails the rebuild).
func TestBackendsShareRepair(t *testing.T) {
	const name = "obj"
	key := objKey(name)
	payload := randBytes(78, 5*4*tunit+123)
	cases := []struct {
		name   string
		lose   int
		rot    int // shard with one flipped byte in stripe 2; -1 = none
		cancel bool
		healed map[string][]int // by backend; nil = the sweep heals nothing
		failed map[string]error // by backend; what the reported failure names
	}{
		{name: "missing shard", lose: 1, rot: -1,
			healed: map[string][]int{"store": {1}, "gateway": {1}}},
		{name: "rot in a survivor", lose: 5, rot: 0,
			healed: map[string][]int{"store": {0, 5}}, failed: map[string]error{"gateway": gemmec.ErrCorruptShard}},
		{name: "cancel mid-repair", lose: 3, rot: -1, cancel: true},
	}
	for _, c := range cases {
		for _, bname := range []string{"store", "gateway"} {
			t.Run(c.name+"/"+bname, func(t *testing.T) {
				var (
					hook  repairHook
					b     Backend
					paths func(meta ObjectMeta) []string
				)
				if bname == "store" {
					s, err := Open(StoreConfig{Root: t.TempDir(), Nodes: 6, K: 4, R: 2, UnitSize: tunit, Workers: 2,
						FS: hookFS{vfs.OS, &hook}})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(s.Close)
					b, paths = s, func(meta ObjectMeta) []string { return s.shardPaths(key, meta) }
				} else {
					fc := newFaultCluster(t, 6, 4, 2, 1, tunit)
					for id, tr := range fc.gw.cfg.Transports {
						fc.gw.cfg.Transports[id] = hookTransport{tr, &hook}
					}
					b, paths = fc.gw, func(meta ObjectMeta) []string {
						ps := make([]string, len(meta.Placement))
						for i, member := range meta.Placement {
							ps[i] = fc.stores[member].shardPath(key, uint64(meta.Gen), i)
						}
						return ps
					}
				}
				meta, _, err := b.Put(context.Background(), name, bytes.NewReader(payload), int64(len(payload)))
				if err != nil {
					t.Fatal(err)
				}
				shards := paths(meta)
				orig := make([][]byte, len(shards))
				for i, p := range shards {
					if orig[i], err = os.ReadFile(p); err != nil {
						t.Fatal(err)
					}
				}
				if c.rot >= 0 {
					rotten := append([]byte(nil), orig[c.rot]...)
					rotten[2*tunit+7] ^= 0x5A
					if err := os.WriteFile(shards[c.rot], rotten, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.Remove(shards[c.lose]); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if c.cancel {
					f := func() { cancel() }
					hook.f.Store(&f)
				}
				rep := b.ScrubAll(ctx)
				if !reflect.DeepEqual(rep.Healed[name], c.healed[bname]) {
					t.Fatalf("healed %v (errors %v), want %v", rep.Healed[name], rep.Errors, c.healed[bname])
				}
				if want := c.failed[bname]; (want == nil) != (rep.Errors[name] == "") || (want != nil && !strings.Contains(rep.Errors[name], want.Error())) {
					t.Fatalf("reported failure %q, want one naming %v", rep.Errors[name], want)
				}
				if c.healed[bname] != nil {
					for i, p := range shards {
						if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, orig[i]) {
							t.Errorf("shard %d is not byte-identical to the original after repair (err %v)", i, err)
						}
					}
					return
				}
				// Nothing healed: no rebuilt shard, whole or partial, where the lost one was.
				if left, _ := filepath.Glob(shards[c.lose] + "*"); len(left) > 0 {
					t.Errorf("a repair that did not complete left %v behind", left)
				}
			})
		}
	}
}
