package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

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

func (tr hookTransport) ReplaceShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	tr.h.fire()
	return tr.Transport.(peer.Replacer).ReplaceShard(ctx, key, gen, idx, size, body)
}

// TestBackendsShareRepair: Store's and Gateway's scrubs are two
// instantiations of one shardfile repair core — scan every unit of all
// k+r shards, then repair the damaged ones — so both bring a lost shard
// back byte-identical, heal a rotten one alongside it, and, canceled
// mid-repair, leave every shard as the sweep found it: nothing new where a
// lost one was, and each rotten one still holding the stripes where it
// verifies, so even more than r of them, rotten in different stripes, are
// healed by the next sweep.
func TestBackendsShareRepair(t *testing.T) {
	const name = "obj"
	key := objKey(name)
	payload := randBytes(78, 5*4*tunit+123)
	cases := []struct {
		name   string
		lose   int   // shard removed; -1 = none
		rot    []int // shards with one flipped byte, the i'th in stripe 2+i
		cancel bool
		healed map[string][]int // by backend; nil = the sweep heals nothing
	}{
		{name: "missing shard", lose: 1,
			healed: map[string][]int{"store": {1}, "gateway": {1}}},
		{name: "rot in a survivor", lose: 5, rot: []int{0},
			healed: map[string][]int{"store": {0, 5}, "gateway": {0, 5}}},
		{name: "cancel mid-repair", lose: 3, cancel: true},
		{name: "cancel mid-repair of more than r rotten shards", lose: -1, rot: []int{0, 1, 4}, cancel: true},
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
				found := append([][]byte(nil), orig...) // what the sweep finds
				for i, s := range c.rot {
					found[s] = append([]byte(nil), orig[s]...)
					found[s][(2+i)*tunit+7] ^= 0x5A
					if err := os.WriteFile(shards[s], found[s], 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if c.lose >= 0 {
					found[c.lose] = nil
					if err := os.Remove(shards[c.lose]); err != nil {
						t.Fatal(err)
					}
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
				if msg := rep.Errors[name]; msg != "" {
					t.Fatalf("reported failure %q, want none", msg)
				}
				if c.cancel {
					// Every shard is as the sweep found it — no rebuilt shard,
					// whole or partial, where the lost one was, no temporary
					// file beside any — so the next sweep heals all of it.
					for i, p := range shards {
						got, err := os.ReadFile(p)
						if found[i] == nil && !errors.Is(err, os.ErrNotExist) {
							t.Errorf("lost shard %d is back after a repair that did not complete (err %v)", i, err)
						}
						if found[i] != nil && (err != nil || !bytes.Equal(got, found[i])) {
							t.Errorf("shard %d changed under a repair that did not complete (err %v)", i, err)
						}
						if left, _ := filepath.Glob(p + ".tmp*"); len(left) > 0 {
							t.Errorf("a repair that did not complete left %v behind", left)
						}
					}
					damaged := slices.Clone(c.rot)
					if c.lose >= 0 {
						damaged = append(damaged, c.lose)
					}
					slices.Sort(damaged)
					if rep := b.ScrubAll(context.Background()); !reflect.DeepEqual(rep.Healed[name], damaged) {
						t.Fatalf("next sweep healed %v (errors %v), want %v", rep.Healed[name], rep.Errors, damaged)
					}
				}
				for i, p := range shards {
					if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, orig[i]) {
						t.Errorf("shard %d is not byte-identical to the original after repair (err %v)", i, err)
					}
				}
				o, err := b.Open(context.Background(), name)
				if err != nil {
					t.Fatal(err)
				}
				defer o.Close()
				var got bytes.Buffer
				if _, err := o.Stream(&got); err != nil || !bytes.Equal(got.Bytes(), payload) {
					t.Errorf("read after repair: %d bytes, err %v", got.Len(), err)
				}
			})
		}
	}
}

// TestBackendsShareFront: Store and Gateway serve one object front, so the
// same request sequence — put, get, range get, read-modify-write patch,
// delete, get after delete, scrub — returns the same bytes and errors from
// either, leaves the same shared /statusz counters, and registers the same
// shared /metricsz families; and on each backend every counter both
// documents report reads the same in both.
func TestBackendsShareFront(t *testing.T) {
	ctx := context.Background()
	// Packed into a slab, a Store object is patched by read-modify-write,
	// as every Gateway object is.
	store, err := Open(StoreConfig{Root: t.TempDir(), Nodes: 6, K: 4, R: 2, UnitSize: tunit, Workers: 2, SlabThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	payload := randBytes(79, 3*4*tunit+77)
	splice := randBytes(80, 300)
	const spliceAt = 1000
	want := append([]byte(nil), payload...)
	copy(want[spliceAt:], splice)

	type shared struct{ puts, gets, rangeGets, patches, deletes, bytesIn, bytesOut int64 }
	stats := map[string]shared{}
	families := map[string]map[string]bool{}
	for _, c := range []struct {
		name string
		b    interface {
			Backend
			SetMetrics(*Metrics)
			Stats() Stats
		}
	}{{"store", store}, {"gateway", newFaultCluster(t, 6, 4, 2, 1, tunit).gw}} {
		m := NewMetrics(nil)
		c.b.SetMetrics(m)
		ts := httptest.NewServer(NewBackendHandler(c.b, Config{Metrics: m}))
		defer ts.Close()
		read := func(o ObjectStream, err error) []byte {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: open: %v", c.name, err)
			}
			defer o.Close()
			var got bytes.Buffer
			if _, err := o.Stream(&got); err != nil {
				t.Fatalf("%s: stream: %v", c.name, err)
			}
			return got.Bytes()
		}

		if _, _, err := c.b.Put(ctx, "obj", bytes.NewReader(payload), int64(len(payload))); err != nil {
			t.Fatalf("%s: put: %v", c.name, err)
		}
		if got := read(c.b.Open(ctx, "obj")); !bytes.Equal(got, payload) {
			t.Fatalf("%s: get returned %d bytes, not the payload", c.name, len(got))
		}
		if got := read(c.b.OpenRange(ctx, "obj", 700, 500)); !bytes.Equal(got, payload[700:1200]) {
			t.Fatalf("%s: range get returned the wrong bytes", c.name)
		}
		if _, ps, err := c.b.Patch(ctx, "obj", splice, spliceAt); err != nil || ps.InPlace || ps.Fallback == "" {
			t.Fatalf("%s: patch = %+v, %v; want a read-modify-write", c.name, ps, err)
		}
		if got := read(c.b.Open(ctx, "obj")); !bytes.Equal(got, want) {
			t.Fatalf("%s: get after patch returned the wrong bytes", c.name)
		}
		if err := c.b.Delete(ctx, "obj"); err != nil {
			t.Fatalf("%s: delete: %v", c.name, err)
		}
		if _, err := c.b.Open(ctx, "obj"); !errors.Is(err, ErrObjectNotFound) {
			t.Fatalf("%s: get after delete = %v, want ErrObjectNotFound", c.name, err)
		}
		resp, err := ts.Client().Get(ts.URL + "/o/obj")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: GET after delete over HTTP = %s, want 404", c.name, resp.Status)
		}
		c.b.ScrubAll(ctx)

		st := c.b.Stats()
		stats[c.name] = shared{st.Puts, st.Gets, st.RangeGets, st.Patches, st.Deletes, st.BytesIn, st.BytesOut}
		samples := scrape(t, ts)
		same := map[string]int64{
			"gemmec_bytes_in_total":            st.BytesIn,
			"gemmec_bytes_out_total":           st.BytesOut,
			"gemmec_degraded_gets_total":       st.DegradedGets,
			"gemmec_range_gets_total":          st.RangeGets,
			"gemmec_patches_total":             st.Patches,
			"gemmec_patch_fallbacks_total":     st.PatchFallbacks,
			"gemmec_scrub_cycles_total":        st.ScrubCycles,
			"gemmec_scrub_shards_healed_total": st.ShardsHealed,
			"gemmec_scrub_errors_total":        st.ScrubErrors,
			"gemmec_http_requests_shed_total":  st.RequestsShed,
		}
		if c.name == "store" {
			same["gemmec_slab_puts_total"] = st.SlabPuts
			same["gemmec_slab_flushes_total"] = st.SlabFlushes
			same["gemmec_slabs_reclaimed_total"] = st.SlabsReclaimed
			same["gemmec_scrub_orphans_removed_total"] = st.OrphansRemoved
		}
		for fam, want := range same {
			if got, ok := samples[fam]; !ok || got != float64(want) {
				t.Errorf("%s: /metricsz %s = %v (present %v), /statusz says %d", c.name, fam, got, ok, want)
			}
		}
		families[c.name] = map[string]bool{}
		for sample := range samples {
			fam, _, _ := strings.Cut(sample, "{")
			if fam == "gemmec_objects" || strings.HasPrefix(fam, "gemmec_sched_") || strings.HasPrefix(fam, "gemmec_tuner_shape_") {
				families[c.name][fam] = true
			}
		}
	}
	if stats["store"] != stats["gateway"] {
		t.Errorf("shared counters differ:\n store   %+v\n gateway %+v", stats["store"], stats["gateway"])
	}
	if !reflect.DeepEqual(families["store"], families["gateway"]) || !families["gateway"]["gemmec_tuner_shape_requests_total"] {
		t.Errorf("shared /metricsz families differ or lack the shape table:\n store   %v\n gateway %v", families["store"], families["gateway"])
	}
}
