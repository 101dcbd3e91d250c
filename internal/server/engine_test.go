package server

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
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
