package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gemmec/internal/peer"
	"gemmec/internal/server"
	"gemmec/internal/vfs"
)

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	return d
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		sorted := durations(tc.n)
		p, v := tailPercentile(sorted)
		if p != tc.want {
			t.Errorf("n=%d: picked p%g, want p%g", tc.n, p, tc.want)
		}
		if v != percentile(sorted, p) {
			t.Errorf("n=%d: value %v is not the p%g sample %v", tc.n, v, p, percentile(sorted, p))
		}
		if beyond := tc.n - int(math.Ceil(p/100*float64(tc.n))); p > 50 && beyond < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p, beyond)
		}
	}
}

func TestCycleRatesTileThePhaseAndIsolateAStall(t *testing.T) {
	start := time.Unix(0, 0)
	// One of two clients: 9 requests of 1 MB, 10 ms apart, except the 4th,
	// which stalls 90 ms more.
	var done []completion
	at := start
	for i := 0; i < 9; i++ {
		at = at.Add(10 * time.Millisecond)
		if i == 3 {
			at = at.Add(90 * time.Millisecond)
		}
		done = append(done, completion{at, 1e6})
	}
	rates := cycleRates(start, done, 2)
	if len(rates) != len(done) {
		t.Fatalf("%d rates from %d completions", len(rates), len(done))
	}
	for i, got := range rates {
		want := 2 * 1.0 / 0.010 // two clients, 1 MB per 10 ms each
		if i == 3 {
			want = 2 * 1.0 / 0.100
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("request %d ran at %v MB/s, want %v", i, got, want)
		}
	}
	if got := median(rates); got != 200 {
		t.Errorf("median = %v MB/s, want the unstalled 200", got)
	}
	// A failed request moved nothing: its cycle counts at rate 0.
	if got := cycleRates(start, []completion{{start.Add(time.Millisecond), 0}}, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("failed request = %v, want one rate of 0", got)
	}
}

func TestFreshRootIsEmptyAndAlone(t *testing.T) {
	dir := t.TempDir()
	took := spreadChildren(dir) // true on ext4, false where the flag does not exist
	if spreadChildren(filepath.Join(dir, "missing")) {
		t.Error("a directory that does not exist was reported marked")
	}
	root, err := freshRoot(dir, "store-")
	if err != nil {
		t.Fatalf("marked=%v: %v", took, err)
	}
	if ents, err := os.ReadDir(root); err != nil || len(ents) != 0 {
		t.Errorf("fresh root holds %d entries (%v), want an empty directory", len(ents), err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("%d entries beside the chosen root, want the losing candidates removed", len(ents)-1)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 50}, {70, 120}, {200, 300}, {40, 45}}
	if got := unionNS(children, parent); got != 70 {
		t.Errorf("union within parent = %d, want 70 ([10,50) + [70,100))", got)
	}
	if got := selfNS(parent, children); got != 30 {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want the whole span", got)
	}
}

func TestLinkAttachesByContainmentAndSkipsMissingLayers(t *testing.T) {
	rec := newRecorder("w")
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	rec.add(layerClient, "put", at(0), at(100), 8)     // 1
	rec.add(layerHTTP, "put", at(5), at(95), 8)        // 2
	rec.add(layerStore, "put", at(10), at(90), 8)      // 3
	rec.add(layerFS, "write", at(20), at(30), 8)       // 4
	rec.add(layerClient, "get", at(200), at(300), 8)   // 5
	rec.add(layerFS, "read", at(210), at(220), 8)      // 6: no http or store span around it
	rec.add(layerFS, "remove", at(150), at(160), 0)    // 7: between requests
	rec.add(layerLadder, "floor", at(400), at(500), 1) // 8
	rec.link()
	want := []struct{ request, parent int }{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {5, 0}, {5, 5}, {0, 0}, {0, 0}}
	for i, w := range want {
		s := rec.spans[i]
		if s.Request != w.request || s.Parent != w.parent {
			t.Errorf("span %d (%s/%s): request %d parent %d, want %d %d", s.ID, s.Layer, s.Name, s.Request, s.Parent, w.request, w.parent)
		}
	}
	puts := rec.requests("put")
	if len(puts) != 1 || len(puts[0].of(layerFS)) != 1 || len(puts[0].of(layerFS, "read")) != 0 {
		t.Errorf("requests(put) = %+v", puts)
	}
	if self := selfOf(puts[0].of(layerStore), puts[0].of(layerFS)); self != 70 {
		t.Errorf("store self = %d, want 80 - 10", self)
	}
}

func TestPayloadsAreSeededAndVerified(t *testing.T) {
	a, b := seededBytes(7, 1, 4096), seededBytes(7, 1, 4096)
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, stream) gave different bytes")
	}
	if bytes.Equal(a, seededBytes(8, 1, 4096)) || bytes.Equal(a, seededBytes(7, 2, 4096)) {
		t.Fatal("a different seed or stream gave the same bytes")
	}
	pool := [][]byte{a, seededBytes(7, 2, 4096)}
	o := &object{name: "o", index: 3}
	o.setVersion(pool, 1)
	content, err := io.ReadAll(o.reader())
	if err != nil || len(content) != 4096 {
		t.Fatalf("reader: %d bytes, %v", len(content), err)
	}
	other := &object{name: "p", index: 4}
	other.setVersion(pool, 1)
	otherContent, _ := io.ReadAll(other.reader())
	if bytes.Equal(content, otherContent) {
		t.Fatal("two keys on the same pool entry have identical content")
	}
	buf := make([]byte, 1000)
	if err := verifyBody(bytes.NewReader(content), o, 0, 4096, buf); err != nil {
		t.Errorf("own content rejected: %v", err)
	}
	if err := verifyBody(bytes.NewReader(content[4096-100:]), o, 4096-100, 100, buf); err != nil {
		t.Errorf("own tail rejected: %v", err)
	}
	if err := verifyBody(bytes.NewReader(otherContent), o, 0, 4096, buf); err == nil {
		t.Error("another key's content accepted")
	}
	flipped := append([]byte(nil), content...)
	flipped[3000] ^= 1
	if err := verifyBody(bytes.NewReader(flipped), o, 0, 4096, buf); err == nil {
		t.Error("a flipped bit accepted")
	}
	if err := verifyBody(bytes.NewReader(content[:4000]), o, 0, 4096, buf); err == nil {
		t.Error("a short body accepted")
	}
	if err := verifyBody(bytes.NewReader(append(content, 0)), o, 0, 4096, buf); err == nil {
		t.Error("a long body accepted")
	}
	patch := seededBytes(7, 9, 64)
	o.patch(10, patch) // overlaps the header
	patched, _ := io.ReadAll(o.reader())
	want := append([]byte(nil), content...)
	copy(want[10:], patch)
	if !bytes.Equal(patched, want) || !o.matches(0, want) || o.matches(0, content) {
		t.Error("patched object does not expect exactly the spliced bytes")
	}
}

func TestTracedFSPassesThrough(t *testing.T) {
	rec := newRecorder("w")
	fsys := &tracedFS{inner: vfs.OS, rec: rec}
	dir := t.TempDir()
	if _, err := fsys.Open(filepath.Join(dir, "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open(absent) = %v, want the filesystem's not-exist error", err)
	}
	if err := fsys.Rename(filepath.Join(dir, "absent"), filepath.Join(dir, "x")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Rename(absent) = %v", err)
	}
	f, err := fsys.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(make([]byte, 1234)); n != 1234 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = fsys.Open(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := io.ReadFull(f, make([]byte, 2000)); n != 1234 || err != io.ErrUnexpectedEOF {
		t.Errorf("read back %d bytes, %v", n, err)
	}
	f.Close()
	var written, read int64
	for _, s := range rec.spans {
		if s.Layer != layerFS {
			t.Errorf("span on layer %q", s.Layer)
		}
		switch s.Name {
		case "write":
			written += s.Bytes
		case "read":
			read += s.Bytes
		}
	}
	if written != 1234 || read != 1234 {
		t.Errorf("spans count %d written, %d read; want 1234 each", written, read)
	}
}

func TestTracedTransportPassesThrough(t *testing.T) {
	ps, err := server.OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := peer.NewFaultTransport(server.NewLocalTransport(ps))
	rec := newRecorder("w")
	tr := &tracedTransport{inner: faulty, rec: rec}
	ctx := context.Background()
	const key = "6b6579"
	shard := seededBytes(1, 1, 5000)
	if err := tr.PutShard(ctx, key, 1, 0, int64(len(shard)), bytes.NewReader(shard)); err != nil {
		t.Fatal(err)
	}
	if err := tr.PutShard(ctx, key, 1, 0, int64(len(shard)), bytes.NewReader(shard)); !errors.Is(err, peer.ErrShardExists) {
		t.Errorf("second PutShard = %v, want ErrShardExists unchanged", err)
	}
	if _, _, err := tr.GetShard(ctx, key, 9, 0); !errors.Is(err, peer.ErrShardNotFound) {
		t.Errorf("GetShard(absent) = %v", err)
	}
	body, size, err := tr.GetShard(ctx, key, 1, 0)
	if err != nil || size != int64(len(shard)) {
		t.Fatalf("GetShard = size %d, %v", size, err)
	}
	got, err := io.ReadAll(body)
	if err != nil || !bytes.Equal(got, shard) {
		t.Fatalf("shard body differs (%v)", err)
	}
	before := len(rec.spans)
	body.Close()
	if len(rec.spans) != before+1 {
		t.Fatal("get_shard span not recorded at Close")
	}
	if s := rec.spans[before]; s.Name != "get_shard" || s.Bytes != int64(len(shard)) {
		t.Errorf("get_shard span = %+v", s)
	}
	injected := errors.New("injected")
	faulty.AddRule(peer.FaultRule{Op: peer.OpPutMeta, Err: injected})
	if err := tr.PutMeta(ctx, key, []byte("{}")); !errors.Is(err, injected) {
		t.Errorf("PutMeta = %v, want the injected error unchanged", err)
	}
}

func TestTracedBackendAndHandlerPassThrough(t *testing.T) {
	store, err := server.Open(server.StoreConfig{Root: t.TempDir(), Nodes: nodeDirs, K: codeK, R: codeR, UnitSize: unitSize})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rec := newRecorder("w")
	b := &tracedBackend{inner: store, rec: rec, layer: layerStore}
	ctx := context.Background()
	if _, err := b.Open(ctx, "absent"); !errors.Is(err, server.ErrObjectNotFound) {
		t.Errorf("Open(absent) = %v, want ErrObjectNotFound unchanged", err)
	}
	if _, err := b.OpenRange(ctx, "absent", 0, 1); !errors.Is(err, server.ErrObjectNotFound) {
		t.Errorf("OpenRange(absent) = %v", err)
	}
	if _, _, err := b.Patch(ctx, "absent", []byte("x"), 0); !errors.Is(err, server.ErrObjectNotFound) {
		t.Errorf("Patch(absent) = %v", err)
	}
	payload := seededBytes(1, 1, 600<<10)
	h := &tracedHandler{rec: rec, layer: layerHTTP, inner: server.NewBackendHandler(b, server.Config{})}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := newClient(newTransport(1), srv.URL, rec)
	obj := &object{name: "o"}
	obj.setVersion([][]byte{payload}, 0)
	for _, op := range []opKind{opPut, opGet, opRangeGet} {
		if _, err := c.do(op, obj, 1000, 0, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	patch := seededBytes(1, 2, 100)
	if _, err := c.do(opPatch, obj, 0, 5000, patch); err != nil {
		t.Fatal(err)
	}
	obj.patch(5000, patch)
	if _, err := c.do(opGet, obj, 0, 0, nil); err != nil {
		t.Fatalf("read-back after patch: %v", err)
	}
	obj.shadow[0] ^= 1
	if _, err := c.do(opGet, obj, 0, 0, nil); err == nil {
		t.Error("a GET whose bytes differ from the expected ones passed")
	}
	resp, err := http.Get(srv.URL + "/o/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET absent through the traced handler = %d", resp.StatusCode)
	}
	rec.link()
	gets := rec.requests("get")
	if len(gets) != 3 {
		t.Fatalf("%d get requests recorded, want 3", len(gets))
	}
	q := gets[0]
	if got := sumBytes(q.of(layerHTTP)); got != int64(len(payload)) {
		t.Errorf("http span counted %d body bytes, want %d", got, len(payload))
	}
	if got := sumBytes(q.of(layerStore, "stream")); got != int64(len(payload)) {
		t.Errorf("store stream span counted %d bytes, want %d", got, len(payload))
	}
	if len(q.of(layerStore, "open")) != 1 || len(q.of(layerStore, "close")) != 1 || len(q.of(layerTTFB)) != 1 {
		t.Errorf("get request spans: %+v", q.spans)
	}
	if len(rec.counterValues("pipeline.put_write_stall_frac")) != 1 {
		t.Error("the PUT's StreamStats were not recorded")
	}
}
