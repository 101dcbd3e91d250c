package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gemmec"
)

const (
	tk    = 3
	tr    = 2
	tunit = 512
	tnode = 6
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(StoreConfig{
		Root:     t.TempDir(),
		Nodes:    tnode,
		K:        tk,
		R:        tr,
		UnitSize: tunit,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func mustPut(t *testing.T, s *Store, name string, data []byte) ObjectMeta {
	t.Helper()
	meta, _, err := s.Put(context.Background(), name, bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("put %q: %v", name, err)
	}
	return meta
}

func mustGet(t *testing.T, s *Store, name string) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	_, bad, err := s.Get(context.Background(), name, &buf)
	if err != nil {
		t.Fatalf("get %q: %v", name, err)
	}
	return buf.Bytes(), bad
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newTestStore(t)
	stripe := tk * tunit
	for i, size := range []int{0, 1, tunit - 1, stripe, 3*stripe + 17} {
		name := fmt.Sprintf("obj-%d", i)
		data := randBytes(int64(size)+3, size)
		meta := mustPut(t, s, name, data)
		if meta.Manifest.FileSize != int64(size) {
			t.Fatalf("size %d: manifest records %d", size, meta.Manifest.FileSize)
		}
		got, bad := mustGet(t, s, name)
		if len(bad) != 0 {
			t.Errorf("size %d: clean read reconstructed %v", size, bad)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: content mismatch", size)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("List = %v, want 5 objects", names)
	}
}

// Rotating placement: consecutive objects start on consecutive nodes, and
// one object never puts two shards in the same node directory.
func TestRotatingPlacement(t *testing.T) {
	s := newTestStore(t)
	starts := map[int]bool{}
	for i := 0; i < tnode; i++ {
		meta := mustPut(t, s, fmt.Sprintf("o%d", i), randBytes(int64(i), tunit))
		seen := map[int]bool{}
		for _, n := range meta.Placement {
			if seen[n] {
				t.Fatalf("object %d places two shards on node %d: %v", i, n, meta.Placement)
			}
			seen[n] = true
		}
		starts[meta.Placement[0]] = true
	}
	if len(starts) != tnode {
		t.Errorf("placement starts cover %d of %d nodes", len(starts), tnode)
	}
}

func TestOverwriteKeepsPlacementAndData(t *testing.T) {
	s := newTestStore(t)
	first := mustPut(t, s, "obj", randBytes(1, 4*tk*tunit))
	newData := randBytes(2, 2*tk*tunit+11)
	second := mustPut(t, s, "obj", newData)
	if !equalInts(first.Placement, second.Placement) {
		t.Errorf("overwrite moved object: %v -> %v", first.Placement, second.Placement)
	}
	got, _ := mustGet(t, s, "obj")
	if !bytes.Equal(got, newData) {
		t.Fatal("overwrite did not replace contents")
	}
}

// Regression: overwriting across a geometry change used to delete freshly
// written shards. Shard filenames were keyed by index only, so wherever the
// stale placement agreed with the new one at the same shard index, the
// post-commit cleanup of the old layout removed the new file. This drives
// the exact reported scenario — old k=3,r=2 at [2 3 4 0 1] overwritten by
// k=2,r=2 at [2 3 4 0], colliding at every new index — and demands the new
// bytes survive, clean, with the old generation gone.
func TestOverwriteAcrossGeometryChange(t *testing.T) {
	root := t.TempDir()
	s, err := Open(StoreConfig{Root: root, Nodes: 5, K: 3, R: 2, UnitSize: tunit, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "a", randBytes(1, tunit))
	mustPut(t, s, "b", randBytes(2, tunit))
	oldMeta := mustPut(t, s, "obj", randBytes(3, 4*3*tunit+7))
	if !equalInts(oldMeta.Placement, []int{2, 3, 4, 0, 1}) {
		t.Fatalf("setup: old placement %v, want [2 3 4 0 1]", oldMeta.Placement)
	}

	s2, err := Open(StoreConfig{Root: root, Nodes: 5, K: 2, R: 2, UnitSize: tunit, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"d", "e", "f", "g"} { // advance rotation to 2
		mustPut(t, s2, n, randBytes(int64(10+i), tunit))
	}
	newData := randBytes(4, 3*2*tunit+19)
	newMeta := mustPut(t, s2, "obj", newData)
	if !equalInts(newMeta.Placement, []int{2, 3, 4, 0}) {
		t.Fatalf("setup: new placement %v, want [2 3 4 0]", newMeta.Placement)
	}
	if newMeta.Gen != oldMeta.Gen+1 {
		t.Errorf("overwrite gen %d, want %d", newMeta.Gen, oldMeta.Gen+1)
	}

	got, bad := mustGet(t, s2, "obj")
	if !bytes.Equal(got, newData) {
		t.Fatal("overwrite across geometry change lost the new bytes")
	}
	if len(bad) != 0 {
		t.Errorf("read after overwrite reconstructed %v, want clean", bad)
	}
	for _, p := range s2.shardPaths(objKey("obj"), oldMeta) {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("old-generation shard %s survived the overwrite", p)
		}
	}
	if rep := s2.ScrubAll(context.Background()); !rep.Clean() || rep.OrphansRemoved != 0 {
		t.Fatalf("scrub after geometry-change overwrite: %+v", rep)
	}
}

// A crash between shard writes and the metadata commit strands a
// never-committed generation (likewise temp files). The committed
// generation must keep serving untouched, and the scrub sweep must reclaim
// the strays — and only the strays.
func TestScrubSweepsOrphanGenerations(t *testing.T) {
	s := newTestStore(t)
	data := randBytes(61, 3*tk*tunit+5)
	meta := mustPut(t, s, "obj", data)

	next := meta
	next.Gen++
	orphans := s.shardPaths(objKey("obj"), next)
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("stranded by a crash"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tmp := s.shardPaths(objKey("obj"), meta)[0] + ".tmp"
	if err := os.WriteFile(tmp, []byte("stranded temp"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, bad := mustGet(t, s, "obj")
	if !bytes.Equal(got, data) || len(bad) != 0 {
		t.Fatalf("orphan generation disturbed the committed one: reconstructed=%v", bad)
	}

	rep := s.ScrubAll(context.Background())
	if want := len(orphans) + 1; rep.OrphansRemoved != want {
		t.Fatalf("sweep removed %d orphans, want %d", rep.OrphansRemoved, want)
	}
	if len(rep.Healed) != 0 || len(rep.Errors) != 0 {
		t.Fatalf("sweep misread orphans as damage: %+v", rep)
	}
	for _, p := range append(orphans, tmp) {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived the sweep", p)
		}
	}
	if rep := s.ScrubAll(context.Background()); !rep.Clean() || rep.OrphansRemoved != 0 {
		t.Fatalf("second sweep not clean: %+v", rep)
	}
	if got, bad := mustGet(t, s, "obj"); !bytes.Equal(got, data) || len(bad) != 0 {
		t.Fatalf("read after sweep: reconstructed=%v", bad)
	}
}

// Corrupt metadata must not be silently replaced by Put (that would orphan
// the old shards at locations nothing records); Delete is the escape hatch
// and must clear both the broken metadata and the shard files.
func TestPutRefusesCorruptMetaDeleteClears(t *testing.T) {
	s := newTestStore(t)
	data := randBytes(71, 2*tk*tunit)
	meta := mustPut(t, s, "obj", data)
	paths := s.shardPaths(objKey("obj"), meta)
	if err := os.WriteFile(s.metaPath(objKey("obj")), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err := s.Put(context.Background(), "obj", bytes.NewReader(data), int64(len(data)))
	if err == nil || errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Put over corrupt metadata: err=%v, want a load failure", err)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("refused Put touched shard %s: %v", p, err)
		}
	}

	if err := s.Delete(context.Background(), "obj"); err != nil {
		t.Fatalf("Delete of corrupt-meta object: %v", err)
	}
	if _, err := s.Stat("obj"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Stat after delete: %v", err)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shard %s survived delete of corrupt-meta object", p)
		}
	}
}

// A v1-format manifest in an object's metadata fails closed: GET names the
// version and serves nothing, PUT refuses to overwrite what it cannot
// place, and DELETE clears the metadata and every shard file — the same
// exit any metadata that does not validate has.
func TestStoreRefusesV1Metadata(t *testing.T) {
	s := newTestStore(t)
	data := randBytes(72, 2*tk*tunit)
	meta := mustPut(t, s, "obj", data)
	paths := s.shardPaths(objKey("obj"), meta)
	v1 := meta
	v1.Manifest.Version, v1.Manifest.StripeSums = 0, nil
	raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.metaPath(objKey("obj")), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if _, _, err := s.Get(context.Background(), "obj", &out); err == nil ||
		!strings.Contains(err.Error(), "manifest version 0: only v2 manifests are readable") || out.Len() != 0 {
		t.Fatalf("Get under v1 metadata: %d bytes, err=%v; want nothing and the version named", out.Len(), err)
	}
	if _, _, err := s.Put(context.Background(), "obj", bytes.NewReader(data), int64(len(data))); err == nil ||
		!strings.Contains(err.Error(), "cannot establish current generation") {
		t.Fatalf("Put over v1 metadata: err=%v, want a refusal", err)
	}
	if err := s.Delete(context.Background(), "obj"); err != nil {
		t.Fatalf("Delete of v1 object: %v", err)
	}
	if _, err := os.Stat(s.metaPath(objKey("obj"))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("v1 metadata survived delete: %v", err)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shard %s survived delete of v1 object", p)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDeleteRemovesShards(t *testing.T) {
	s := newTestStore(t)
	meta := mustPut(t, s, "obj", randBytes(3, tk*tunit))
	paths := s.shardPaths(objKey("obj"), meta)
	if err := s.Delete(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("obj"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("Stat after delete: %v", err)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("shard %s survived delete", p)
		}
	}
	if err := s.Delete(context.Background(), "obj"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// The core resilience story at the store level: lose a whole node
// directory plus silent rot on another node, read back perfectly, scrub
// heals, and a second scrub finds nothing.
func TestDegradedReadAndScrubHeal(t *testing.T) {
	s := newTestStore(t)
	data := randBytes(7, 5*tk*tunit+123)
	meta := mustPut(t, s, "obj", data)
	paths := s.shardPaths(objKey("obj"), meta)

	// Kill the node dir holding shard 0, flip a byte in shard 1.
	if err := os.RemoveAll(s.nodeDir(meta.Placement[0])); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, paths[1])

	got, bad := mustGet(t, s, "obj")
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong bytes")
	}
	if len(bad) != 2 {
		t.Fatalf("reconstructed %v, want shards 0 and 1", bad)
	}

	rep := s.ScrubAll(context.Background())
	if got := rep.Healed["obj"]; len(got) != 2 {
		t.Fatalf("scrub healed %v, want [0 1]", got)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("scrub errors: %v", rep.Errors)
	}
	if rep := s.ScrubAll(context.Background()); !rep.Clean() {
		t.Fatalf("second scrub not clean: %+v", rep)
	}
	got, bad = mustGet(t, s, "obj")
	if len(bad) != 0 || !bytes.Equal(got, data) {
		t.Fatalf("read after heal: reconstructed=%v", bad)
	}
}

func TestTooManyFailures(t *testing.T) {
	s := newTestStore(t)
	meta := mustPut(t, s, "obj", randBytes(9, 2*tk*tunit))
	paths := s.shardPaths(objKey("obj"), meta)
	for i := 0; i <= tr; i++ { // r+1 losses: unrecoverable
		if err := os.Remove(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	_, _, err := s.Get(context.Background(), "obj", &buf)
	if !errors.Is(err, gemmec.ErrTooFewShards) {
		t.Fatalf("error %v does not wrap ErrTooFewShards", err)
	}
	rep := s.ScrubAll(context.Background())
	if len(rep.Errors) != 1 {
		t.Fatalf("scrub of unrecoverable object reported %+v", rep)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xa5
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The acceptance scenario, over a real HTTP round trip: PUT an object,
// damage up to r node directories, GET byte-identical data via degraded
// read, then scrub heals everything and reports clean afterwards.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	defer ts.Close()
	client := ts.Client()

	data := randBytes(11, 4*tk*tunit+99)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/o/e2e/demo.bin", bytes.NewReader(data))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("PUT Content-Type = %q, want application/json", ct)
	}

	get := func() ([]byte, string) {
		t.Helper()
		resp, err := client.Get(ts.URL + "/o/e2e/demo.bin")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header.Get("X-Gemmec-Degraded")
	}

	body, degraded := get()
	if !bytes.Equal(body, data) || degraded != "false" {
		t.Fatalf("clean GET: degraded=%s match=%v", degraded, bytes.Equal(body, data))
	}

	// Damage r node directories: delete one wholesale, rot a shard in
	// another.
	meta, err := s.Stat("e2e/demo.bin")
	if err != nil {
		t.Fatal(err)
	}
	paths := s.shardPaths(objKey("e2e/demo.bin"), meta)
	if err := os.RemoveAll(s.nodeDir(meta.Placement[2])); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, paths[4])

	body, degraded = get()
	if !bytes.Equal(body, data) {
		t.Fatal("degraded GET returned wrong bytes")
	}
	if degraded != "true" {
		t.Fatalf("degraded GET did not set X-Gemmec-Degraded (got %q)", degraded)
	}

	// Scrub over HTTP heals both shards...
	resp, err = client.Post(ts.URL+"/scrub", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep ScrubReport
	if err := jsonDecode(resp, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Healed["e2e/demo.bin"]; len(got) != 2 {
		t.Fatalf("scrub healed %v, want 2 shards", got)
	}
	// ...and a subsequent sweep reports the catalog clean.
	resp, err = client.Post(ts.URL+"/scrub", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var second ScrubReport
	if err := jsonDecode(resp, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Clean() {
		t.Fatalf("post-heal scrub not clean: %+v", second)
	}
	if body, degraded = get(); degraded != "false" || !bytes.Equal(body, data) {
		t.Fatalf("GET after heal: degraded=%s", degraded)
	}
}

// The single-pass read path over HTTP: in-place rot is invisible at open
// (headers say clean — no shard pre-read happened), caught by the stripe
// checksums inside the streaming decode, reconstructed around, and
// reported in the response trailers plus the degraded-GET counter. The
// body must still be byte-identical.
func TestHTTPMidStreamDemotionTrailers(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	defer ts.Close()
	client := ts.Client()

	data := randBytes(21, 6*tk*tunit+31)
	mustPut(t, s, "rot.bin", data)
	meta, err := s.Stat("rot.bin")
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.shardPaths(objKey("rot.bin"), meta)[1])

	resp, err := client.Get(ts.URL + "/o/rot.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gemmec-Degraded"); got != "false" {
		t.Fatalf("open-time degraded header = %q, want false: in-place rot must not be visible at open", got)
	}
	if got := resp.Header.Get("X-Gemmec-Size"); got != fmt.Sprint(len(data)) {
		t.Errorf("X-Gemmec-Size = %q, want %d", got, len(data))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("mid-stream demoted GET returned wrong bytes")
	}
	if got := resp.Trailer.Get("X-Gemmec-Degraded"); got != "true" {
		t.Fatalf("trailer X-Gemmec-Degraded = %q, want true after mid-stream demotion", got)
	}
	if got := resp.Trailer.Get("X-Gemmec-Reconstructed"); got != "1" {
		t.Fatalf("trailer X-Gemmec-Reconstructed = %q, want \"1\"", got)
	}
	if n := s.Stats().DegradedGets; n != 1 {
		t.Errorf("DegradedGets = %d, want 1 (clean open + mid-stream demotion)", n)
	}

	// A clean object must report clean in headers AND trailers.
	mustPut(t, s, "ok.bin", data)
	resp2, err := client.Get(ts.URL + "/o/ok.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if _, err := io.Copy(io.Discard, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if got := resp2.Trailer.Get("X-Gemmec-Degraded"); got != "false" {
		t.Errorf("clean GET trailer X-Gemmec-Degraded = %q, want false", got)
	}
	if n := s.Stats().DegradedGets; n != 1 {
		t.Errorf("DegradedGets = %d after clean GET, want still 1", n)
	}
}

// A shard truncated between open and decode (the open's length check
// passed) demotes mid-stream; the GET still returns byte-identical data
// and counts as degraded.
func TestMidStreamTruncationDuringGet(t *testing.T) {
	s := newTestStore(t)
	data := randBytes(22, 8*tk*tunit+5)
	mustPut(t, s, "trunc.bin", data)
	meta, err := s.Stat("trunc.bin")
	if err != nil {
		t.Fatal(err)
	}
	paths := s.shardPaths(objKey("trunc.bin"), meta)

	o, err := s.Open(context.Background(), "trunc.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Degraded() {
		t.Fatal("open not clean")
	}
	// The open's stat saw the full length; the decode's reads will not.
	if err := os.Truncate(paths[0], int64(tunit)+9); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatalf("stream with mid-GET truncation: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("content mismatch after mid-GET truncation")
	}
	dem := o.Demoted()
	if len(dem) != 1 || dem[0].Shard != 0 {
		t.Fatalf("Demoted = %+v, want shard 0", dem)
	}
	if !errors.Is(dem[0].Cause, gemmec.ErrCorruptShard) {
		t.Errorf("cause %v does not wrap ErrCorruptShard", dem[0].Cause)
	}
	if bad := o.Unusable(); len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("post-stream Unusable = %v, want [0]", bad)
	}
	if n := s.Stats().DegradedGets; n != 1 {
		t.Errorf("DegradedGets = %d, want 1", n)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return json.Unmarshal(b, v)
}

func TestHTTPStatusCodes(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	defer ts.Close()
	client := ts.Client()

	status := func(method, path string, body io.Reader) int {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, body)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(http.MethodGet, "/o/nope", nil); got != http.StatusNotFound {
		t.Errorf("GET unknown = %d, want 404", got)
	}
	if got := status(http.MethodPut, "/o/", bytes.NewReader([]byte("x"))); got != http.StatusBadRequest {
		t.Errorf("PUT empty name = %d, want 400", got)
	}
	if got := status(http.MethodDelete, "/o/nope", nil); got != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", got)
	}
	if got := status(http.MethodGet, "/healthz", nil); got != http.StatusOK {
		t.Errorf("GET /healthz = %d", got)
	}
	if got := status(http.MethodGet, "/statusz", nil); got != http.StatusOK {
		t.Errorf("GET /statusz = %d", got)
	}

	// Unrecoverable object: 503, and the error text names the taxonomy.
	meta := mustPut(t, s, "gone", randBytes(21, tk*tunit))
	paths := s.shardPaths(objKey("gone"), meta)
	for i := 0; i <= tr; i++ {
		os.Remove(paths[i])
	}
	if got := status(http.MethodGet, "/o/gone", nil); got != http.StatusServiceUnavailable {
		t.Errorf("GET unrecoverable = %d, want 503", got)
	}

	// HEAD reports size and degradation without a body.
	data := randBytes(22, 2*tk*tunit)
	mustPut(t, s, "head", data)
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/o/head", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(data)) {
		t.Errorf("HEAD: status %d length %d, want 200 %d", resp.StatusCode, resp.ContentLength, len(data))
	}
}

// The background scrubber must notice damage and heal it without any
// request traffic, and Stop must drain cleanly.
func TestBackgroundScrubberHeals(t *testing.T) {
	s := newTestStore(t)
	data := randBytes(31, 3*tk*tunit)
	meta := mustPut(t, s, "obj", data)
	paths := s.shardPaths(objKey("obj"), meta)
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, paths[3])

	sc := StartScrubber(s, 5*time.Millisecond, t.Logf)
	defer sc.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.Stats().ShardsHealed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrubber did not heal within deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Shards are whole again: a clean (non-degraded) read succeeds.
	got, bad := mustGet(t, s, "obj")
	if len(bad) != 0 || !bytes.Equal(got, data) {
		t.Fatalf("after background heal: reconstructed=%v", bad)
	}
}

// Race-detector workout: concurrent puts, gets, scrubs and deletes over a
// shared store (run under -race by the Makefile ci target).
func TestConcurrentTraffic(t *testing.T) {
	s := newTestStore(t)
	payload := randBytes(41, 2*tk*tunit+13)
	for i := 0; i < 4; i++ {
		mustPut(t, s, fmt.Sprintf("seed-%d", i), payload)
	}
	sc := StartScrubber(s, time.Millisecond, nil)
	defer sc.Stop()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("seed-%d", g)
			for i := 0; i < 15; i++ {
				if _, _, err := s.Put(context.Background(), name, bytes.NewReader(payload), int64(len(payload))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				var buf bytes.Buffer
				if _, _, err := s.Get(context.Background(), name, &buf); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if !bytes.Equal(buf.Bytes(), payload) {
					t.Error("content mismatch under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if rep := s.ScrubAll(context.Background()); !rep.Clean() {
		t.Fatalf("scrub after concurrent traffic: %+v", rep)
	}
}

// Reopening a store must see the existing catalog and keep rotating
// placement past it.
func TestReopen(t *testing.T) {
	root := t.TempDir()
	cfg := StoreConfig{Root: root, Nodes: tnode, K: tk, R: tr, UnitSize: tunit, Workers: 1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(51, tk*tunit+1)
	mustPut(t, s, "persist", data)

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, bad := mustGet(t, s2, "persist")
	if len(bad) != 0 || !bytes.Equal(got, data) {
		t.Fatal("reopened store lost the object")
	}
	if s2.Stats().Objects != 1 {
		t.Fatalf("reopened store sees %d objects", s2.Stats().Objects)
	}
}
