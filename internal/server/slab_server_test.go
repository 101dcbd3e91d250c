package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gemmec/internal/shardfile"
	"gemmec/internal/vfs"
)

// newSlabStore opens a store with the small-object packing path enabled.
func newSlabStore(t *testing.T, threshold int64) *Store {
	t.Helper()
	s, err := Open(StoreConfig{
		Root:          t.TempDir(),
		Nodes:         tnode,
		K:             tk,
		R:             tr,
		UnitSize:      tunit,
		Workers:       2,
		SlabThreshold: threshold,
		SlabWindow:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// slabPinned reports whether key's batch is still settling.
func (s *Store) slabPinned(key string) bool {
	s.mu.Lock()
	_, ok := s.pendingSlabs[key]
	s.mu.Unlock()
	return ok
}

// assertStripeSumsOnly fails unless m is what every writer commits: a
// valid v2 manifest with a per-unit CRC32C for every shard and stripe.
func assertStripeSumsOnly(t *testing.T, what string, m shardfile.Manifest) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestSlabPackUnpack is the packing path's end-to-end drill: concurrent
// small PUTs group-commit into shared slabs, read back byte-identical
// (healthy AND degraded), heal under scrub, and — once every member is
// deleted — the dead slabs are reclaimed whole.
func TestSlabPackUnpack(t *testing.T) {
	s := newSlabStore(t, 1024)
	ctx := context.Background()

	sizes := []int{0, 1, 100, 512, 777, 1024, 3, 64}
	payloads := map[string][]byte{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, sz := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("small-%d", i)
			data := randBytes(int64(100+i), sz)
			if _, _, err := s.Put(ctx, name, bytes.NewReader(data), int64(len(data))); err != nil {
				t.Errorf("put %s: %v", name, err)
				return
			}
			mu.Lock()
			payloads[name] = data
			mu.Unlock()
		}()
	}
	// A large object rides alongside and must take the direct path.
	big := randBytes(999, 4*tk*tunit+33)
	mustPut(t, s, "big", big)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	slabKeys := map[string]bool{}
	for name := range payloads {
		meta, err := s.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Slab == nil {
			t.Fatalf("%s: not packed (threshold %d, size %d)", name, 1024, len(payloads[name]))
		}
		if meta.Size() != int64(len(payloads[name])) {
			t.Fatalf("%s: Size() = %d, want %d", name, meta.Size(), len(payloads[name]))
		}
		slabKeys[meta.Slab.Key] = true
	}
	bigMeta, _ := s.Stat("big")
	if bigMeta.Slab != nil {
		t.Fatal("object over the threshold was packed")
	}
	assertStripeSumsOnly(t, "big", bigMeta.Manifest)

	st := s.Stats()
	if st.SlabPuts != int64(len(sizes)) {
		t.Fatalf("SlabPuts = %d, want %d", st.SlabPuts, len(sizes))
	}
	if st.SlabFlushes < 1 || st.SlabFlushes > int64(len(slabKeys)) {
		t.Fatalf("SlabFlushes = %d with %d slabs", st.SlabFlushes, len(slabKeys))
	}
	// Slabs are internal: the catalog lists only real objects.
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(sizes)+1 {
		t.Fatalf("List: %d names (%v), want %d members + big", len(names), names, len(sizes)+1)
	}

	check := func() {
		t.Helper()
		for name, want := range payloads {
			got, _ := mustGet(t, s, name)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: read %d bytes, want %d, content mismatch", name, len(got), len(want))
			}
		}
	}
	check()

	// Lose one shard of every slab: member reads must go degraded and stay
	// byte-identical, and one scrub sweep must heal each slab in place.
	for key := range slabKeys {
		slabMeta, err := s.loadMeta(key)
		if err != nil {
			t.Fatal(err)
		}
		assertStripeSumsOnly(t, "slab "+key, slabMeta.Manifest)
		if err := os.Remove(s.shardPaths(key, slabMeta)[0]); err != nil {
			t.Fatal(err)
		}
	}
	check()
	rep := s.ScrubAll(ctx)
	for key := range slabKeys {
		if len(rep.Healed[key]) != 1 {
			t.Fatalf("scrub healed %v for slab %s, want shard 0", rep.Healed[key], key)
		}
	}
	if len(rep.Errors) != 0 {
		// Members have no shard set of their own; the sweep must not try
		// to scrub them as regular objects.
		t.Fatalf("scrub reported errors: %v", rep.Errors)
	}
	check()

	// Overwriting a member with a large body converts it to a direct
	// object; the slab keeps the dead window until reclamation.
	if _, _, err := s.Put(ctx, "small-0", bytes.NewReader(big), int64(len(big))); err != nil {
		t.Fatal(err)
	}
	if meta, _ := s.Stat("small-0"); meta.Slab != nil {
		t.Fatal("overwritten member still packed")
	}
	got, _ := mustGet(t, s, "small-0")
	if !bytes.Equal(got, big) {
		t.Fatal("overwritten member content mismatch")
	}

	// Delete the remaining members: with zero live windows every slab is
	// pure garbage, and the next sweep reclaims them whole.
	for name := range payloads {
		if name == "small-0" {
			continue
		}
		if err := s.Delete(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	rep = s.ScrubAll(ctx)
	if rep.SlabsReclaimed != len(slabKeys) {
		t.Fatalf("reclaimed %d slabs, want %d", rep.SlabsReclaimed, len(slabKeys))
	}
	for key := range slabKeys {
		if _, err := os.Stat(s.metaPath(key)); !os.IsNotExist(err) {
			t.Fatalf("slab %s metadata survived reclamation (err=%v)", key, err)
		}
	}
	if got := s.Stats().SlabsReclaimed; got != int64(len(slabKeys)) {
		t.Fatalf("Stats.SlabsReclaimed = %d, want %d", got, len(slabKeys))
	}
	// Everything still standing reads clean.
	got, _ = mustGet(t, s, "big")
	if !bytes.Equal(got, big) {
		t.Fatal("big object content mismatch after reclamation")
	}
}

// TestScrubSkipsPinnedSlab pins down the slab-commit race the scrubber
// must not lose: between a batch's slab commit and its members' own
// metadata commits, the slab has zero on-disk references, and a sweep in
// that window must skip it (pinned) rather than reclaim it out from
// under PUTs that are about to be acknowledged.
func TestScrubSkipsPinnedSlab(t *testing.T) {
	s := newSlabStore(t, 1024)
	ctx := context.Background()

	data := []byte("pinned")
	mustPut(t, s, "member", data)
	meta, err := s.Stat("member")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Slab == nil {
		t.Fatal("member not packed")
	}
	key := meta.Slab.Key

	// Recreate the commit window: slab on disk, no member metadata
	// referencing it. From the scrubber's view this is indistinguishable
	// from a dead slab — only the pin says the references are in flight.
	if err := s.Delete(ctx, "member"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.pendingSlabs[key]++
	s.mu.Unlock()
	if rep := s.ScrubAll(ctx); rep.SlabsReclaimed != 0 || len(rep.Errors) != 0 {
		t.Fatalf("sweep over pinned slab: reclaimed %d, errors %v", rep.SlabsReclaimed, rep.Errors)
	}
	if _, err := os.Stat(s.metaPath(key)); err != nil {
		t.Fatalf("pinned slab metadata gone: %v", err)
	}
	s.unpinSlab(key)
	if rep := s.ScrubAll(ctx); rep.SlabsReclaimed != 1 || len(rep.Errors) != 0 {
		t.Fatalf("sweep over settled dead slab: reclaimed %d, errors %v", rep.SlabsReclaimed, rep.Errors)
	}
}

// TestSlabPutScrubRace races packed PUTs against continuous scrub sweeps:
// every acknowledged PUT must read back byte-identical afterwards, i.e. no
// sweep may have reclaimed a slab whose batch was still committing member
// metadata (the window TestScrubSkipsPinnedSlab isolates).
func TestSlabPutScrubRace(t *testing.T) {
	s := newSlabStore(t, 1024)
	ctx := context.Background()

	stop := make(chan struct{})
	var scrubWG sync.WaitGroup
	scrubWG.Add(1)
	go func() {
		defer scrubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.ScrubAll(ctx)
			}
		}
	}()

	const writers, puts = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				name := fmt.Sprintf("race-%d-%d", w, i)
				data := randBytes(int64(w*1000+i), 64+i)
				if _, _, err := s.Put(ctx, name, bytes.NewReader(data), int64(len(data))); err != nil {
					t.Errorf("put %s: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrubWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < puts; i++ {
			name := fmt.Sprintf("race-%d-%d", w, i)
			got, _ := mustGet(t, s, name)
			if !bytes.Equal(got, randBytes(int64(w*1000+i), 64+i)) {
				t.Fatalf("%s: content mismatch after scrub race", name)
			}
		}
	}
}

// TestSlabOverHTTP drives packed objects through the real handler: PUT,
// GET (body + X-Gemmec-Size), HEAD Content-Length, catalog size, DELETE.
func TestSlabOverHTTP(t *testing.T) {
	s := newSlabStore(t, 1024)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	defer ts.Close()
	client := ts.Client()

	data := randBytes(7, 300)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/o/tiny", bytes.NewReader(data))
	req.ContentLength = int64(len(data))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var pr putResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || pr.Size != int64(len(data)) {
		t.Fatalf("put: status %d, size %d (want 201, %d)", resp.StatusCode, pr.Size, len(data))
	}

	resp, err = client.Get(ts.URL + "/o/tiny")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, data) {
		t.Fatalf("get: %d bytes, want %d", len(body), len(data))
	}
	if got := resp.Header.Get("X-Gemmec-Size"); got != "300" {
		t.Fatalf("X-Gemmec-Size = %q, want 300", got)
	}

	resp, err = client.Head(ts.URL + "/o/tiny")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Content-Length"); got != "300" {
		t.Fatalf("HEAD Content-Length = %q, want 300", got)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/o/tiny", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
}

// TestAdmissionControl429: past the scheduler's MaxStreams bound the
// streaming routes shed with 429 + Retry-After and the shed counter moves
// — while /healthz, /metricsz, /statusz and HEAD keep answering, because
// a saturated server must stay observable.
func TestAdmissionControl429(t *testing.T) {
	s, err := Open(StoreConfig{
		Root: t.TempDir(), Nodes: tnode, K: tk, R: tr, UnitSize: tunit,
		Workers: 1, MaxStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	m := NewMetrics(nil)
	s.SetMetrics(m)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf, Metrics: m}))
	defer ts.Close()
	client := ts.Client()

	data := randBytes(3, tk*tunit)
	mustPut(t, s, "x", data) // direct store API is not gated

	// Occupy the only admission slot; every gated request must now shed.
	if err := s.Scheduler().Admit(); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(s.Scheduler().Release)
	defer release()

	resp, err := client.Get(ts.URL + "/o/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated GET: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/o/y", bytes.NewReader(data))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated PUT: status %d, want 429", resp.StatusCode)
	}

	// The bypass set: probes, scrapes, metadata — and HEAD, which streams
	// no payload.
	for _, path := range []string{"/healthz", "/metricsz", "/statusz", "/objects"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("saturated GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if path == "/statusz" {
			var st Stats
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.RequestsShed < 2 {
				t.Fatalf("statusz requests_shed = %d, want >= 2", st.RequestsShed)
			}
		}
		if path == "/metricsz" && !strings.Contains(string(body), "gemmec_http_requests_shed_total 2") {
			t.Fatalf("metricsz missing shed counter:\n%s", body)
		}
	}
	resp, err = client.Head(ts.URL + "/o/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated HEAD: status %d, want 200", resp.StatusCode)
	}

	// Slot released: traffic flows again.
	release()
	resp, err = client.Get(ts.URL + "/o/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("post-release GET: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestSlowGetsDontStarvePut: with GET traffic saturating the shared pool,
// a PUT still completes promptly — the scheduler's round-robin dispatch
// gives every stream a slice of the workers instead of draining the
// longest queue first.
func TestSlowGetsDontStarvePut(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	large := randBytes(17, 8*tk*tunit)
	mustPut(t, s, "hot", large)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.Get(ctx, "hot", io.Discard); err != nil {
					t.Errorf("background get: %v", err)
					return
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Put(ctx, "fresh", bytes.NewReader(large), int64(len(large)))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("put under load: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("PUT starved behind GET traffic on the shared pool")
	}
	close(stop)
	wg.Wait()
}

// TestBoundedGoroutinesUnderLoad: 32 concurrent streaming requests on a
// 4-worker store must not multiply kernel goroutines per request — the
// pre-scheduler design spawned Workers goroutines per call (~160 extra
// here); the shared pool keeps the overhead to roughly one reader
// goroutine per in-flight stream plus the fixed pool.
func TestBoundedGoroutinesUnderLoad(t *testing.T) {
	s, err := Open(StoreConfig{
		Root: t.TempDir(), Nodes: tnode, K: tk, R: tr, UnitSize: tunit, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	base := runtime.NumGoroutine()

	peak := base
	sampleStop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-sampleStop:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := randBytes(int64(i), 4*tk*tunit+int(i))
			name := fmt.Sprintf("obj-%d", i)
			for pass := 0; pass < 3; pass++ {
				if _, _, err := s.Put(ctx, name, bytes.NewReader(data), int64(len(data))); err != nil {
					t.Errorf("put %s: %v", name, err)
					return
				}
				if _, _, err := s.Get(ctx, name, io.Discard); err != nil {
					t.Errorf("get %s: %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(sampleStop)
	<-sampled

	// 32 callers + ~1 pipeline reader each + the 4-worker pool, with slack
	// for the runtime: anything near the legacy ~4-per-request blowup
	// (128+ kernel workers alone) fails.
	if limit := base + 110; peak > limit {
		t.Fatalf("goroutine peak %d (baseline %d) exceeds %d — per-request worker sets are back",
			peak, base, limit)
	}
}

// TestReservedSlabKeysHidden is the catalog-hygiene regression test: the
// slab packer's reserved "slab_<n>" carrier objects must never leak into
// /objects, StatAll, or direct GETs, while the user objects packed inside
// them list normally.
func TestReservedSlabKeysHidden(t *testing.T) {
	s, err := Open(StoreConfig{
		Root:          t.TempDir(),
		Nodes:         tnode,
		K:             tk,
		R:             tr,
		UnitSize:      tunit,
		Workers:       2,
		SlabThreshold: 1024,
		SlabWindow:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)

	names := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("tiny-%d", i)
		names[name] = randBytes(int64(i), 200+i)
		mustPut(t, s, name, names[name])
	}

	// The packer really did create reserved slab carriers.
	slabKey := ""
	for name := range names {
		meta, err := s.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Slab == nil {
			t.Fatalf("%s was not packed — slab path not exercised", name)
		}
		if !strings.HasPrefix(meta.Slab.Key, "slab_") {
			t.Fatalf("%s packed into non-reserved key %q", name, meta.Slab.Key)
		}
		slabKey = meta.Slab.Key
	}

	// StatAll: every user object, no carriers.
	metas, err := s.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(names) {
		t.Fatalf("StatAll returned %d objects, want %d", len(metas), len(names))
	}
	for _, m := range metas {
		if strings.HasPrefix(m.Name, "slab_") {
			t.Fatalf("StatAll leaked reserved key %q", m.Name)
		}
		if _, ok := names[m.Name]; !ok {
			t.Fatalf("StatAll invented object %q", m.Name)
		}
	}

	// /objects: same contract over HTTP.
	resp, err := http.Get(ts.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(names) {
		t.Fatalf("/objects returned %d entries, want %d", len(list), len(names))
	}
	for _, e := range list {
		if strings.HasPrefix(e.Name, "slab_") {
			t.Fatalf("/objects leaked reserved key %q", e.Name)
		}
	}

	// A reserved carrier key is not addressable as an object.
	gresp, err := http.Get(ts.URL + "/o/" + slabKey)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body) //nolint:errcheck
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /o/%s = %d, want 404 (reserved keys are not client objects)", slabKey, gresp.StatusCode)
	}
}

// readCountFS counts the shard bytes read through it. It forwards Stat,
// so a read plan's probe takes the one-stat path it takes on vfs.OS.
type readCountFS struct {
	vfs.FS
	n atomic.Int64
}

func (fs *readCountFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return readCountFile{File: f, n: &fs.n}, nil
}

func (fs *readCountFS) Stat(name string) (os.FileInfo, error) { return vfs.Stat(fs.FS, name) }

type readCountFile struct {
	vfs.File
	n *atomic.Int64
}

func (f readCountFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n.Add(int64(n))
	return n, err
}

// TestSlabMemberReadsItsUnit: slabs are coded in slabUnit units whatever
// UnitSize the store codes its own objects in, and the slab's manifest
// says so; a clean GET of a 4 KiB member then reads the one unit it lives
// in, not a 128 KiB one.
func TestSlabMemberReadsItsUnit(t *testing.T) {
	fs := &readCountFS{FS: vfs.OS}
	s, err := Open(StoreConfig{
		Root: t.TempDir(), Nodes: tnode, K: tk, R: tr, UnitSize: 128 << 10, Workers: 2,
		SlabThreshold: 64 << 10, SlabWindow: 20 * time.Millisecond, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const members, size = 8, 4 << 10
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := randBytes(int64(200+i), size)
			if _, _, err := s.Put(context.Background(), fmt.Sprintf("m-%d", i), bytes.NewReader(data), size); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < members; i++ {
		name := fmt.Sprintf("m-%d", i)
		meta, err := s.Stat(name)
		if err != nil || meta.Slab == nil {
			t.Fatalf("%s: not packed (err=%v)", name, err)
		}
		slabMeta, err := s.loadMeta(meta.Slab.Key)
		if err != nil {
			t.Fatal(err)
		}
		if got := slabMeta.Manifest.UnitSize; got != slabUnit {
			t.Errorf("slab %s coded in %d-byte units, want %d", meta.Slab.Key, got, slabUnit)
		}
		fs.n.Store(0)
		got, bad := mustGet(t, s, name)
		if !bytes.Equal(got, randBytes(int64(200+i), size)) || len(bad) != 0 {
			t.Fatalf("%s: content mismatch (unusable %v)", name, bad)
		}
		if n := fs.n.Load(); n > slabUnit {
			t.Errorf("%s: a clean %d-byte member GET read %d shard bytes, want at most one %d-byte unit",
				name, size, n, slabUnit)
		}
	}
}

// TestSlabsInOtherUnitsStillRead: the unit size is the slab manifest's,
// not the store's, so a slab coded in the store's UnitSize — as every slab
// was before slabs had a unit of their own — serves its members
// byte-identically, healthy and degraded.
func TestSlabsInOtherUnitsStillRead(t *testing.T) {
	s := newSlabStore(t, 64<<10)
	ctx := context.Background()
	a, b := randBytes(51, 3000), randBytes(52, 5000)
	payload := append(append([]byte{}, a...), b...)
	const key = "slab_1000"
	meta := ObjectMeta{Name: key, Gen: 1, Placement: s.placement()}
	paths := s.shardPaths(key, meta)
	m, _, err := shardfile.WriteStreamPaths(paths, bytes.NewReader(payload), int64(len(payload)),
		tk, tr, tunit, 0, s.fileOpts(ctx))
	if err != nil {
		t.Fatal(err)
	}
	meta.Manifest = m
	if err := s.saveMeta(key, meta); err != nil {
		t.Fatal(err)
	}
	for name, ref := range map[string]SlabRef{"a": {Key: key, Offset: 0, Size: 3000}, "b": {Key: key, Offset: 3000, Size: 5000}} {
		if err := s.saveMeta(objKey(name), ObjectMeta{Name: name, Gen: 1, Slab: &ref}); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		t.Helper()
		for name, want := range map[string][]byte{"a": a, "b": b} {
			if got, _ := mustGet(t, s, name); !bytes.Equal(got, want) {
				t.Fatalf("%s: %d bytes back from a %d-byte-unit slab, content mismatch", name, len(got), tunit)
			}
		}
	}
	check()
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestSlabUnpinnedWhenBatchReturns: a slab's pin lasts while some member
// of its batch has not settled, and no longer — once every PUT of a batch
// has returned, a scrub may already reclaim or heal the slab.
func TestSlabUnpinnedWhenBatchReturns(t *testing.T) {
	s := newSlabStore(t, 1024)
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		names := make([]string, 6)
		for i := range names {
			names[i] = fmt.Sprintf("pin-%d-%d", round, i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				data := randBytes(int64(round*10+i), 100)
				if _, _, err := s.Put(ctx, names[i], bytes.NewReader(data), int64(len(data))); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for _, name := range names {
			meta, err := s.Stat(name)
			if err != nil || meta.Slab == nil {
				t.Fatalf("%s: not packed (err=%v)", name, err)
			}
			if s.slabPinned(meta.Slab.Key) {
				t.Fatalf("round %d: slab %s still pinned after every PUT of its batch returned", round, meta.Slab.Key)
			}
		}
	}
	s.mu.Lock()
	left := len(s.pendingSlabs)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d slab pins outlived their batches", left)
	}
}

// TestSlabReclaimRace races small PUTs and deletes against back-to-back
// sweeps, so slabs are flushed, settle and die while a sweep reads the
// slab allocator, lists meta/ and walks the members. A sweep may reclaim
// only slabs no member can still come to refer to: every acknowledged
// member must read back byte-identical afterwards, and once no member
// refers to any slab, a later sweep must reclaim every one of them.
func TestSlabReclaimRace(t *testing.T) {
	s := newSlabStore(t, 1024)
	ctx := context.Background()

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if rep := s.ScrubAll(ctx); len(rep.Errors) != 0 {
					t.Errorf("sweep during the race: %v", rep.Errors)
				}
			}
		}
	}()

	const writers, puts = 4, 20
	name := func(w, i int) string { return fmt.Sprintf("reclaim-%d-%d", w, i) }
	data := func(w, i int) []byte { return randBytes(int64(w*1000+i), 32+i) }
	deleted := func(i int) bool { return i%3 == 1 }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				b := data(w, i)
				if _, _, err := s.Put(ctx, name(w, i), bytes.NewReader(b), int64(len(b))); err != nil {
					t.Errorf("put %s: %v", name(w, i), err)
					return
				}
				// Kill a member as soon as its successor lands, so slabs
				// die while later ones are still settling.
				if i > 0 && deleted(i-1) {
					if err := s.Delete(ctx, name(w, i-1)); err != nil {
						t.Errorf("delete %s: %v", name(w, i-1), err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < puts; i++ {
			if deleted(i) && i < puts-1 {
				continue
			}
			if got, _ := mustGet(t, s, name(w, i)); !bytes.Equal(got, data(w, i)) {
				t.Fatalf("%s: content mismatch after the reclaim race", name(w, i))
			}
			if err := s.Delete(ctx, name(w, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep := s.ScrubAll(ctx); len(rep.Errors) != 0 {
		t.Fatalf("final sweep: %v", rep.Errors)
	}
	cat, err := s.readCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.slabs) != 0 {
		t.Fatalf("%d dead slabs survived a sweep with no member left: %v", len(cat.slabs), cat.slabs)
	}
	if got, want := s.Stats().SlabsReclaimed, s.Stats().SlabFlushes; got != want {
		t.Fatalf("reclaimed %d slabs of %d flushed", got, want)
	}
}

// TestSweepLeavesSlabsPastItsSnapshot freezes the other half of the
// flush race TestSlabReclaimRace runs: a slab committed after the sweep
// read the slab allocator, whose members have not committed yet. It has
// no pin the sweep saw and no member referring to it, so only its number
// — past what the allocator had handed out — keeps the sweep off it. Once
// the allocator has counted it, a later sweep reclaims it.
func TestSweepLeavesSlabsPastItsSnapshot(t *testing.T) {
	s := newSlabStore(t, 1024)
	ctx := context.Background()
	mustPut(t, s, "member", []byte("settled"))
	s.mu.Lock()
	key := fmt.Sprintf("slab_%d", s.slabSeq+1)
	s.mu.Unlock()
	payload := randBytes(71, 500)
	meta := ObjectMeta{Name: key, Gen: 1, Placement: s.placement()}
	m, _, err := shardfile.WriteStreamPaths(s.shardPaths(key, meta), bytes.NewReader(payload), int64(len(payload)),
		tk, tr, slabUnit, 0, s.fileOpts(ctx))
	if err != nil {
		t.Fatal(err)
	}
	meta.Manifest = m
	if err := s.saveMeta(key, meta); err != nil {
		t.Fatal(err)
	}
	if rep := s.ScrubAll(ctx); rep.SlabsReclaimed != 0 || len(rep.Errors) != 0 {
		t.Fatalf("sweep reclaimed %d slabs (errors %v); %s is past the allocator", rep.SlabsReclaimed, rep.Errors, key)
	}
	if _, err := os.Stat(s.metaPath(key)); err != nil {
		t.Fatalf("slab past the allocator reclaimed: %v", err)
	}
	if got := s.newSlab(nil); got != key {
		t.Fatalf("allocator handed out %s, want %s", got, key)
	}
	s.unpinSlab(key)
	if rep := s.ScrubAll(ctx); rep.SlabsReclaimed != 1 || len(rep.Errors) != 0 {
		t.Fatalf("sweep after the allocator counted %s reclaimed %d slabs (errors %v), want 1", key, rep.SlabsReclaimed, rep.Errors)
	}
}

// TestSlabWithMemberListStillServes: a slab whose metadata still carries
// the member list older stores wrote into slab manifests ("slab": [{name,
// offset, size}], since dropped) opens, serves its members byte-identical,
// healthy and degraded, and is reclaimed once no member refers to it.
func TestSlabWithMemberListStillServes(t *testing.T) {
	cfg := StoreConfig{Root: t.TempDir(), Nodes: tnode, K: tk, R: tr, UnitSize: tunit, Workers: 2,
		SlabThreshold: 1024, SlabWindow: 50 * time.Millisecond}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	members := map[string][]byte{"old-a": randBytes(61, 300), "old-b": randBytes(62, 700)}
	var wg sync.WaitGroup
	for name, b := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Put(ctx, name, bytes.NewReader(b), int64(len(b))); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s.Close()
	if t.Failed() {
		t.FailNow()
	}

	// Rewrite the slab's metadata file as the older format had it: the
	// manifest lists each member's key and window.
	refs := map[string]*SlabRef{}
	for name := range members {
		var m ObjectMeta
		b, err := os.ReadFile(s.metaPath(objKey(name)))
		if err == nil {
			err = json.Unmarshal(b, &m)
		}
		if err != nil || m.Slab == nil {
			t.Fatalf("%s: not packed (err=%v)", name, err)
		}
		refs[name] = m.Slab
	}
	key := refs["old-a"].Key
	if refs["old-b"].Key != key {
		t.Fatalf("members landed in two slabs, %s and %s", key, refs["old-b"].Key)
	}
	var doc map[string]any
	b, err := os.ReadFile(s.metaPath(key))
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil {
		t.Fatal(err)
	}
	var list []any
	for name, ref := range refs {
		list = append(list, map[string]any{"name": objKey(name), "offset": ref.Offset, "size": ref.Size})
	}
	doc["manifest"].(map[string]any)["slab"] = list
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"slab":[{`)) {
		t.Fatalf("rewritten slab metadata carries no member list: %s", b)
	}
	if err := os.WriteFile(s.metaPath(key), b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	check := func() {
		t.Helper()
		for name, want := range members {
			if got, _ := mustGet(t, s, name); !bytes.Equal(got, want) {
				t.Fatalf("%s: %d bytes back from an old-format slab, content mismatch", name, len(got))
			}
		}
	}
	check()
	slabMeta, err := s.loadMeta(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.shardPaths(key, slabMeta)[0]); err != nil {
		t.Fatal(err)
	}
	check()
	if rep := s.ScrubAll(ctx); rep.SlabsReclaimed != 0 || len(rep.Healed[key]) != 1 {
		t.Fatalf("sweep with live members: reclaimed %d, healed %v", rep.SlabsReclaimed, rep.Healed)
	}
	check()

	for name := range members {
		if err := s.Delete(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if rep := s.ScrubAll(ctx); rep.SlabsReclaimed != 1 {
		t.Fatalf("sweep after every member's delete reclaimed %d slabs, want 1", rep.SlabsReclaimed)
	}
	if _, err := os.Stat(s.metaPath(key)); !os.IsNotExist(err) {
		t.Fatalf("old-format slab metadata survived reclamation (err=%v)", err)
	}
	for _, p := range s.shardPaths(key, slabMeta) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("old-format slab shard %s survived reclamation (err=%v)", p, err)
		}
	}
}

// TestSlabOverwriteDropsPatchJournal: a packed PUT over an object with its
// own shard set removes a patch journal stranded for that set, while a
// packed PUT over a packed member has no journal to clear and touches
// none; and a packed PUT still recreates a wiped node directory, through
// the slab flusher.
func TestSlabOverwriteDropsPatchJournal(t *testing.T) {
	s := newSlabStore(t, 1024)
	key := objKey("obj")
	journal := s.patchJournalPath(key)
	strand := func() {
		t.Helper()
		for _, p := range []string{journal, journal + ".tmp"} {
			if err := os.WriteFile(p, []byte("stranded by a crash"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}

	if meta := mustPut(t, s, "obj", randBytes(160, 4*tk*tunit)); meta.Slab != nil {
		t.Fatal("large object packed into a slab")
	}
	strand()
	if meta := mustPut(t, s, "obj", randBytes(161, 100)); meta.Slab == nil {
		t.Fatal("small overwrite not packed")
	}
	if exists(journal) || exists(journal+".tmp") {
		t.Fatal("packed overwrite of a shard set left its patch journal behind")
	}

	// A packed member has no journal of its own: the next packed PUT makes
	// no journal call, so a file planted at the journal path survives it.
	strand()
	if err := os.RemoveAll(s.nodeDir(0)); err != nil {
		t.Fatal(err)
	}
	want := randBytes(162, 200)
	if meta := mustPut(t, s, "obj", want); meta.Slab == nil {
		t.Fatal("small overwrite not packed")
	}
	if !exists(journal) || !exists(journal+".tmp") {
		t.Fatal("packed overwrite of a packed member made a journal call")
	}
	if !exists(s.nodeDir(0)) {
		t.Fatal("packed PUT did not recreate the wiped node directory")
	}
	if got, _ := mustGet(t, s, "obj"); !bytes.Equal(got, want) {
		t.Fatal("packed overwrite returned wrong bytes")
	}
}
