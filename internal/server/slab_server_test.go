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
	"testing"
	"time"

	"gemmec/internal/shardfile"
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
	s.pinSlab(key)
	if _, reclaimed, err := s.scrubSlab(ctx, key); err != nil || reclaimed {
		t.Fatalf("scrub of pinned slab: reclaimed=%v err=%v", reclaimed, err)
	}
	if _, err := os.Stat(s.metaPath(key)); err != nil {
		t.Fatalf("pinned slab metadata gone: %v", err)
	}
	s.unpinSlab(key)
	if _, reclaimed, err := s.scrubSlab(ctx, key); err != nil || !reclaimed {
		t.Fatalf("scrub of settled dead slab: reclaimed=%v err=%v", reclaimed, err)
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
