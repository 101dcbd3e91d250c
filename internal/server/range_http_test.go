package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gemmec/internal/faultfs"
	"gemmec/internal/vfs"
)

// getRange GETs name with a raw Range header value and returns the
// response and body without asserting a status.
func getRange(t *testing.T, base, name, rangeHdr string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/o/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s range %q: body: %v", name, rangeHdr, err)
	}
	return resp, b
}

// TestHTTPRangeGet drives the Range surface of the store-backed handler:
// well-formed single ranges answer 206 with Content-Range and exactly the
// window; malformed, multi-range and non-bytes headers are ignored per
// RFC 9110 (200, full body); windows with no satisfiable byte answer 416
// with the size hint.
func TestHTTPRangeGet(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)
	data := randBytes(3, 3*tk*tunit+77)
	n := int64(len(data))
	mustPut(t, s, "obj", data)

	ranged := []struct {
		hdr       string
		off, last int64
	}{
		{"bytes=0-0", 0, 0},
		{"bytes=5-140", 5, 140},
		{fmt.Sprintf("bytes=%d-%d", n-1, n-1), n - 1, n - 1},
		{fmt.Sprintf("bytes=%d-", n-300), n - 300, n - 1}, // open-ended
		{"bytes=-64", n - 64, n - 1},                      // suffix
		{fmt.Sprintf("bytes=100-%d", n+500), 100, n - 1},  // end clamped
	}
	for _, tc := range ranged {
		resp, body := getRange(t, ts.URL, "obj", tc.hdr)
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%q: status %s, want 206", tc.hdr, resp.Status)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", tc.off, tc.last, n)
		if cr := resp.Header.Get("Content-Range"); cr != wantCR {
			t.Fatalf("%q: Content-Range %q, want %q", tc.hdr, cr, wantCR)
		}
		if !bytes.Equal(body, data[tc.off:tc.last+1]) {
			t.Fatalf("%q: body mismatch (%d bytes)", tc.hdr, len(body))
		}
		if resp.Header.Get("Accept-Ranges") != "bytes" {
			t.Fatalf("%q: missing Accept-Ranges: bytes", tc.hdr)
		}
	}

	// Ignored per RFC 9110: the request succeeds with the full body.
	for _, hdr := range []string{
		"bytes=1-0",     // last < first
		"bytes=a-b",     // not integers
		"bytes=0-1,4-5", // multi-range
		"chunks=0-5",    // unknown unit
		"bytes;0-5",     // malformed
		"bytes=--5",     // malformed suffix
	} {
		resp, body := getRange(t, ts.URL, "obj", hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %s, want 200 (header ignored)", hdr, resp.Status)
		}
		if resp.Header.Get("Content-Range") != "" {
			t.Fatalf("%q: unexpected Content-Range on ignored header", hdr)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("%q: expected the full body", hdr)
		}
	}

	// Unsatisfiable: no byte of the window exists.
	for _, hdr := range []string{
		fmt.Sprintf("bytes=%d-", n),
		fmt.Sprintf("bytes=%d-%d", n+5, n+9),
		"bytes=-0",
	} {
		resp, _ := getRange(t, ts.URL, "obj", hdr)
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("%q: status %s, want 416", hdr, resp.Status)
		}
		if cr, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes */%d", n); cr != want {
			t.Fatalf("%q: Content-Range %q, want %q", hdr, cr, want)
		}
	}

	// HEAD ignores Range and describes the whole object.
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/o/obj", nil)
	req.Header.Set("Range", "bytes=0-0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Length") != strconv.FormatInt(n, 10) {
		t.Fatalf("HEAD with Range: %s, Content-Length %q", resp.Status, resp.Header.Get("Content-Length"))
	}
}

// TestHTTPRangeGetDegraded: a ranged GET of an object with a lost shard
// still serves the exact window, flagged degraded.
func TestHTTPRangeGetDegraded(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)
	data := randBytes(5, 4*tk*tunit)
	meta := mustPut(t, s, "obj", data)
	if err := os.Remove(s.shardPaths(objKey("obj"), meta)[0]); err != nil {
		t.Fatal(err)
	}

	resp, body := getRange(t, ts.URL, "obj", "bytes=-100")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("degraded suffix GET: %s", resp.Status)
	}
	if !bytes.Equal(body, data[len(data)-100:]) {
		t.Fatal("degraded suffix GET: body mismatch")
	}
	if resp.Header.Get("X-Gemmec-Degraded") != "true" {
		t.Fatal("degraded ranged GET not flagged")
	}
}

// TestHTTPRangeGetSlabMember: Range works on packed small objects — the
// window composes with the member's slab offset.
func TestHTTPRangeGetSlabMember(t *testing.T) {
	s := newSlabStore(t, 2048)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)
	data := randBytes(7, 900)
	mustPut(t, s, "small", data)

	resp, body := getRange(t, ts.URL, "small", "bytes=100-299")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("slab ranged GET: %s", resp.Status)
	}
	if want := fmt.Sprintf("bytes 100-299/%d", len(data)); resp.Header.Get("Content-Range") != want {
		t.Fatalf("slab Content-Range %q, want %q", resp.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(body, data[100:300]) {
		t.Fatal("slab ranged GET: body mismatch")
	}
}

// doPatch PATCHes name through the handler, positioning via Content-Range
// (off >= 0) or X-Gemmec-Append (off < 0).
func doPatch(t *testing.T, base, name string, data []byte, off int64) (*http.Response, patchResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, base+"/o/"+name, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(data))
	if off < 0 {
		req.Header.Set("X-Gemmec-Append", "true")
	} else {
		req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", off, off+int64(len(data))-1))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr patchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("PATCH %s: decode response: %v", name, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, pr
}

// TestHTTPPatch drives PATCH end to end: a mid-object splice lands in
// place (stripe-granular), an append grows the object, and the spliced
// payload reads back byte-identical through GET.
func TestHTTPPatch(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)
	data := randBytes(11, 4*tk*tunit+100)
	mustPut(t, s, "obj", data)

	splice := randBytes(12, 200)
	off := int64(tk*tunit - 50) // straddles a stripe boundary
	resp, pr := doPatch(t, ts.URL, "obj", splice, off)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %s", resp.Status)
	}
	if !pr.InPlace || pr.TouchedStripes != 2 || pr.Offset != off {
		t.Fatalf("PATCH stats = %+v, want in-place, 2 touched stripes at %d", pr, off)
	}
	if pr.DataBytes <= 0 || pr.ParityBytes <= 0 {
		t.Fatalf("PATCH wrote data=%d parity=%d bytes", pr.DataBytes, pr.ParityBytes)
	}
	copy(data[off:], splice)

	tail := randBytes(13, 333)
	resp, pr = doPatch(t, ts.URL, "obj", tail, -1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append PATCH: %s", resp.Status)
	}
	if !pr.InPlace || pr.Offset != int64(len(data)) || pr.Size != int64(len(data))+333 {
		t.Fatalf("append stats = %+v, want in-place append at %d", pr, len(data))
	}
	data = append(data, tail...)

	got, bad := mustGet(t, s, "obj")
	if len(bad) != 0 {
		t.Fatalf("read after patch reconstructed %v", bad)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("patched object does not match spliced payload")
	}

	// Patched objects keep serving ranged reads over the new bytes.
	rresp, body := getRange(t, ts.URL, "obj", fmt.Sprintf("bytes=%d-", off))
	if rresp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[off:]) {
		t.Fatalf("ranged GET after patch: %s", rresp.Status)
	}
}

// TestHTTPPatchErrors: the write-side error taxonomy — missing or
// malformed positioning headers are 400 (a write must know where it
// lands), offsets beyond the object are 416, over-limit bodies are 413,
// and unknown objects are 404.
func TestHTTPPatchErrors(t *testing.T) {
	s := newTestStore(t)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)
	mustPut(t, s, "obj", randBytes(17, 2*tk*tunit))

	send := func(hdrs map[string]string, body []byte, name string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/o/"+name, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = int64(len(body))
		for k, v := range hdrs {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	b := []byte("abc")
	for _, tc := range []struct {
		hdrs map[string]string
		want int
	}{
		{map[string]string{}, http.StatusBadRequest},                                // no positioning
		{map[string]string{"Content-Range": "bytes 0-99/*"}, http.StatusBadRequest}, // span != body
		{map[string]string{"Content-Range": "0-2/*"}, http.StatusBadRequest},        // missing unit
		{map[string]string{"Content-Range": "bytes x-y/*"}, http.StatusBadRequest},  // not integers
		{map[string]string{"X-Gemmec-Append": "maybe"}, http.StatusBadRequest},      // bad bool
		{map[string]string{"Content-Range": "bytes 999999-1000001/*"}, http.StatusRequestedRangeNotSatisfiable},
	} {
		if got := send(tc.hdrs, b, "obj"); got != tc.want {
			t.Fatalf("PATCH %v: status %d, want %d", tc.hdrs, got, tc.want)
		}
	}
	if got := send(map[string]string{"X-Gemmec-Append": "true"}, b, "ghost"); got != http.StatusNotFound {
		t.Fatalf("PATCH missing object: %d, want 404", got)
	}
	over := maxPatchSize + 1
	if got := send(map[string]string{"Content-Range": fmt.Sprintf("bytes 0-%d/*", over-1)}, make([]byte, over), "obj"); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PATCH: %d, want 413", got)
	}
}

// TestPatchSlabMemberFallsBack: a PATCH that cannot land in place falls
// back to read-modify-write under the label that says why — a packed
// member, whose slab is shared ("slab"), or a dedicated set missing or
// cutting short a unit the patch needs ("degraded") — and the spliced
// bytes read back exactly.
func TestPatchSlabMemberFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		damage func(path string) error // applied to the last parity shard
		want   string
	}{
		{"slab member", 700, nil, "slab"},
		{"missing parity shard", 2*tk*tunit + 50, os.Remove, "degraded"},
		{"truncated parity shard", 2*tk*tunit + 50, func(p string) error { return os.Truncate(p, tunit/2) }, "degraded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSlabStore(t, 2048)
			data := randBytes(19, tc.size)
			meta := mustPut(t, s, "obj", data)
			if tc.damage != nil {
				if err := tc.damage(s.shardPaths(objKey("obj"), meta)[tk+tr-1]); err != nil {
					t.Fatal(err)
				}
			}
			splice := []byte("spliced-over")
			_, ps, err := s.Patch(context.Background(), "obj", splice, 100)
			if err != nil {
				t.Fatal(err)
			}
			if ps.InPlace || ps.Fallback != tc.want {
				t.Fatalf("patch stats = %+v, want fallback=%s", ps, tc.want)
			}
			copy(data[100:], splice)
			if got, _ := mustGet(t, s, "obj"); !bytes.Equal(got, data) {
				t.Fatal("fallback patch content mismatch")
			}
		})
	}
}

// TestPatchCrashMidApplyRecovers is the crash drill for the patch commit
// protocol: the journal lands durably, the in-place apply dies halfway
// (injected write failure on one shard), and reopening the store rolls the
// patch forward — the object reads back as if the patch had committed.
func TestPatchCrashMidApplyRecovers(t *testing.T) {
	root := t.TempDir()
	ffs := faultfs.New(vfs.OS, 1,
		faultfs.Rule{Op: faultfs.OpWrite, Pattern: "*.shard_004", Err: errors.New("power cut")})
	cfg := StoreConfig{Root: root, Nodes: tnode, K: tk, R: tr, UnitSize: tunit, Workers: 2, FS: ffs}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(23, 3*tk*tunit)
	mustPut(t, s, "obj", data) // PUT writes *.shard_004.tmp — the rule skips it

	splice := randBytes(29, 300)
	off := int64(tunit * tk) // second stripe: its data unit 0 and parities rewrite
	_, _, err = s.Patch(context.Background(), "obj", splice, off)
	if err == nil {
		t.Fatal("patch applied through the injected shard failure")
	}
	if ffs.Injected(faultfs.OpWrite) == 0 {
		t.Fatal("fault never fired; the test is not exercising the crash path")
	}
	key := objKey("obj")
	if _, serr := os.Stat(filepath.Join(root, "meta", key+".patch")); serr != nil {
		t.Fatalf("no journal left behind for recovery: %v", serr)
	}
	s.Close()

	// "Reboot" without the fault: recovery must replay the journal.
	cfg.FS = nil
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if _, serr := os.Stat(filepath.Join(root, "meta", key+".patch")); !os.IsNotExist(serr) {
		t.Fatalf("journal survived recovery: %v", serr)
	}
	want := append([]byte(nil), data...)
	copy(want[off:], splice)
	got, bad := mustGet(t, s2, "obj")
	if len(bad) != 0 {
		t.Fatalf("post-recovery read reconstructed %v", bad)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-recovery content is not the patched payload")
	}
}

// TestStalePatchJournalDiscarded: a journal whose generation no longer
// matches the live object (it was overwritten after the journal landed)
// must be dropped, not replayed over the new generation's shards.
func TestStalePatchJournalDiscarded(t *testing.T) {
	root := t.TempDir()
	cfg := StoreConfig{Root: root, Nodes: tnode, K: tk, R: tr, UnitSize: tunit, Workers: 2}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(31, 2*tk*tunit)
	meta := mustPut(t, s, "obj", data)

	key := objKey("obj")
	rec := patchJournal{Key: key, Gen: meta.Gen + 7, Meta: meta, Writes: nil}
	rec.Meta.Gen = meta.Gen + 7
	b, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "meta", key+".patch"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if _, serr := os.Stat(filepath.Join(root, "meta", key+".patch")); !os.IsNotExist(serr) {
		t.Fatal("stale journal survived reopen")
	}
	got, _ := mustGet(t, s2, "obj")
	if !bytes.Equal(got, data) {
		t.Fatal("stale journal replay corrupted the object")
	}
}

// TestClusterRangeAndPatch: the gateway serves the same Range and PATCH
// surface — a ranged GET fetches only shard windows from the peers, and a
// PATCH splices through the quorum read-modify-write path.
func TestClusterRangeAndPatch(t *testing.T) {
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	data := randBytes(37, 6*2*1024+99) // 6+ stripes of k=2, unit=1024
	c.put(t, "obj", data)
	n := int64(len(data))

	resp, body := getRange(t, c.api.URL, "obj", "bytes=-150")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("cluster suffix GET: %s", resp.Status)
	}
	if want := fmt.Sprintf("bytes %d-%d/%d", n-150, n-1, n); resp.Header.Get("Content-Range") != want {
		t.Fatalf("cluster Content-Range %q, want %q", resp.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(body, data[n-150:]) {
		t.Fatal("cluster suffix GET: body mismatch")
	}

	splice := randBytes(41, 500)
	off := int64(3000)
	presp, pr := doPatch(t, c.api.URL, "obj", splice, off)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("cluster PATCH: %s", presp.Status)
	}
	if pr.InPlace || pr.Fallback != "rmw" {
		t.Fatalf("cluster PATCH stats = %+v, want fallback=rmw", pr)
	}
	copy(data[off:], splice)
	got, _ := c.get(t, "obj")
	if !bytes.Equal(got, data) {
		t.Fatal("cluster patched object mismatch")
	}

	// Ranged GET after the patch serves the new generation's window.
	resp, body = getRange(t, c.api.URL, "obj", fmt.Sprintf("bytes=%d-%d", off, off+499))
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, splice) {
		t.Fatalf("cluster ranged GET after patch: %s", resp.Status)
	}

	st, ok := c.gw.StatusSnapshot().(Stats)
	if !ok {
		t.Fatalf("StatusSnapshot type %T", c.gw.StatusSnapshot())
	}
	if st.RangeGets < 2 || st.Patches != 1 {
		t.Fatalf("gateway counters: range_gets=%d patches=%d", st.RangeGets, st.Patches)
	}
}
