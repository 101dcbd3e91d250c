package peer

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("0=http://a:8080, 2=http://b:8080 ,1=https://c:9090/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d members, want 3", len(ms))
	}
	if ms[2].Addr != "https://c:9090" {
		t.Fatalf("trailing slash not trimmed: %q", ms[2].Addr)
	}
	for _, bad := range []string{"", "x=http://a", "-1=http://a", "0=ftp://a", "0", "0=,1=http://b"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) = nil error, want failure", bad)
		}
	}
}

func TestLoadMembers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	doc := "# the fleet\n0=http://a:8080\n\n1=http://b:8080\n2=http://c:8080\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := LoadMembers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d members, want 3", len(ms))
	}
	if err := os.WriteFile(path, []byte("0=http://a\nnot a member\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMembers(path); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("bad line not reported with line number: %v", err)
	}
}

func TestRingRejectsDuplicates(t *testing.T) {
	_, err := NewRing([]Member{{ID: 1, Addr: "http://a"}, {ID: 1, Addr: "http://b"}})
	if err == nil {
		t.Fatal("duplicate member IDs accepted")
	}
}

// TestPlacementDeterministicAndDistinct is the property every gateway
// depends on: placement is a pure function of (membership, key), and one
// stripe never puts two shards in the same failure domain.
func TestPlacementDeterministicAndDistinct(t *testing.T) {
	members := []Member{
		{ID: 0, Addr: "http://a"}, {ID: 1, Addr: "http://b"},
		{ID: 2, Addr: "http://c"}, {ID: 5, Addr: "http://d"},
	}
	r1, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	// Same membership presented in a different order must place identically.
	r2, err := NewRing([]Member{members[3], members[1], members[0], members[2]})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"6f626a", "deadbeef", "00", "ffffffffffff"} {
		p1, err := r1.Placement(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := r2.Placement(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("placement differs across equivalent rings: %v vs %v", p1, p2)
			}
			if seen[p1[i]] {
				t.Fatalf("placement %v reuses member %d", p1, p1[i])
			}
			seen[p1[i]] = true
			if _, ok := r1.Member(p1[i]); !ok {
				t.Fatalf("placement names unknown member %d", p1[i])
			}
		}
	}
	if _, err := r1.Placement("6f", 5); err == nil {
		t.Fatal("placement across more shards than members accepted")
	}
}

// memTransport is a minimal in-memory Transport for fault-wrapper tests.
type memTransport struct {
	shards map[string][]byte
	meta   map[string][]byte
}

func newMemTransport() *memTransport {
	return &memTransport{shards: map[string][]byte{}, meta: map[string][]byte{}}
}

func skey(key string, gen uint64, idx int) string {
	return key + "/" + string(rune('0'+gen)) + "/" + string(rune('0'+idx))
}

func (m *memTransport) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	b, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	m.shards[skey(key, gen, idx)] = b
	return nil
}

func (m *memTransport) GetShard(ctx context.Context, key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	b, ok := m.shards[skey(key, gen, idx)]
	if !ok {
		return nil, 0, ErrShardNotFound
	}
	return io.NopCloser(strings.NewReader(string(b))), int64(len(b)), nil
}

func (m *memTransport) GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	b, ok := m.shards[skey(key, gen, idx)]
	if !ok {
		return nil, 0, ErrShardNotFound
	}
	if off > int64(len(b)) {
		off = int64(len(b))
	}
	end := off + length
	if end > int64(len(b)) {
		end = int64(len(b))
	}
	win := b[off:end]
	return io.NopCloser(strings.NewReader(string(win))), int64(len(win)), nil
}

func (m *memTransport) StatShard(ctx context.Context, key string, gen uint64, idx int) (int64, error) {
	b, ok := m.shards[skey(key, gen, idx)]
	if !ok {
		return 0, ErrShardNotFound
	}
	return int64(len(b)), nil
}

func (m *memTransport) DeleteShard(ctx context.Context, key string, gen uint64, idx int) error {
	delete(m.shards, skey(key, gen, idx))
	return nil
}

func (m *memTransport) DeleteObject(ctx context.Context, key string) error {
	for k := range m.shards {
		if strings.HasPrefix(k, key+"/") {
			delete(m.shards, k)
		}
	}
	delete(m.meta, key)
	return nil
}

func (m *memTransport) PutMeta(ctx context.Context, key string, meta []byte) error {
	m.meta[key] = meta
	return nil
}

func (m *memTransport) GetMeta(ctx context.Context, key string) ([]byte, error) {
	b, ok := m.meta[key]
	if !ok {
		return nil, ErrMetaNotFound
	}
	return b, nil
}

func (m *memTransport) ListMeta(ctx context.Context) ([]string, error) {
	var keys []string
	for k := range m.meta {
		keys = append(keys, k)
	}
	return keys, nil
}

func (m *memTransport) Ping(ctx context.Context) error { return nil }

func TestFaultTransportPartition(t *testing.T) {
	ft := NewFaultTransport(newMemTransport())
	ctx := context.Background()
	ft.Partition()
	if err := ft.PutMeta(ctx, "6f", []byte("x")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("partitioned PutMeta = %v, want ErrUnavailable", err)
	}
	if err := ft.Ping(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("partitioned Ping = %v, want ErrUnavailable", err)
	}
	ft.Heal()
	if err := ft.PutMeta(ctx, "6f", []byte("x")); err != nil {
		t.Fatalf("healed PutMeta = %v", err)
	}
	if got := ft.Calls(OpPutMeta); got != 2 {
		t.Fatalf("Calls(OpPutMeta) = %d, want 2 (faulted calls count)", got)
	}
}

// TestFaultRuleWindow pins the After/Count arithmetic: a rule fires on
// matching calls [After, After+Count) and never outside that window.
func TestFaultRuleWindow(t *testing.T) {
	ft := NewFaultTransport(newMemTransport())
	boom := errors.New("boom")
	ft.AddRule(FaultRule{Op: OpStatShard, After: 1, Count: 2, Err: boom})
	ctx := context.Background()
	want := []bool{false, true, true, false, false}
	for i, wantFail := range want {
		_, err := ft.StatShard(ctx, "6f", 1, 0)
		gotFail := errors.Is(err, boom)
		if gotFail != wantFail {
			t.Fatalf("call %d: failed=%v, want %v", i, gotFail, wantFail)
		}
	}
}

func TestFaultRuleKeyPrefix(t *testing.T) {
	ft := NewFaultTransport(newMemTransport())
	ft.AddRule(FaultRule{Op: OpPutMeta, KeyPrefix: "aa", Err: ErrUnavailable})
	ctx := context.Background()
	if err := ft.PutMeta(ctx, "aabb", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("matching key not faulted: %v", err)
	}
	if err := ft.PutMeta(ctx, "bbaa", nil); err != nil {
		t.Fatalf("non-matching key faulted: %v", err)
	}
}

// TestFaultTornUpload proves a torn PUT body surfaces as a read error to
// the receiving transport — the wire analogue of a sender dying mid-upload.
func TestFaultTornUpload(t *testing.T) {
	inner := newMemTransport()
	ft := NewFaultTransport(inner)
	ft.AddRule(FaultRule{Op: OpPutShard, TornAfter: 4})
	err := ft.PutShard(context.Background(), "6f", 1, 0, 10, strings.NewReader("0123456789"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("torn upload error = %v, want ErrUnavailable", err)
	}
	// memTransport's ReadAll failed, so nothing may be stored.
	if _, err := inner.StatShard(context.Background(), "6f", 1, 0); !errors.Is(err, ErrShardNotFound) {
		t.Fatal("torn upload left a stored shard behind")
	}
}

// TestFaultTornDownload proves a torn GET body fails mid-read, after
// serving exactly TornAfter bytes.
func TestFaultTornDownload(t *testing.T) {
	inner := newMemTransport()
	if err := inner.PutShard(context.Background(), "6f", 1, 0, 10, strings.NewReader("0123456789")); err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(inner)
	ft.AddRule(FaultRule{Op: OpGetShard, TornAfter: 6})
	rc, _, err := ft.GetShard(context.Background(), "6f", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("torn download error = %v, want ErrUnavailable", err)
	}
	if string(b) != "012345" {
		t.Fatalf("torn download served %q, want first 6 bytes", b)
	}
}

func TestFaultDelayHonorsContext(t *testing.T) {
	ft := NewFaultTransport(newMemTransport())
	ft.AddRule(FaultRule{Op: OpPing, Delay: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := ft.Ping(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed call under dead ctx = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored the context")
	}
}

// TestCanceledRequestIsNotAPeerFailure: a request that dies because its
// caller gave up — the gateway's majority metadata read returning with
// stragglers in flight — must not count against a live peer; a peer that
// refuses the connection still does.
func TestCanceledRequestIsNotAPeerFailure(t *testing.T) {
	inHandler := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-r.Context().Done() // a live peer, mid-request when the caller hangs up
	}))
	defer srv.Close()
	c := NewClient(Member{ID: 1, Addr: srv.URL}, ClientConfig{Secret: "s", OpTimeout: 5 * time.Second})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-inHandler
		cancel()
	}()
	if _, err := c.GetMeta(ctx, "6b"); err == nil {
		t.Fatal("GetMeta survived its caller's cancellation")
	}
	if c.Failures() != 0 || !c.Healthy() || c.DownTransitions() != 0 {
		t.Fatalf("caller's cancel counted against a live peer: failures=%d healthy=%v down_transitions=%d",
			c.Failures(), c.Healthy(), c.DownTransitions())
	}
	if c.Requests() != 1 {
		t.Fatalf("requests = %d, want the one canceled attempt", c.Requests())
	}

	srv.Close() // now the peer is really gone
	if _, err := c.GetMeta(context.Background(), "6b"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("GetMeta against a closed peer = %v, want ErrUnavailable", err)
	}
	if c.Failures() == 0 || c.Healthy() || c.DownTransitions() != 1 {
		t.Fatalf("refused connection not counted: failures=%d healthy=%v down_transitions=%d",
			c.Failures(), c.Healthy(), c.DownTransitions())
	}
}

// TestRangeIgnoredFailsTheFetch: a peer that answers a shard range
// request with the whole shard (200, not 206) fails the fetch, so the
// gateway demotes the shard instead of trusting a body it did not ask
// for; a 206 passes the window through.
func TestRangeIgnoredFailsTheFetch(t *testing.T) {
	shard := []byte("0123456789abcdef")
	var whole atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "bytes=4-7" {
			t.Errorf("Range = %q, want bytes=4-7", r.Header.Get("Range"))
		}
		if !whole.Load() {
			w.Header().Set("Content-Range", "bytes 4-7/16")
			w.WriteHeader(http.StatusPartialContent)
			w.Write(shard[4:8])
			return
		}
		w.Write(shard)
	}))
	defer srv.Close()
	c := NewClient(Member{ID: 1, Addr: srv.URL}, ClientConfig{Secret: "s", OpTimeout: 5 * time.Second})
	defer c.Close()
	ctx := context.Background()

	body, size, err := c.GetShardRange(ctx, "6b", 1, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(body)
	body.Close()
	if string(got) != "4567" || size != 4 {
		t.Fatalf("206 window = %q (size %d), want \"4567\" (size 4)", got, size)
	}

	whole.Store(true)
	if body, _, err := c.GetShardRange(ctx, "6b", 1, 0, 4, 4); err == nil || !strings.Contains(err.Error(), "http 200") {
		if body != nil {
			body.Close()
		}
		t.Fatalf("200 answer to a range request: err = %v, want a failed fetch naming http 200", err)
	}
}
