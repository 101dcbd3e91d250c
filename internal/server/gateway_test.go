package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gemmec"
	"gemmec/internal/peer"
)

// testClusterSecret authenticates the test rigs' internal traffic.
const testClusterSecret = "tok-cluster-test"

// httpCluster is a real networked cluster for e2e tests: every member is
// a PeerStore behind an httptest server running NewPeerAPI, reached over
// actual peer.Client HTTP transports (except the gateway's own member,
// which uses the local transport exactly as cmd/ecserver wires it).
type httpCluster struct {
	gw     *Gateway
	stores []*PeerStore
	peers  []*httptest.Server
	api    *httptest.Server // client-facing gateway handler
}

func newHTTPCluster(t *testing.T, n, k, r, q, unit int, hcfg Config) *httpCluster {
	t.Helper()
	return newHTTPClusterCooldown(t, 10*time.Millisecond, n, k, r, q, unit, hcfg)
}

// newHTTPClusterCooldown is newHTTPCluster with the peer clients' down
// cooldown chosen: how long a member that failed a request stays reported
// unhealthy. The default is short, so tests that kill and revive members
// see them back quickly.
func newHTTPClusterCooldown(t *testing.T, cooldown time.Duration, n, k, r, q, unit int, hcfg Config) *httpCluster {
	t.Helper()
	c := &httpCluster{}
	members := make([]peer.Member, n)
	for i := 0; i < n; i++ {
		ps, err := OpenPeerStore(filepath.Join(t.TempDir(), fmt.Sprintf("peer%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		c.stores = append(c.stores, ps)
		srv := httptest.NewServer(NewPeerAPI(ps, testClusterSecret, t.Logf))
		t.Cleanup(srv.Close)
		c.peers = append(c.peers, srv)
		members[i] = peer.Member{ID: i, Addr: srv.URL}
	}
	ring, err := peer.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	transports := map[int]peer.Transport{0: NewLocalTransport(c.stores[0])}
	for i := 1; i < n; i++ {
		cl := peer.NewClient(members[i], peer.ClientConfig{
			Secret: testClusterSecret, OpTimeout: 2 * time.Second, DownCooldown: cooldown,
		})
		t.Cleanup(cl.Close)
		transports[i] = cl
	}
	c.gw, err = NewGateway(GatewayConfig{
		Ring: ring, Transports: transports, SelfID: 0,
		K: k, R: r, UnitSize: unit, Workers: 2, WriteQuorum: q, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.gw.Close)
	c.api = httptest.NewServer(NewBackendHandler(c.gw, hcfg))
	t.Cleanup(c.api.Close)
	return c
}

func (c *httpCluster) put(t *testing.T, name string, body []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, c.api.URL+"/o/"+name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT %s: %s: %s", name, resp.Status, b)
	}
	io.Copy(io.Discard, resp.Body)
}

func (c *httpCluster) get(t *testing.T, name string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(c.api.URL + "/o/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", name, resp.Status, b)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", name, err)
	}
	return b, resp
}

// TestClusterPutGetRoundTrip is the basic contract: an object PUT through
// the gateway is striped across real networked peers and comes back
// byte-identical, clean (not degraded), and listed in the catalog.
func TestClusterPutGetRoundTrip(t *testing.T) {
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	want := randBytes(1, 100_000)
	c.put(t, "obj", want)

	// Every member holds exactly one shard of the object (k+r=3 across 3
	// members) plus a metadata replica.
	key := hex.EncodeToString([]byte("obj"))
	for i, ps := range c.stores {
		if _, err := ps.GetMeta(key); err != nil {
			t.Fatalf("member %d has no metadata replica: %v", i, err)
		}
		st := ps.Stats()
		if st.ShardPuts != 1 {
			t.Fatalf("member %d took %d shard puts, want 1", i, st.ShardPuts)
		}
	}

	got, resp := c.get(t, "obj")
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(want))
	}
	if resp.Header.Get("X-Gemmec-Degraded") != "false" {
		t.Fatalf("clean read marked degraded: %q", resp.Header.Get("X-Gemmec-Degraded"))
	}

	lresp, err := http.Get(c.api.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "obj" || list[0].Size != int64(len(want)) {
		t.Fatalf("catalog = %+v, want [{obj %d}]", list, len(want))
	}
}

// TestClusterDegradedReadAfterPeerLoss is the acceptance drill: PUT
// through the gateway, destroy one peer's shard data, and GET must still
// return byte-identical data with X-Gemmec-Degraded: true.
func TestClusterDegradedReadAfterPeerLoss(t *testing.T) {
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	want := randBytes(2, 150_000)
	c.put(t, "obj", want)

	// Peer 2 loses its disk.
	if err := c.stores[2].WipeShards(); err != nil {
		t.Fatal(err)
	}

	got, resp := c.get(t, "obj")
	if !bytes.Equal(got, want) {
		t.Fatalf("degraded read mismatch: got %d bytes, want %d", len(got), len(want))
	}
	if resp.Header.Get("X-Gemmec-Degraded") != "true" {
		t.Fatal("read after shard loss not marked degraded")
	}
	if c.gw.degradedGets.Load() == 0 {
		t.Fatal("degraded read not counted")
	}
}

// TestClusterDegradedReadDeadPeer kills peers' HTTP servers outright —
// connection refused, not just missing files — and the gateway must still
// serve the object byte-identical. The object is placed so that neither
// member killed is the gateway's own: first the member holding parity
// shard 3, which a clean read never touches (not even for metadata: it
// is fourth in the key's ring order and a majority is three), so the
// headers say clean and it sees no request at all; then the one holding
// data shard 0, whose loss the read plan needs to route around, so the
// open starts escalated and the header says degraded.
func TestClusterDegradedReadDeadPeer(t *testing.T) {
	const n, k, r = 5, 2, 2
	c := newHTTPCluster(t, n, k, r, 0, 1024, Config{Logf: t.Logf})
	name := ""
	var placement []int
	for i := 0; name == ""; i++ {
		cand := fmt.Sprintf("obj-%d", i)
		p, err := c.gw.cfg.Ring.Placement(objKey(cand), k+r)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != 0 && p[3] != 0 {
			name, placement = cand, p
		}
	}
	want := randBytes(3, 80_000)
	c.put(t, name, want)
	parity, data := placement[3], placement[0]

	c.peers[parity].Close() // the process is gone, not just its disk
	cl := c.gw.transport(parity).(*peer.Client)
	before := cl.Requests()
	got, resp := c.get(t, name)
	if !bytes.Equal(got, want) {
		t.Fatal("read with a dead parity member returned wrong bytes")
	}
	if h := resp.Header.Get("X-Gemmec-Degraded"); h != "false" || resp.Header.Get("X-Gemmec-Reconstructed") != "" {
		t.Fatalf("clean read reports a lost shard it does not read: X-Gemmec-Degraded %q, X-Gemmec-Reconstructed %q",
			h, resp.Header.Get("X-Gemmec-Reconstructed"))
	}
	if got := cl.Requests() - before; got != 0 {
		t.Fatalf("clean read sent %d requests to the dead parity member, want 0", got)
	}

	c.peers[data].Close()
	got, resp = c.get(t, name)
	if !bytes.Equal(got, want) {
		t.Fatal("read with a dead data member returned wrong bytes")
	}
	if h := resp.Header.Get("X-Gemmec-Degraded"); h != "true" {
		t.Fatalf("read missing data shard 0 marked X-Gemmec-Degraded %q, want true", h)
	}
	if h := resp.Header.Get("X-Gemmec-Reconstructed"); h != "0 3" {
		t.Fatalf("escalated open reports X-Gemmec-Reconstructed %q, want \"0 3\" (both dead members' shards)", h)
	}
}

// TestGatewayTooFewShardsBeforeHeaders: an open that loses a planned
// shard asks the rest before returning, so with more than r shards gone
// a GET answers 503 (gemmec.ErrTooFewShards) before any body byte, as it
// did when every open probed every member.
func TestGatewayTooFewShardsBeforeHeaders(t *testing.T) {
	const k, r = 4, 2
	c := newFaultCluster(t, k+r, k, r, 1, 1024)
	want := randBytes(226, 20_000)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	_, meta, err := c.gw.readMetaRaw(context.Background(), objKey("obj"))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0, which every whole read plans, and both parity shards: the
	// metadata majority is intact, three shards survive.
	for _, i := range []int{0, 4, 5} {
		if err := c.stores[meta.Placement[i]].WipeShards(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.gw.Open(context.Background(), "obj"); !errors.Is(err, gemmec.ErrTooFewShards) {
		t.Fatalf("open with r+1 shards lost = %v, want ErrTooFewShards", err)
	}
	ts := httptest.NewServer(NewBackendHandler(c.gw, Config{Logf: t.Logf}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/o/obj")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || bytes.Contains(body, want[:64]) {
		t.Fatalf("GET with r+1 shards lost: %s, %d body bytes; want 503 and no object bytes", resp.Status, len(body))
	}
}

// TestClusterRebuildNode wipes a peer and rebuilds it: every shard the
// member held must come back byte-identical (every unit verified against
// the manifest's stripe sums — the only checksums a gateway PUT records),
// with canonical k× repair amplification, and the repair counters must
// show up in /metricsz.
func TestClusterRebuildNode(t *testing.T) {
	metrics := NewMetrics(nil)
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf, Metrics: metrics})
	c.gw.SetMetrics(metrics)

	objs := map[string][]byte{
		"alpha": randBytes(10, 120_000),
		"beta":  randBytes(11, 64_000),
		"gamma": randBytes(12, 3_000),
	}
	for name, body := range objs {
		c.put(t, name, body)
	}

	victim := 1
	if err := c.stores[victim].WipeShards(); err != nil {
		t.Fatal(err)
	}
	for name, want := range objs {
		if got, _ := c.get(t, name); !bytes.Equal(got, want) {
			t.Fatalf("%s: degraded read after the wipe returned wrong bytes", name)
		}
	}

	st, err := c.gw.RebuildNode(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) > 0 {
		t.Fatalf("rebuild errors: %v", st.Errors)
	}
	if st.ShardsRebuilt == 0 {
		t.Fatal("rebuild restored nothing")
	}
	if got, want := st.Amplification(), 2.0; got != want {
		t.Fatalf("repair amplification = %v, want %v (k reads per shard rebuilt)", got, want)
	}

	// Every shard the victim should hold is back, every unit matching the
	// manifest's recorded stripe sum.
	restored := 0
	for name := range objs {
		key := hex.EncodeToString([]byte(name))
		_, meta, err := c.gw.readMetaRaw(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		m := meta.Manifest
		for i, member := range meta.Placement {
			if member != victim {
				continue
			}
			rc, _, err := c.stores[victim].GetShard(key, uint64(meta.Gen), i)
			if err != nil {
				t.Fatalf("%s shard %d not restored on member %d: %v", name, i, victim, err)
			}
			shard, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || len(shard) != m.Stripes*m.UnitSize {
				t.Fatalf("%s shard %d rebuilt as %d bytes (err %v), want %d", name, i, len(shard), err, m.Stripes*m.UnitSize)
			}
			for s := 0; s < m.Stripes; s++ {
				if m.VerifyUnit(i, int64(s), shard[s*m.UnitSize:(s+1)*m.UnitSize]) != nil {
					t.Fatalf("%s shard %d stripe %d rebuilt with wrong bytes", name, i, s)
				}
			}
			restored++
		}
	}
	if restored != st.ShardsRebuilt {
		t.Fatalf("rebuilt %d shards, stats claim %d", restored, st.ShardsRebuilt)
	}

	// A second rebuild is an idempotent no-op.
	st2, err := c.gw.RebuildNode(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ShardsRebuilt != 0 {
		t.Fatalf("second rebuild redid %d shards, want 0", st2.ShardsRebuilt)
	}

	// Reads are clean again.
	for name, want := range objs {
		got, resp := c.get(t, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted by rebuild", name)
		}
		if resp.Header.Get("X-Gemmec-Degraded") != "false" {
			t.Fatalf("%s still degraded after rebuild", name)
		}
	}

	// Repair traffic is visible on /metricsz.
	mresp, err := http.Get(c.api.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	exposition, _ := io.ReadAll(mresp.Body)
	for _, fam := range []string{
		"gemmec_repair_bytes_read_total", "gemmec_repair_bytes_written_total",
		"gemmec_repair_amplification", "gemmec_rebuild_shards_total",
	} {
		if !strings.Contains(string(exposition), fam) {
			t.Errorf("/metricsz missing %s", fam)
		}
	}
	if !strings.Contains(string(exposition), "gemmec_repair_amplification 2") {
		t.Error("/metricsz does not report the k=2 repair amplification")
	}
}

// TestClusterRebuildViaHTTP drives the same recovery through the
// operator-facing POST /rebuild/{id} route.
func TestClusterRebuildViaHTTP(t *testing.T) {
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	want := randBytes(20, 50_000)
	c.put(t, "obj", want)
	if err := c.stores[2].WipeShards(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.api.URL+"/rebuild/2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /rebuild/2: %s: %s", resp.Status, b)
	}
	var st RebuildStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Member != 2 || st.ShardsRebuilt == 0 {
		t.Fatalf("rebuild stats = %+v", st)
	}
	got, gresp := c.get(t, "obj")
	if !bytes.Equal(got, want) || gresp.Header.Get("X-Gemmec-Degraded") != "false" {
		t.Fatal("object not clean after HTTP rebuild")
	}
}

// TestClusterEmptyAndOverwrite covers the two metadata edge cases: empty
// objects round-trip, and overwrites bump the generation and reap the
// superseded generation's shards on every member.
func TestClusterEmptyAndOverwrite(t *testing.T) {
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	c.put(t, "obj", nil)
	got, _ := c.get(t, "obj")
	if len(got) != 0 {
		t.Fatalf("empty object came back with %d bytes", len(got))
	}

	want := randBytes(30, 10_000)
	c.put(t, "obj", want)
	got, _ = c.get(t, "obj")
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite lost bytes")
	}

	key := hex.EncodeToString([]byte("obj"))
	_, meta, err := c.gw.readMetaRaw(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gen != 2 {
		t.Fatalf("gen after overwrite = %d, want 2", meta.Gen)
	}
	// The gen-1 shards are garbage and must be gone everywhere.
	for i, ps := range c.stores {
		matches, _ := filepath.Glob(filepath.Join(ps.shardDir(), key+".g1.*"))
		if len(matches) > 0 {
			t.Fatalf("member %d still holds superseded generation files: %v", i, matches)
		}
	}

	if err := c.gw.Delete(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	// Delete commits a tombstone, not a removal: every member keeps a
	// generation-3 Deleted document (so no stale replica can resurrect the
	// object), the shards are reclaimed, and clients see 404.
	for i, ps := range c.stores {
		ents, _ := os.ReadDir(ps.shardDir())
		if len(ents) > 0 {
			t.Fatalf("member %d still holds shard files after delete", i)
		}
		raw, err := ps.GetMeta(key)
		if err != nil {
			t.Fatalf("member %d lost its metadata replica instead of holding the tombstone: %v", i, err)
		}
		var tomb ObjectMeta
		if err := json.Unmarshal(raw, &tomb); err != nil {
			t.Fatal(err)
		}
		if !tomb.Deleted || tomb.Gen != 3 {
			t.Fatalf("member %d replica = gen %d deleted=%v, want gen 3 tombstone", i, tomb.Gen, tomb.Deleted)
		}
	}
	if _, err := c.gw.Open(context.Background(), "obj"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("open after delete = %v, want ErrObjectNotFound", err)
	}
	if metas, err := c.gw.StatAll(); err != nil || len(metas) != 0 {
		t.Fatalf("tombstone leaked into the listing: %v %v", metas, err)
	}

	// With every member holding the tombstone, the scrub sweep reaps it.
	if rep := c.gw.ScrubAll(context.Background()); len(rep.Errors) > 0 {
		t.Fatalf("scrub errors: %v", rep.Errors)
	}
	for i, ps := range c.stores {
		if _, err := ps.GetMeta(key); !errors.Is(err, peer.ErrMetaNotFound) {
			t.Fatalf("member %d still holds metadata after tombstone reap (err=%v)", i, err)
		}
	}
}

// TestDeleteTombstonePreventsResurrection is the regression drill for
// the delete-resurrection bug: a member partitioned during a delete must
// not resurrect the object when it returns, and a recreate must continue
// the generation counter above the tombstone instead of restarting at 1
// (where the returning member's stale replica would shadow it forever).
func TestDeleteTombstonePreventsResurrection(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 0, 1024)
	key := objKey("obj")
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(200, 30_000)), 30_000); err != nil {
		t.Fatal(err)
	}

	// Member 2 is partitioned while the delete commits: it keeps its gen-1
	// live replica (and shard) while members 0 and 1 take the tombstone.
	c.faults[2].Partition()
	if err := c.gw.Delete(context.Background(), "obj"); err != nil {
		t.Fatalf("delete with a majority reachable = %v", err)
	}

	// While the member is still gone, the tombstone must not be reaped.
	c.gw.ScrubAll(context.Background())
	if raw, err := c.stores[0].GetMeta(key); err != nil {
		t.Fatalf("tombstone reaped with a member unreachable: %v", err)
	} else {
		var m ObjectMeta
		if json.Unmarshal(raw, &m) != nil || !m.Deleted {
			t.Fatalf("member 0 replica is not a tombstone: %s", raw)
		}
	}

	// The partitioned member returns with the highest *live* generation
	// anywhere — but the tombstone outranks it, so the object stays gone.
	c.faults[2].Heal()
	if _, err := c.gw.Open(context.Background(), "obj"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("deleted object resurrected by returning member: %v", err)
	}

	// A recreate continues the counter above the tombstone (gen 3), so the
	// returning member's gen-1 replica can never shadow it.
	want := randBytes(201, 20_000)
	meta, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gen != 3 {
		t.Fatalf("recreate gen = %d, want 3 (monotonic over the tombstone)", meta.Gen)
	}
	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("recreated object reads back wrong")
	}
}

// TestDeleteWithoutQuorumUnwinds: a delete that cannot reach a member
// majority must fail with ErrWriteQuorum and leave the object fully
// readable — the tombstone taken by a minority is rolled back.
func TestDeleteWithoutQuorumUnwinds(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 0, 1024)
	want := randBytes(210, 40_000)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	// Metadata reads still work; only the tombstone broadcast fails on a
	// majority of members.
	c.faults[1].AddRule(peer.FaultRule{Op: peer.OpPutMeta, Err: peer.ErrUnavailable})
	c.faults[2].AddRule(peer.FaultRule{Op: peer.OpPutMeta, Err: peer.ErrUnavailable})
	if err := c.gw.Delete(context.Background(), "obj"); !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("minority delete = %v, want ErrWriteQuorum", err)
	}
	c.faults[1].RemoveRules()
	c.faults[2].RemoveRules()
	// The unwind restored member 0's live document — no tombstone anywhere.
	raw, err := c.stores[0].GetMeta(objKey("obj"))
	if err != nil {
		t.Fatal(err)
	}
	var m ObjectMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Deleted || m.Gen != 1 {
		t.Fatalf("failed delete left member 0 at gen %d deleted=%v, want the gen-1 live document", m.Gen, m.Deleted)
	}
	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatalf("object unreadable after failed delete: %v", err)
	}
	defer o.Close()
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("failed delete corrupted the object")
	}
}

// TestReadMetaMajorityOverStaleSelf: a gateway whose own replica missed
// commits (it was down) must serve the majority's generation, not
// short-circuit on the stale self copy.
func TestReadMetaMajorityOverStaleSelf(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 1, 1024)
	key := objKey("obj")
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(220, 10_000)), 10_000); err != nil {
		t.Fatal(err)
	}
	staleRaw, err := c.stores[0].GetMeta(key)
	if err != nil {
		t.Fatal(err)
	}
	want := randBytes(221, 10_000)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	// Simulate the gateway's member having missed the second commit.
	if err := c.stores[0].PutMeta(key, staleRaw); err != nil {
		t.Fatal(err)
	}
	_, meta, err := c.gw.readMetaRaw(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gen != 2 {
		t.Fatalf("majority read returned gen %d, want 2 (self replica is stale at gen 1)", meta.Gen)
	}
	// And the degraded-by-metadata read still returns the committed bytes.
	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("stale self replica won over the majority")
	}
}

// metaCalls sums the GetMeta calls every member's transport saw.
func (c *faultCluster) metaCalls() int {
	n := 0
	for _, f := range c.faults {
		n += f.Calls(peer.OpGetMeta)
	}
	return n
}

// TestReadMetaAsksMajority: a metadata read asks need = n/2+1 members and
// no more — through readMetaRaw and through a GET's open — and each member
// that does not answer costs exactly one more ask. With fewer than need
// members reachable the read fails with the majority error once every
// member has been asked.
func TestReadMetaAsksMajority(t *testing.T) {
	const n, need = 6, 4
	c := newFaultCluster(t, n, 4, 2, 1, 1024)
	want := randBytes(222, 10_000)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	key := objKey("obj")
	order := c.gw.metaOrder(key)

	before := c.metaCalls()
	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	if got := c.metaCalls() - before; got != need {
		t.Fatalf("healthy GET open made %d GetMeta calls, want need=%d", got, need)
	}

	for failed := 1; failed <= n-need; failed++ {
		c.faults[order[failed-1]].Partition()
		before := c.metaCalls()
		_, meta, err := c.gw.readMetaRaw(context.Background(), key)
		if err != nil || meta.Gen != 1 {
			t.Fatalf("%d members down: gen %d, err %v", failed, meta.Gen, err)
		}
		if got := c.metaCalls() - before; got != need+failed {
			t.Fatalf("%d members down: %d GetMeta calls, want %d", failed, got, need+failed)
		}
	}

	c.faults[order[n-need]].Partition() // n-need+1 down: no majority left
	before = c.metaCalls()
	_, _, err = c.gw.readMetaRaw(context.Background(), key)
	if !errors.Is(err, peer.ErrUnavailable) || !strings.Contains(err.Error(), "need majority") {
		t.Fatalf("read with %d of %d members reachable = %v, want the majority error", need-1, n, err)
	}
	if got := c.metaCalls() - before; got != n {
		t.Fatalf("failed majority read made %d GetMeta calls, want every member (%d)", got, n)
	}
}

// healthHint overrides a transport's health hint.
type healthHint struct {
	peer.Transport
	healthy bool
}

func (h healthHint) Healthy() bool { return h.healthy }

// TestReadMetaAsksHealthyFirst: a member its transport reports unhealthy
// is asked only after every healthy one, whatever its ring position; the
// healthy members answer the majority, and it sees no call.
func TestReadMetaAsksHealthyFirst(t *testing.T) {
	const n = 6
	c := newFaultCluster(t, n, 4, 2, 1, 1024)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(223, 5_000)), 5_000); err != nil {
		t.Fatal(err)
	}
	key := objKey("obj")
	first := c.gw.metaOrder(key)[0]
	transports := make(map[int]peer.Transport, n)
	for id, f := range c.faults {
		transports[id] = healthHint{f, id != first}
	}
	gw, err := NewGateway(GatewayConfig{Ring: c.gw.cfg.Ring, Transports: transports, K: 4, R: 2, UnitSize: 1024, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if order := gw.metaOrder(key); order[len(order)-1] != first {
		t.Fatalf("meta order %v does not put unhealthy member %d last", order, first)
	}
	before := c.faults[first].Calls(peer.OpGetMeta)
	if _, meta, err := gw.readMetaRaw(context.Background(), key); err != nil || meta.Gen != 1 {
		t.Fatalf("read = gen %d, %v", meta.Gen, err)
	}
	if got := c.faults[first].Calls(peer.OpGetMeta) - before; got != 0 {
		t.Fatalf("unhealthy member %d asked %d times while healthy members answered", first, got)
	}
}

// TestReadMetaStaleInsideMajority: the asked majority holds a stale and
// a rotten replica, and they answer first; the commit majority
// intersects it, so the fresh generation still wins — a reply that
// differs from the best so far is parsed, and a rotten one counts
// without supplying a document.
func TestReadMetaStaleInsideMajority(t *testing.T) {
	const n, need = 6, 4
	c := newFaultCluster(t, n, 4, 2, 1, 1024)
	key := objKey("obj")
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(224, 10_000)), 10_000); err != nil {
		t.Fatal(err)
	}
	order := c.gw.metaOrder(key)
	staleRaw, err := c.stores[order[0]].GetMeta(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(225, 10_000)), 10_000); err != nil {
		t.Fatal(err)
	}
	// Two stale members: the other four still form the commit majority.
	for _, tc := range []struct {
		name   string
		second []byte
	}{
		{"two stale", staleRaw},
		{"stale and rotten", []byte("{not json")},
	} {
		if err := c.stores[order[0]].PutMeta(key, staleRaw); err != nil {
			t.Fatal(err)
		}
		if err := c.stores[order[1]].PutMeta(key, tc.second); err != nil {
			t.Fatal(err)
		}
		// The fresh members of the asked majority answer last.
		for _, id := range order[2:need] {
			c.faults[id].AddRule(peer.FaultRule{Op: peer.OpGetMeta, Delay: 20 * time.Millisecond})
		}
		before := c.metaCalls()
		_, meta, err := c.gw.readMetaRaw(context.Background(), key)
		if err != nil || meta.Gen != 2 {
			t.Fatalf("%s: majority read = gen %d, %v; want gen 2", tc.name, meta.Gen, err)
		}
		if got := c.metaCalls() - before; got != need {
			t.Fatalf("%s: %d GetMeta calls, want need=%d", tc.name, got, need)
		}
		for _, f := range c.faults {
			f.RemoveRules()
		}
	}
}

// TestPutShardFirstWriterWins pins the shard-write conflict contract:
// the same (key, gen, idx) cannot be written twice, locally or over the
// wire (409 → peer.ErrShardExists), so two gateways racing one
// generation can never interleave bytes from two bodies in one shard.
func TestPutShardFirstWriterWins(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := []byte("first writer body")
	if _, err := ps.PutShard("6f", 1, 0, bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.PutShard("6f", 1, 0, strings.NewReader("second writer")); !errors.Is(err, peer.ErrShardExists) {
		t.Fatalf("second write = %v, want ErrShardExists", err)
	}
	rc, _, err := ps.GetShard("6f", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(got, first) {
		t.Fatalf("loser overwrote the shard: %q", got)
	}

	// Same contract over the HTTP transport.
	srv := httptest.NewServer(NewPeerAPI(ps, testClusterSecret, t.Logf))
	defer srv.Close()
	cl := peer.NewClient(peer.Member{ID: 0, Addr: srv.URL}, peer.ClientConfig{Secret: testClusterSecret})
	defer cl.Close()
	ctx := context.Background()
	if err := cl.PutShard(ctx, "6f", 1, 0, -1, strings.NewReader("third writer")); !errors.Is(err, peer.ErrShardExists) {
		t.Fatalf("HTTP second write = %v, want ErrShardExists", err)
	}
	// Deleting first makes the slot writable again.
	if err := cl.DeleteShard(ctx, "6f", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutShard(ctx, "6f", 1, 0, -1, bytes.NewReader(first)); err != nil {
		t.Fatalf("write after delete = %v", err)
	}
}

// TestReplaceShardKeepsOldUntilWhole pins the repair write contract
// (peer.Replacer), locally and over the wire: a replace that dies
// mid-body leaves the old shard exactly as it was and no temporary file,
// and only a whole body takes its place.
func TestReplaceShardKeepsOldUntilWhole(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPeerAPI(ps, testClusterSecret, t.Logf))
	defer srv.Close()
	cl := peer.NewClient(peer.Member{ID: 0, Addr: srv.URL}, peer.ClientConfig{Secret: testClusterSecret})
	defer cl.Close()
	ctx := context.Background()
	old := []byte("old shard body, rotten in one unit")
	if _, err := ps.PutShard("6f", 1, 0, bytes.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	shard := func() []byte {
		t.Helper()
		rc, _, err := ps.GetShard("6f", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		b, _ := io.ReadAll(rc)
		return b
	}
	for tname, tr := range map[string]peer.Transport{"local": NewLocalTransport(ps), "http": cl} {
		r := tr.(peer.Replacer)
		torn := peer.NewFaultTransport(tr)
		torn.AddRule(peer.FaultRule{Op: peer.OpPutShard, TornAfter: 5})
		body := []byte(tname + " replacement body")
		if err := torn.ReplaceShard(ctx, "6f", 1, 0, int64(len(body)), bytes.NewReader(body)); err == nil {
			t.Fatalf("%s: torn replace succeeded", tname)
		}
		if got := shard(); !bytes.Equal(got, old) {
			t.Fatalf("%s: torn replace changed the shard to %q", tname, got)
		}
		// Over HTTP the peer notices the cut body after the client returned.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			left, _ := filepath.Glob(ps.shardPath("6f", 1, 0) + ".tmp*")
			if len(left) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: torn replace left %v behind", tname, left)
			}
		}
		if err := r.ReplaceShard(ctx, "6f", 1, 0, int64(len(body)), bytes.NewReader(body)); err != nil {
			t.Fatalf("%s: replace = %v", tname, err)
		}
		if got := shard(); !bytes.Equal(got, body) {
			t.Fatalf("%s: replace left %q", tname, got)
		}
		old = body
	}
}

// TestPeerAPIAuth proves the cluster secret gates every internal route
// with a definitive (non-retried) error.
func TestPeerAPIAuth(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPeerAPI(ps, "right-secret", t.Logf))
	defer srv.Close()

	bad := peer.NewClient(peer.Member{ID: 0, Addr: srv.URL}, peer.ClientConfig{Secret: "wrong"})
	defer bad.Close()
	ctx := context.Background()
	if err := bad.Ping(ctx); !errors.Is(err, peer.ErrUnauthorized) {
		t.Fatalf("wrong secret ping = %v, want ErrUnauthorized", err)
	}
	if err := bad.PutShard(ctx, "6f", 1, 0, -1, strings.NewReader("x")); !errors.Is(err, peer.ErrUnauthorized) {
		t.Fatalf("wrong secret put = %v, want ErrUnauthorized", err)
	}

	good := peer.NewClient(peer.Member{ID: 0, Addr: srv.URL}, peer.ClientConfig{Secret: "right-secret"})
	defer good.Close()
	if err := good.Ping(ctx); err != nil {
		t.Fatalf("right secret ping = %v", err)
	}
}

// faultCluster is the deterministic in-process rig (a LocalCluster under
// the tests' short field names): partition and torn-transfer scenarios
// replay identically under -race.
type faultCluster struct {
	gw     *Gateway
	stores []*PeerStore
	faults []*peer.FaultTransport
}

func newFaultCluster(t *testing.T, n, k, r, q, unit int) *faultCluster {
	t.Helper()
	lc, err := NewLocalCluster(t.TempDir(), n, GatewayConfig{
		K: k, R: r, UnitSize: unit, Workers: 2, WriteQuorum: q, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return &faultCluster{gw: lc.Gateway, stores: lc.Stores, faults: lc.faults}
}

// assertNoTrace asserts a failed write left nothing anywhere: no
// metadata replica and no shard files on any member.
func (c *faultCluster) assertNoTrace(t *testing.T, key string) {
	t.Helper()
	for i, ps := range c.stores {
		if _, err := ps.GetMeta(key); !errors.Is(err, peer.ErrMetaNotFound) {
			t.Fatalf("member %d holds metadata for an abandoned write (err=%v)", i, err)
		}
		ents, _ := os.ReadDir(ps.shardDir())
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), key+".") {
				t.Fatalf("member %d holds orphaned shard file %s from an abandoned write", i, e.Name())
			}
		}
	}
}

// TestQuorumWriteAbandonedOnPartition is the write-safety acceptance
// test: with write quorum k+1 and a partitioned member, a PUT must fail
// with ErrWriteQuorum and leave no committed metadata and no orphaned
// shards anywhere — the failed write is invisible.
func TestQuorumWriteAbandonedOnPartition(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 1, 1024) // quorum = k+1 = all 3 members
	c.faults[2].Partition()

	_, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(40, 50_000)), 50_000)
	if !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("partitioned PUT = %v, want ErrWriteQuorum", err)
	}
	if c.gw.quorumFailures.Load() != 1 {
		t.Fatal("quorum failure not counted")
	}
	c.assertNoTrace(t, objKey("obj"))

	// The cluster heals; the same write now lands and reads back.
	c.faults[2].Heal()
	want := randBytes(41, 50_000)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("post-heal write reads back wrong")
	}
}

// TestQuorumZeroToleratesDeadPeerAndScrubHeals: with write quorum k (q=0)
// a PUT succeeds despite a partitioned member; the missing shard is
// served degraded, and once the partition heals the cluster repair sweep
// (ScrubAll) rebuilds it in place.
func TestQuorumZeroToleratesDeadPeerAndScrubHeals(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 0, 1024) // quorum = k = 2
	c.faults[1].Partition()

	want := randBytes(50, 80_000)
	meta, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want)))
	if err != nil {
		t.Fatalf("PUT with one dead member under q=0 = %v", err)
	}

	victimShard := -1
	for i, m := range meta.Placement {
		if m == 1 {
			victimShard = i
		}
	}
	if victimShard < 0 {
		t.Fatal("placement skipped the partitioned member — test geometry broken")
	}

	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("degraded read under q=0 wrong")
	}
	if !o.Degraded() {
		t.Fatal("read missing the dead member's shard not degraded")
	}

	c.faults[1].Heal()
	rep := c.gw.ScrubAll(context.Background())
	if len(rep.Errors) > 0 {
		t.Fatalf("scrub errors: %v", rep.Errors)
	}
	if got := rep.Healed["obj"]; len(got) != 1 || got[0] != victimShard {
		t.Fatalf("scrub healed %v, want [%d]", got, victimShard)
	}
	o2, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if o2.Degraded() {
		t.Fatal("object still degraded after scrub heal")
	}
}

// TestQuorumConcurrentPartitionRace hammers the quorum path with
// concurrent writes while a member flaps — the -race drill for the
// fan-out bookkeeping. Every PUT must either commit (and read back
// byte-identical) or fail with ErrWriteQuorum leaving no trace.
func TestQuorumConcurrentPartitionRace(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 1, 1024)
	c.faults[2].Partition()

	const writers = 8
	var wg sync.WaitGroup
	results := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", w)
			body := randBytes(int64(60+w), 20_000)
			_, _, results[w] = c.gw.Put(context.Background(), name, bytes.NewReader(body), int64(len(body)))
		}(w)
	}
	// Heal mid-burst so some writes see the partition and some don't.
	time.Sleep(5 * time.Millisecond)
	c.faults[2].Heal()
	wg.Wait()

	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("obj-%d", w)
		if results[w] != nil {
			if !errors.Is(results[w], ErrWriteQuorum) {
				t.Fatalf("%s failed with %v, want ErrWriteQuorum", name, results[w])
			}
			c.assertNoTrace(t, objKey(name))
			continue
		}
		o, err := c.gw.Open(context.Background(), name)
		if err != nil {
			t.Fatalf("committed %s does not open: %v", name, err)
		}
		var buf bytes.Buffer
		_, err = o.Stream(&buf)
		o.Close()
		if err != nil {
			t.Fatalf("committed %s does not stream: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), randBytes(int64(60+w), 20_000)) {
			t.Fatalf("committed %s reads back wrong", name)
		}
	}
}

// TestTornDownloadDemotesMidStream arms a torn-transfer fault on one
// shard download: the stream dies partway through the body, and the
// verifying decode must demote that shard and reconstruct the rest of
// the object byte-identically.
func TestTornDownloadDemotesMidStream(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 1, 1024)
	want := randBytes(70, 200_000) // ~98 stripes of 2 KiB data each
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	key := objKey("obj")
	_, meta, err := c.gw.readMetaRaw(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	// Tear member placement[0]'s download after 8 units.
	victim := meta.Placement[0]
	c.faults[victim].AddRule(peer.FaultRule{Op: peer.OpGetShard, TornAfter: 8 * 1024})

	o, err := c.gw.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Degraded() {
		t.Fatal("degraded before the stream even started — torn fault fired early")
	}
	var buf bytes.Buffer
	if _, err := o.Stream(&buf); err != nil {
		t.Fatalf("stream with torn shard source = %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("torn mid-stream read returned wrong bytes")
	}
	if len(o.Demoted()) == 0 || !o.Degraded() {
		t.Fatalf("torn shard not demoted (demoted=%v degraded=%v)", o.Demoted(), o.Degraded())
	}
}

// TestTornUploadAbortsAtomically arms a torn-transfer fault on one shard
// upload: the receiving peer sees the source die mid-stream and must
// leave no partial shard file; with quorum k+1 unreachable the whole
// write unwinds.
func TestTornUploadAbortsAtomically(t *testing.T) {
	c := newFaultCluster(t, 3, 2, 1, 1, 1024)
	c.faults[2].AddRule(peer.FaultRule{Op: peer.OpPutShard, TornAfter: 2048})

	_, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(randBytes(80, 100_000)), 100_000)
	if !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("torn-upload PUT = %v, want ErrWriteQuorum", err)
	}
	c.assertNoTrace(t, objKey("obj"))
}

// TestGatewayAdmissionShedding proves PR 6's bounded-concurrency
// contract holds in gateway mode: with MaxStreams 1 and a PUT parked in
// the only slot, the next streaming request is shed with 429 and a
// Retry-After header while /healthz keeps answering.
func TestGatewayAdmissionShedding(t *testing.T) {
	lc, err := NewLocalCluster(t.TempDir(), 3, GatewayConfig{
		K: 2, R: 1, UnitSize: 1024, Workers: 2, MaxStreams: 1, WriteQuorum: 1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	c := &httpCluster{gw: lc.Gateway, stores: lc.Stores}
	c.api = httptest.NewServer(NewBackendHandler(c.gw, Config{Logf: t.Logf}))
	t.Cleanup(c.api.Close)

	// Park a PUT in the only admission slot: its body never finishes until
	// we close the pipe (also on failure, so the server's Close can drain).
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPut, c.api.URL+"/o/slow", pr)
		close(started)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-started
	pw.Write(randBytes(90, 4096))
	// The bytes reaching the server do not mean its handler has been
	// admitted yet; probing before it is would race the PUT for the slot.
	deadline := time.Now().Add(5 * time.Second)
	for c.gw.Scheduler().Admitted() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked PUT never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	for {
		resp, err := http.Get(c.api.URL + "/o/other")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("Retry-After = %q, want 1", ra)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second stream never shed (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Probes bypass the gate even while saturated.
	hresp, err := http.Get(c.api.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz gated: %s", hresp.Status)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.gw.Scheduler().Shed() == 0 {
		t.Fatal("shed requests not counted")
	}
}

// TestGatewayStatusSnapshot sanity-checks the /statusz document fields
// the README points operators at.
func TestGatewayStatusSnapshot(t *testing.T) {
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	c.put(t, "obj", randBytes(100, 10_000))
	st, ok := c.gw.StatusSnapshot().(Stats)
	if !ok {
		t.Fatalf("StatusSnapshot returned %T", c.gw.StatusSnapshot())
	}
	if st.Objects != 1 || st.Puts != 1 || st.Members != 3 || st.WriteQuorum != 1 || st.DataShards != 2 {
		t.Fatalf("snapshot = %+v", st)
	}
}

// TestGatewayReadPlan: a cluster GET moves only what it returns. Counted
// at the transports: a clean tail-range GET fetches one window from the
// one member holding it, a clean whole GET pulls the k data bodies, one
// from each data member, and neither asks any other member anything — no
// StatShard. A planned member dying mid-body still yields byte-identical
// data, with the demotion reported in the X-Gemmec-Degraded trailer (the
// header, sent before the fault, says clean), and the escalation brings
// in exactly the first parity shard by the same fetch, still with no
// stat.
func TestGatewayReadPlan(t *testing.T) {
	const k, r, unit = 4, 2, 1024
	c := newFaultCluster(t, k+r, k, r, 1, unit)
	want := randBytes(90, 40*k*unit-300)
	if _, _, err := c.gw.Put(context.Background(), "obj", bytes.NewReader(want), int64(len(want))); err != nil {
		t.Fatal(err)
	}
	_, meta, err := c.gw.readMetaRaw(context.Background(), objKey("obj"))
	if err != nil {
		t.Fatal(err)
	}
	// delta runs get and reports the shard fetches it made of each shard
	// index (through the member placement gives it) and the shard stats.
	delta := func(get func()) (gets [k + r]int, stats int) {
		var before [k + r][2]int
		for i, id := range meta.Placement {
			before[i] = [2]int{c.faults[id].Calls(peer.OpGetShard), c.faults[id].Calls(peer.OpStatShard)}
		}
		get()
		for i, id := range meta.Placement {
			gets[i] = c.faults[id].Calls(peer.OpGetShard) - before[i][0]
			stats += c.faults[id].Calls(peer.OpStatShard) - before[i][1]
		}
		return gets, stats
	}

	gets, stats := delta(func() {
		o, err := c.gw.OpenRange(context.Background(), "obj", -1, 100) // the final 100 bytes: one unit
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		var buf bytes.Buffer
		if _, err := o.Stream(&buf); err != nil || !bytes.Equal(buf.Bytes(), want[len(want)-100:]) {
			t.Fatalf("tail-range GET: %d bytes, err=%v", buf.Len(), err)
		}
	})
	// The last stripe carries 4*unit-300 payload bytes, so its final 100
	// sit in data shard 3.
	if gets != [k + r]int{0, 0, 0, 1, 0, 0} || stats != 0 {
		t.Errorf("clean tail-range GET: shard fetches %v and %d stats, want one of shard 3 and none", gets, stats)
	}

	gets, stats = delta(func() {
		o, err := c.gw.Open(context.Background(), "obj")
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		var buf bytes.Buffer
		if _, err := o.Stream(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("whole GET: %d bytes, err=%v", buf.Len(), err)
		}
	})
	if gets != [k + r]int{1, 1, 1, 1, 0, 0} || stats != 0 {
		t.Errorf("clean whole GET: shard fetches %v and %d stats, want one of each data shard and none", gets, stats)
	}

	c.faults[meta.Placement[1]].AddRule(peer.FaultRule{Op: peer.OpGetShard, TornAfter: 5 * unit})
	ts := httptest.NewServer(NewBackendHandler(c.gw, Config{Logf: t.Logf}))
	defer ts.Close()
	gets, stats = delta(func() {
		resp, err := ts.Client().Get(ts.URL + "/o/obj")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("X-Gemmec-Degraded"); got != "false" {
			t.Errorf("header X-Gemmec-Degraded = %q, want false: the member died after the headers", got)
		}
		if got := resp.Header.Get("X-Gemmec-Reconstructed"); got != "" {
			t.Errorf("header X-Gemmec-Reconstructed = %q, want none", got)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("GET with a planned member dying mid-body: %d bytes, err=%v", len(body), err)
		}
		if got := resp.Trailer.Get("X-Gemmec-Degraded"); got != "true" {
			t.Errorf("trailer X-Gemmec-Degraded = %q, want true", got)
		}
		if got := resp.Trailer.Get("X-Gemmec-Reconstructed"); got != "1" {
			t.Errorf("trailer X-Gemmec-Reconstructed = %q, want \"1\"", got)
		}
	})
	if gets != [k + r]int{1, 1, 1, 1, 1, 0} || stats != 0 {
		t.Errorf("GET demoting shard 1 mid-body: shard fetches %v and %d stats, want one of each data shard, one of shard 4 and none", gets, stats)
	}
}
