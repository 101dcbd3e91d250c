package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gemmec/internal/peer"
)

// psKey is the hex object key the PeerStore-level tests write under.
const psKey = "6f626a"

// putReplica writes key's metadata replica at gen, live or a tombstone:
// the two fields DeleteShard reads.
func putReplica(t testing.TB, ps *PeerStore, key string, gen int64, deleted bool) {
	t.Helper()
	doc := fmt.Sprintf(`{"name":"obj","gen":%d,"deleted":%v}`, gen, deleted)
	if err := ps.PutMeta(key, []byte(doc)); err != nil {
		t.Fatal(err)
	}
}

// readShard returns shard (key, gen, idx) whole, with the size GetShard
// reported.
func readShard(t *testing.T, ps *PeerStore, key string, gen uint64, idx int) ([]byte, int64) {
	t.Helper()
	rc, size, err := ps.GetShard(key, gen, idx)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b, size
}

// poolOne leaves one superseded shard of n bytes in ps's pool: gen 1 is
// written, a live replica at gen 2 supersedes it, and its delete
// recycles it.
func poolOne(t *testing.T, ps *PeerStore, n int) {
	t.Helper()
	if _, err := ps.PutShard(psKey, 1, 0, bytes.NewReader(randBytes(1, n))); err != nil {
		t.Fatal(err)
	}
	putReplica(t, ps, psKey, 2, false)
	if err := ps.DeleteShard(psKey, 1, 0); err != nil {
		t.Fatal(err)
	}
	if st := ps.Stats(); st.PooledFiles != 1 || st.PooledBytes != int64(n) {
		t.Fatalf("after a superseded delete the pool holds %d files, %d bytes; want 1, %d",
			st.PooledFiles, st.PooledBytes, n)
	}
}

// noTemps fails if any upload temp file is left in ps's shard directory.
func noTemps(t *testing.T, ps *PeerStore) {
	t.Helper()
	left, _ := filepath.Glob(filepath.Join(ps.shardDir(), "*.tmp*"))
	if len(left) > 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestClusterOverwritePoolsSupersededShards: a gateway overwrite recycles
// the superseded generation's files — the next upload is written into
// the very file the first generation used — and every generation reads
// back. A delete, tombstone reaping and a failed overwrite's rollback
// pool nothing: they unlink.
func TestClusterOverwritePoolsSupersededShards(t *testing.T) {
	ctx := context.Background()
	c := newFaultCluster(t, 3, 2, 1, 1, 1024)
	key := objKey("obj")
	put := func(seed int64) []byte {
		t.Helper()
		body := randBytes(seed, 20_000)
		if _, _, err := c.gw.Put(ctx, "obj", bytes.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
		c.gw.reclaims.Wait()
		return body
	}
	get := func(want []byte) {
		t.Helper()
		var got bytes.Buffer
		if _, _, err := c.gw.Get(ctx, "obj", &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("read back different bytes")
		}
	}
	// shardFile is member i's shard file of generation gen: a 3-member
	// ring places one shard of k+r = 3 on each.
	shardFile := func(i int, gen uint64) os.FileInfo {
		t.Helper()
		m, _ := filepath.Glob(filepath.Join(c.stores[i].shardDir(), fmt.Sprintf("%s.g%d.shard_*", key, gen)))
		if len(m) != 1 {
			t.Fatalf("member %d holds %v for generation %d, want one shard", i, m, gen)
		}
		fi, err := os.Stat(m[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}

	get(put(1))
	first := make([]os.FileInfo, len(c.stores))
	for i := range c.stores {
		first[i] = shardFile(i, 1)
	}
	get(put(2))
	for i, ps := range c.stores {
		if st := ps.Stats(); st.PooledFiles != 1 || st.PooledBytes != first[i].Size() {
			t.Fatalf("member %d pools %d files, %d bytes after an overwrite; want 1, %d",
				i, st.PooledFiles, st.PooledBytes, first[i].Size())
		}
	}
	want := put(3)
	get(want)
	for i := range c.stores {
		if !os.SameFile(first[i], shardFile(i, 3)) {
			t.Errorf("member %d wrote generation 3 into a fresh file, not generation 1's pooled one", i)
		}
	}

	// A failed overwrite rolls its shards back by unlinking them.
	pooled := func() []int64 {
		n := make([]int64, len(c.stores))
		for i, ps := range c.stores {
			n[i] = ps.Stats().PooledFiles
		}
		return n
	}
	before := pooled()
	c.faults[2].AddRule(peer.FaultRule{Op: peer.OpPutShard, TornAfter: 2048})
	body := randBytes(4, 20_000)
	if _, _, err := c.gw.Put(ctx, "obj", bytes.NewReader(body), int64(len(body))); !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("torn overwrite = %v, want ErrWriteQuorum", err)
	}
	c.faults[2].RemoveRules()
	c.gw.reclaims.Wait()
	for i, n := range pooled() {
		if n > before[i] {
			t.Fatalf("member %d pooled a rolled-back shard (%d -> %d files)", i, before[i], n)
		}
	}
	get(want)

	// A delete's tombstone, and the sweep that reaps it, unlink too.
	before = pooled()
	if err := c.gw.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	c.gw.reclaims.Wait()
	if rep := c.gw.ScrubAll(ctx); len(rep.Errors) > 0 {
		t.Fatalf("scrub after delete: %v", rep.Errors)
	}
	for i, n := range pooled() {
		if n > before[i] {
			t.Fatalf("member %d pooled a deleted object's shard (%d -> %d files)", i, before[i], n)
		}
		if ents, _ := os.ReadDir(c.stores[i].shardDir()); len(ents) > 0 {
			t.Fatalf("member %d still holds shard files after delete", i)
		}
	}
}

// TestClusterSequentialOverwritesPoolAtMostOne: the pool is capped by the
// most shard writes a member has had in flight at once, so a hundred
// one-at-a-time overwrites leave at most one pooled file per member.
func TestClusterSequentialOverwritesPoolAtMostOne(t *testing.T) {
	ctx := context.Background()
	c := newFaultCluster(t, 4, 2, 1, 1, 1024)
	var last []byte
	for i := 0; i < 100; i++ {
		last = randBytes(int64(i), 4096)
		if _, _, err := c.gw.Put(ctx, "obj", bytes.NewReader(last), int64(len(last))); err != nil {
			t.Fatal(err)
		}
	}
	c.gw.reclaims.Wait()
	for i, ps := range c.stores {
		if n := ps.Stats().PooledFiles; n > 1 {
			t.Errorf("member %d pools %d files after sequential overwrites, want at most 1", i, n)
		}
		if ents, _ := os.ReadDir(ps.freeDir()); len(ents) > 1 {
			t.Errorf("member %d's pool directory holds %d files", i, len(ents))
		}
	}
	var got bytes.Buffer
	if _, _, err := c.gw.Get(ctx, "obj", &got); err != nil || !bytes.Equal(got.Bytes(), last) {
		t.Fatalf("last overwrite did not read back (err %v)", err)
	}
}

// TestPeerStoreDeleteRecyclesOnlySuperseded: a shard is pooled only when
// the member's replica is live at a newer generation; no replica, a
// tombstone, or a replica at the shard's own generation unlinks it.
func TestPeerStoreDeleteRecyclesOnlySuperseded(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		replica func()
	}{
		{"no replica", func() {}},
		{"tombstone", func() { putReplica(t, ps, psKey, 2, true) }},
		{"same generation", func() { putReplica(t, ps, psKey, 1, false) }},
	} {
		ps.DeleteObject(psKey)
		if _, err := ps.PutShard(psKey, 1, 0, strings.NewReader("shard body")); err != nil {
			t.Fatal(err)
		}
		tc.replica()
		if err := ps.DeleteShard(psKey, 1, 0); err != nil {
			t.Fatal(err)
		}
		if n := ps.Stats().PooledFiles; n != 0 {
			t.Fatalf("%s: delete pooled the shard", tc.name)
		}
		if _, err := ps.StatShard(psKey, 1, 0); !errors.Is(err, peer.ErrShardNotFound) {
			t.Fatalf("%s: shard still there after delete: %v", tc.name, err)
		}
	}
	ps.DeleteObject(psKey)
	poolOne(t, ps, 100)
}

// TestPeerStorePoolCappedByConcurrentWrites: superseded deletes that
// outnumber the uploads — shards moved off a member — pool no more files
// than the most shard writes it has had in flight at once; the rest are
// unlinked.
func TestPeerStorePoolCappedByConcurrentWrites(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 5; idx++ {
		if _, err := ps.PutShard(psKey, 1, idx, strings.NewReader("shard body")); err != nil {
			t.Fatal(err)
		}
	}
	putReplica(t, ps, psKey, 2, false)
	for idx := 0; idx < 5; idx++ {
		if err := ps.DeleteShard(psKey, 1, idx); err != nil {
			t.Fatal(err)
		}
	}
	if n := ps.Stats().PooledFiles; n != 1 {
		t.Fatalf("five superseded deletes after one-at-a-time writes pooled %d files, want 1", n)
	}
	if ents, _ := os.ReadDir(ps.shardDir()); len(ents) != 0 {
		t.Fatalf("%d shard files left after their deletes", len(ents))
	}
}

// TestPeerStorePooledFileTruncated: an upload into a pooled file longer
// than itself, queued for writeback in windows, leaves no tail of the old
// shard.
func TestPeerStorePooledFileTruncated(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	poolOne(t, ps, 3*writebackWindow)
	log := recordDisk(t, ps, psKey, 2, 0)
	want := randBytes(2, writebackWindow+700)
	if _, err := ps.PutShard(psKey, 2, 0, readerOnly{bytes.NewReader(want)}); err != nil {
		t.Fatal(err)
	}
	if n := ps.Stats().PooledFiles; n != 0 {
		t.Fatalf("upload left the pool at %d files, want it to take the pooled one", n)
	}
	checkWindows(t, windows(*log), int64(len(want)))
	got, size := readShard(t, ps, psKey, 2, 0)
	if size != int64(len(want)) || !bytes.Equal(got, want) {
		t.Fatalf("GetShard = %d bytes (reported %d), want the %d written", len(got), size, len(want))
	}
	if n, err := ps.StatShard(psKey, 2, 0); err != nil || n != int64(len(want)) {
		t.Fatalf("StatShard = %d, %v; want %d", n, err, len(want))
	}
	noTemps(t, ps)
}

// tornReader yields its body, then fails like a dropped upload instead
// of ending.
type tornReader struct {
	r io.Reader
}

func (t *tornReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		return n, errors.New("upload torn")
	}
	return n, err
}

// TestPutShardTornIntoPooledFile: a torn upload into a pooled file leaves
// no shard and no temp file, and the pooled file goes with it.
func TestPutShardTornIntoPooledFile(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	poolOne(t, ps, 10_000)
	if _, err := ps.PutShard(psKey, 2, 0, &tornReader{bytes.NewReader(randBytes(3, 5000))}); err == nil {
		t.Fatal("torn upload succeeded")
	}
	if _, err := ps.StatShard(psKey, 2, 0); !errors.Is(err, peer.ErrShardNotFound) {
		t.Fatalf("torn upload left a shard: %v", err)
	}
	noTemps(t, ps)
	if st := ps.Stats(); st.PooledFiles != 0 {
		t.Fatalf("torn upload returned its file to the pool: %+v", st)
	}
	if ents, _ := os.ReadDir(ps.freeDir()); len(ents) != 0 {
		t.Fatalf("pool directory holds %d files after the torn upload took its only one", len(ents))
	}
}

// barrierReader holds its body until every reader sharing the barrier
// has been asked for bytes — so every upload has taken its temp file
// before any finishes.
type barrierReader struct {
	r    io.Reader
	wg   *sync.WaitGroup
	once sync.Once
}

func (b *barrierReader) Read(p []byte) (int, error) {
	b.once.Do(func() { b.wg.Done(); b.wg.Wait() })
	return b.r.Read(p)
}

// putConcurrently uploads bodies to (psKey, gen, 0) at once, each held
// until all are in flight, and returns each upload's error.
func putConcurrently(ps *PeerStore, gen uint64, bodies [][]byte) []error {
	var barrier, done sync.WaitGroup
	barrier.Add(len(bodies))
	errs := make([]error, len(bodies))
	for i, b := range bodies {
		done.Add(1)
		go func(i int, b []byte) {
			defer done.Done()
			_, errs[i] = ps.PutShard(psKey, gen, 0, &barrierReader{r: bytes.NewReader(b), wg: &barrier})
		}(i, b)
	}
	done.Wait()
	return errs
}

// TestPutShardRacingPooledWriters: two uploads of one shard that both
// write into pooled files still end with exactly one whole winner and
// peer.ErrShardExists for the other.
func TestPutShardRacingPooledWriters(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Two fresh writers racing raise the pool's cap to two; two
	// superseded deletes fill it.
	old := [][]byte{randBytes(5, 9000), randBytes(6, 9000)}
	if errs := putConcurrently(ps, 1, old); (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("racing fresh writers: errors %v, want exactly one winner", errs)
	}
	if _, err := ps.PutShard(psKey, 1, 1, bytes.NewReader(old[1])); err != nil {
		t.Fatal(err)
	}
	putReplica(t, ps, psKey, 2, false)
	for idx := 0; idx < 2; idx++ {
		if err := ps.DeleteShard(psKey, 1, idx); err != nil {
			t.Fatal(err)
		}
	}
	if n := ps.Stats().PooledFiles; n != 2 {
		t.Fatalf("pool holds %d files, want 2", n)
	}

	bodies := [][]byte{randBytes(7, 4000), randBytes(8, 6000)}
	errs := putConcurrently(ps, 2, bodies)
	winner := -1
	for i, e := range errs {
		switch {
		case e == nil && winner < 0:
			winner = i
		case e == nil:
			t.Fatal("both racing writers won")
		case !errors.Is(e, peer.ErrShardExists):
			t.Fatalf("losing writer = %v, want peer.ErrShardExists", e)
		}
	}
	if winner < 0 {
		t.Fatal("neither racing writer won")
	}
	if n := ps.Stats().PooledFiles; n != 0 {
		t.Fatalf("racing writers left %d pooled files, want both taken", n)
	}
	got, size := readShard(t, ps, psKey, 2, 0)
	if size != int64(len(bodies[winner])) || !bytes.Equal(got, bodies[winner]) {
		t.Fatalf("shard holds %d bytes, not the winner's %d", len(got), len(bodies[winner]))
	}
	noTemps(t, ps)
}

// TestPeerStoreReaderOutlivesDelete: a shard body opened before its
// generation is superseded and deleted reads the old bytes to the end,
// even when the next upload could have been written into its file.
func TestPeerStoreReaderOutlivesDelete(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := randBytes(9, 64<<10)
	if _, err := ps.PutShard(psKey, 1, 0, bytes.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	whole, _, err := ps.GetShard(psKey, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	window, _, err := ps.GetShardRange(psKey, 1, 0, 1000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	// Half of the whole body is read before the delete, half after.
	head := make([]byte, len(old)/2)
	if _, err := io.ReadFull(whole, head); err != nil {
		t.Fatal(err)
	}
	putReplica(t, ps, psKey, 2, false)
	if err := ps.DeleteShard(psKey, 1, 0); err != nil {
		t.Fatal(err)
	}
	if n := ps.Stats().PooledFiles; n != 0 {
		t.Fatalf("delete pooled a shard two readers hold (%d pooled)", n)
	}
	if _, err := ps.PutShard(psKey, 2, 0, bytes.NewReader(randBytes(10, len(old)))); err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(head, tail...), old) {
		t.Fatal("whole-shard reader saw bytes other than the deleted generation's")
	}
	got, err := io.ReadAll(window)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old[1000:31_000]) {
		t.Fatal("ranged reader saw bytes other than the deleted generation's")
	}
	whole.Close()
	window.Close()
	if err := whole.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("second Close = %v, want os.ErrClosed", err)
	}
	ps.mu.Lock()
	held := len(ps.readers)
	ps.mu.Unlock()
	if held != 0 {
		t.Fatalf("%d shard paths still counted as read after every reader closed", held)
	}

	// With its readers gone, the next superseded delete recycles.
	putReplica(t, ps, psKey, 3, false)
	if err := ps.DeleteShard(psKey, 2, 0); err != nil {
		t.Fatal(err)
	}
	if n := ps.Stats().PooledFiles; n != 1 {
		t.Fatalf("superseded delete with no reader pooled %d files, want 1", n)
	}
}

// TestOpenPeerStoreRemovesLeftoverPool: a pool is process state; a
// reopen starts with none, on disk or counted.
func TestOpenPeerStoreRemovesLeftoverPool(t *testing.T) {
	root := t.TempDir()
	ps, err := OpenPeerStore(root)
	if err != nil {
		t.Fatal(err)
	}
	poolOne(t, ps, 5000)
	ps, err = OpenPeerStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(ps.freeDir()); len(ents) != 0 {
		t.Fatalf("reopen left %d pooled files on disk", len(ents))
	}
	if st := ps.Stats(); st.PooledFiles != 0 || st.PooledBytes != 0 {
		t.Fatalf("reopened store counts a pool: %+v", st)
	}
}

// TestPeerStoreMetrics: the pool and the shard traffic are on /metricsz.
func TestPeerStoreMetrics(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(nil)
	m.RegisterPeerStore(ps)
	ts := httptest.NewServer(m.Registry.Handler())
	defer ts.Close()
	if _, err := ps.PutShard(psKey, 5, 1, bytes.NewReader(randBytes(2, 3000))); err != nil {
		t.Fatal(err)
	}
	readShard(t, ps, psKey, 5, 1)
	poolOne(t, ps, 7000)
	got := scrape(t, ts)
	for name, want := range map[string]float64{
		"gemmec_peerstore_pooled_files":          1,
		"gemmec_peerstore_pooled_bytes":          7000,
		"gemmec_peerstore_shard_puts_total":      2,
		"gemmec_peerstore_shard_bytes_in_total":  10_000,
		"gemmec_peerstore_shard_gets_total":      1,
		"gemmec_peerstore_shard_bytes_out_total": 3000,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
}

// BenchmarkPeerStoreOverwrite is one member's side of an overwrite, shard
// by shard: put generation n, write the replica at n, delete n−1. Under
// "fresh" the replica is a tombstone, so the delete unlinks and every
// upload allocates a new file; under "superseded" it is live, so the
// delete pools the file and the next upload overwrites its blocks. The
// "x6" cases upload six shards at once, a cluster PUT's k+r fsyncs landing
// together, each body arriving in copy-buffer reads as from the wire;
// "x6-fsync-only" queues no writeback windows, so the pair prices the
// windows alone.
func BenchmarkPeerStoreOverwrite(b *testing.B) {
	body := randBytes(1, 2<<20)
	for _, tc := range []struct {
		name      string
		deleted   bool
		shards    int
		writeback bool
	}{
		{"fresh", true, 1, true},
		{"superseded", false, 1, true},
		{"superseded-x6", false, 6, true},
		{"superseded-x6-fsync-only", false, 6, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ps, err := OpenPeerStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if !tc.writeback {
				ps.writeback = func(*os.File, int64, int64) {}
			}
			errs := make([]error, tc.shards)
			b.SetBytes(int64(tc.shards * len(body)))
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				gen := uint64(i)
				var wg sync.WaitGroup
				for idx := range tc.shards {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[idx] = ps.PutShard(psKey, gen, idx, readerOnly{bytes.NewReader(body)})
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					b.Fatal(err)
				}
				putReplica(b, ps, psKey, int64(gen), tc.deleted)
				for idx := range tc.shards {
					if err := ps.DeleteShard(psKey, gen-1, idx); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// readerOnly hides every method of its reader but Read, as an upload's
// HTTP body does: io.CopyBuffer then copies through its buffer.
type readerOnly struct{ io.Reader }

// diskEvent is one call an upload made toward the disk: a writeback
// window [off, off+n), or an fsync of the file or directory synced.
type diskEvent struct {
	off, n int64
	synced string // base name of what was fsynced; "" for a window
	shard  int64  // the shard's size under its name at the fsync, -1 if absent
}

// recordDisk makes ps log, in order, the writeback windows and fsyncs
// its uploads to (key, gen, idx) make, and still makes each call. A
// window must be issued on a file that is still open and must start
// where the last one ended, or the test fails on the spot.
func recordDisk(t *testing.T, ps *PeerStore, key string, gen uint64, idx int) *[]diskEvent {
	var log []diskEvent
	var next int64
	writeback, syncFile := ps.writeback, ps.fsync
	ps.writeback = func(f *os.File, off, n int64) {
		if _, err := f.Stat(); err != nil {
			t.Fatalf("window [%d, +%d) issued on a closed file: %v", off, n, err)
		}
		if off != next || n != writebackWindow {
			t.Fatalf("window [%d, +%d) issued, want [%d, +%d)", off, n, next, writebackWindow)
		}
		next += n
		log = append(log, diskEvent{off: off, n: n})
		writeback(f, off, n)
	}
	ps.fsync = func(f *os.File) error {
		size, err := ps.StatShard(key, gen, idx)
		if err != nil {
			size = -1
		}
		log = append(log, diskEvent{synced: filepath.Base(f.Name()), shard: size})
		return syncFile(f)
	}
	return &log
}

// windows returns the writeback windows among log's events.
func windows(log []diskEvent) []diskEvent {
	var w []diskEvent
	for _, e := range log {
		if e.synced == "" {
			w = append(w, e)
		}
	}
	return w
}

// checkWindows fails unless windows tile [0, k·writebackWindow) in order,
// k = written / writebackWindow: every written byte but the open tail,
// which is shorter than a window.
func checkWindows(t *testing.T, windows []diskEvent, written int64) {
	t.Helper()
	if want := written / writebackWindow; int64(len(windows)) != want {
		t.Fatalf("%d bytes written queued %d windows, want %d", written, len(windows), want)
	}
	for i, w := range windows {
		if off := int64(i) * writebackWindow; w.off != off || w.n != writebackWindow {
			t.Fatalf("window %d is [%d, +%d), want [%d, +%d)", i, w.off, w.n, off, writebackWindow)
		}
	}
}

// TestPeerStoreWritebackWindows: whatever sizes an upload arrives in, the
// windows its writer queues are contiguous, do not overlap, and cover
// every written byte except the open tail.
func TestPeerStoreWritebackWindows(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "upload"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var queued []diskEvent
	w := &writebackWriter{f: f, queue: func(_ *os.File, off, n int64) {
		if len(queued) > 64 {
			t.Fatalf("runaway writer: %d windows queued", len(queued))
		}
		queued = append(queued, diskEvent{off: off, n: n})
	}}
	var written int64
	write := func(size int) {
		t.Helper()
		n, err := w.Write(make([]byte, size))
		if err != nil || n != size {
			t.Fatalf("Write(%d bytes) = %d, %v", size, n, err)
		}
		written += int64(n)
		checkWindows(t, queued, written)
	}
	for _, size := range []int{1, 4095, 32 << 10, writebackWindow - 1, 1, writebackWindow,
		3*writebackWindow + 17, 0, 100_000} {
		write(size)
	}
	write(writebackWindow - int(written%writebackWindow)) // ends on a window boundary
	if fi, err := f.Stat(); err != nil || fi.Size() != written {
		t.Fatalf("file holds %v bytes (%v), want %d", fi.Size(), err, written)
	}
}

// TestPutShardWritebackThenFsyncThenLink: an upload queues its windows
// while it streams, and its ack path is what it was: fsync of the temp
// file while the shard's name still shows nothing new, then the link (or
// the rename of a repair), then the fsync of shards/, all before the
// call returns.
func TestPutShardWritebackThenFsyncThenLink(t *testing.T) {
	for _, replace := range []bool{false, true} {
		ps, err := OpenPeerStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		put, old := ps.PutShard, int64(-1)
		if replace {
			put, old = ps.ReplaceShard, 100
			if _, err := ps.PutShard(psKey, 1, 0, bytes.NewReader(randBytes(1, int(old)))); err != nil {
				t.Fatal(err)
			}
		}
		log := recordDisk(t, ps, psKey, 1, 0)
		body := randBytes(2, 2*writebackWindow+5000)
		if _, err := put(psKey, 1, 0, readerOnly{bytes.NewReader(body)}); err != nil {
			t.Fatal(err)
		}
		checkWindows(t, windows(*log), int64(len(body)))
		if len(*log) != 4 {
			t.Fatalf("replace=%v: disk calls %+v, want two windows and two fsyncs", replace, *log)
		}
		if e := (*log)[2]; !strings.Contains(e.synced, ".tmp") || e.shard != old {
			t.Fatalf("replace=%v: third call %+v, want the temp file's fsync with the shard at %d bytes", replace, e, old)
		}
		if e := (*log)[3]; e.synced != "shards" || e.shard != int64(len(body)) {
			t.Fatalf("replace=%v: last call %+v, want the fsync of shards/ after the new shard is linked", replace, e)
		}
		if got, _ := readShard(t, ps, psKey, 1, 0); !bytes.Equal(got, body) {
			t.Fatalf("replace=%v: shard does not read back", replace)
		}
		noTemps(t, ps)
	}
}

// TestPutShardWritebackOneLargeWrite: a body that arrives as one write —
// a bytes.Reader copies itself through WriteTo — is queued in windows
// too.
func TestPutShardWritebackOneLargeWrite(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := recordDisk(t, ps, psKey, 1, 0)
	body := randBytes(3, 4*writebackWindow+100)
	if _, err := ps.PutShard(psKey, 1, 0, bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	checkWindows(t, windows(*log), int64(len(body)))
	if got, _ := readShard(t, ps, psKey, 1, 0); !bytes.Equal(got, body) {
		t.Fatal("shard does not read back")
	}
}

// TestPutShardTornIssuesNoWindowAfterError: a torn upload has queued the
// windows it wrote and none after its body failed, is never fsynced, and
// leaves neither a shard nor a temp file.
func TestPutShardTornIssuesNoWindowAfterError(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := recordDisk(t, ps, psKey, 1, 0)
	delivered := 2*writebackWindow + 1000
	if _, err := ps.PutShard(psKey, 1, 0, &tornReader{bytes.NewReader(randBytes(4, delivered))}); err == nil {
		t.Fatal("torn upload succeeded")
	}
	checkWindows(t, windows(*log), int64(delivered))
	if len(*log) != 2 {
		t.Fatalf("torn upload made disk calls %+v, want its two windows only", *log)
	}
	if _, err := ps.StatShard(psKey, 1, 0); !errors.Is(err, peer.ErrShardNotFound) {
		t.Fatalf("torn upload left a shard: %v", err)
	}
	noTemps(t, ps)
}

// TestPutShardCopyBufferPooled: an upload copied through putShard's
// buffer — a body without WriteTo, as on the wire — takes the buffer
// from the pool instead of allocating its own.
func TestPutShardCopyBufferPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := randBytes(6, writebackWindow+1000)
	rd := bytes.NewReader(nil)
	put := func() {
		rd.Reset(body)
		if _, err := ps.PutShard(psKey, 1, 0, readerOnly{rd}); err != nil {
			t.Fatal(err)
		}
		if err := ps.DeleteShard(psKey, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, put)
	runtime.ReadMemStats(&after)
	perUpload := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("PutShard+DeleteShard: %.0f allocs, %d bytes per upload", allocs, perUpload)
	if buf := uint64(len(*copyBufs.Get().(*[]byte))); perUpload >= buf {
		t.Fatalf("an upload allocates %d bytes, at least its %d-byte copy buffer", perUpload, buf)
	}
}

// TestPeerAPIShardGetSendsFile: a whole-shard GET hands the shard's
// *os.File itself to the response's ReadFrom, the path to sendfile.
func TestPeerAPIShardGetSendsFile(t *testing.T) {
	ps, err := OpenPeerStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := randBytes(7, 100_000)
	if _, err := ps.PutShard(psKey, 1, 0, bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	NewPeerAPI(ps, "", nil).ServeHTTP(rec, httptest.NewRequest("GET", "/internal/shard/"+psKey+"/1/0", nil))
	if _, ok := rec.src.(*os.File); !ok {
		t.Fatalf("ReadFrom got a %T, want the *os.File", rec.src)
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatal("GET served different bytes")
	}
	ps.mu.Lock()
	held := len(ps.readers)
	ps.mu.Unlock()
	if held != 0 {
		t.Fatal("the served shard is still counted as read")
	}
}

// readFromRecorder is a ResponseRecorder with net/http's ReadFrom,
// remembering what it was handed.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	src io.Reader
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.src = src
	return io.Copy(r.ResponseRecorder, src)
}
