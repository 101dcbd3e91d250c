package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gemmec/internal/shardfile"
)

// Small-object packing ("slabs").
//
// A PUT at or below StoreConfig.SlabThreshold does not get its own shard
// set: paying k+r file creates, an encode setup and a manifest for a
// 100-byte object is exactly the fixed-cost-versus-throughput trade the
// paper's pipeline already fights at stripe granularity, resurfacing at
// object granularity under heavy small-object traffic. Instead the bytes
// are handed to the store's single slab writer goroutine, which
// group-commits a batch of small objects into ONE erasure-coded shard set
// (a "slab") after SlabWindow of latency or SlabMaxBytes of payload,
// whichever comes first.
//
// Durability is preserved: a small PUT blocks until the batch containing
// its bytes is fully committed (shards written + slab metadata renamed
// into place), then records itself as a window into the slab via
// ObjectMeta.Slab. Reads resolve the ref and open the slab over the
// member's byte range only (shardfile.OpenRangePaths), so a member GET
// reads the data units the member lives in, not the slab. Slabs are coded
// in slabUnit units whatever StoreConfig.UnitSize says, so a member of at
// most 4 KiB that starts on a 4 KiB boundary (every member, when all are
// 4 KiB) costs one 4 KiB unit of I/O and CRC work, not a 128 KiB one; a
// larger member reads every 4 KiB unit it spans.
//
// Slabs are immutable: every flush allocates a fresh "slab_<n>" key
// (non-hex, so slabs never appear in the object catalog). Deleting or
// overwriting a member only rewrites the member's metadata; the slab
// keeps the dead bytes until the scrubber observes that no live member
// references it and reclaims the whole slab (store.scrubSlab). A freshly
// flushed slab is pinned (Store.pendingSlabs) until every batch member
// has settled, so the scrubber cannot reclaim a slab in the window
// between the slab commit and the first references.
//
// Lock order is member → slab, everywhere: a member read holds the member
// lock, then takes the slab's read lock. The flusher locks only the fresh
// slab key it just allocated — never a member lock — so a PUT blocked in
// the flusher while holding its member lock cannot deadlock.

// slabUnit is the unit size slabs are coded in: the page size, the
// granule a member read is served in. The slab's manifest records it, so
// slabs coded in other units (StoreConfig.UnitSize, before slabs had their
// own) still read.
const slabUnit = 4 << 10

// errStoreClosed reports an operation against a store whose background
// machinery has been stopped.
var errStoreClosed = errors.New("server: store closed")

// slabResult is the flusher's answer to one packed PUT.
type slabResult struct {
	ref SlabRef
	err error
}

// slabReq is one small object waiting to be packed. done is buffered so
// the flusher never blocks on an abandoned waiter. settled and slab are
// guarded by the store's mu: settled is set by settleSlab on every exit
// from putSlab after a successful submit — member metadata committed,
// commit failed, or request abandoned — and slab names the pin the member
// holds a reference on, once the flusher has counted it (see pinSlab).
type slabReq struct {
	key     string
	data    []byte
	done    chan slabResult
	settled bool
	slab    string
}

// slabWriter is the store's group-commit engine: one goroutine, one
// in-flight batch.
type slabWriter struct {
	s        *Store
	ch       chan *slabReq
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

func startSlabWriter(s *Store) *slabWriter {
	w := &slabWriter{
		s:    s,
		ch:   make(chan *slabReq),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.loop()
	return w
}

// stop flushes any pending batch and waits for the loop to exit.
// Idempotent.
func (w *slabWriter) stop() {
	w.quitOnce.Do(func() { close(w.quit) })
	<-w.done
}

// submit hands one request to the flusher, failing fast when the request
// context dies or the store closes first.
func (w *slabWriter) submit(ctx context.Context, r *slabReq) error {
	select {
	case w.ch <- r:
		return nil
	case <-w.quit:
		return errStoreClosed
	case <-ctx.Done():
		return ctxErr(ctx)
	}
}

// loop accumulates requests into a batch and flushes when the batch ages
// past SlabWindow (counted from its first member), fills past
// SlabMaxBytes, or the store closes.
func (w *slabWriter) loop() {
	defer close(w.done)
	var (
		batch   []*slabReq
		pending int64
		timer   *time.Timer
		fire    <-chan time.Time
	)
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, fire = nil, nil
		}
		if len(batch) == 0 {
			return
		}
		w.flushBatch(batch)
		batch, pending = nil, 0
	}
	for {
		select {
		case r := <-w.ch:
			batch = append(batch, r)
			pending += int64(len(r.data))
			if fire == nil {
				timer = time.NewTimer(w.s.cfg.SlabWindow)
				fire = timer.C
			}
			if pending >= w.s.cfg.SlabMaxBytes {
				flush()
			}
		case <-fire:
			timer, fire = nil, nil
			flush()
		case <-w.quit:
			// Drain anything a racing submit already committed to the
			// channel, commit the final batch, and exit.
			for {
				select {
				case r := <-w.ch:
					batch = append(batch, r)
					continue
				default:
				}
				break
			}
			flush()
			return
		}
	}
}

// flushBatch commits one batch as a fresh slab and answers every waiter.
// It runs on the flusher goroutine with NO member locks held; each waiter
// writes its own member metadata after hearing back, under the member
// lock it held across the whole PUT.
func (w *slabWriter) flushBatch(batch []*slabReq) {
	s := w.s
	payload := make([]byte, 0, func() (n int) {
		for _, r := range batch {
			n += len(r.data)
		}
		return
	}())
	for _, r := range batch {
		payload = append(payload, r.data...)
	}
	key := fmt.Sprintf("slab_%d", s.slabSeq.Add(1))
	// Pin the slab before its metadata can become visible on disk: between
	// the slab commit below and each waiter's own member-metadata commit
	// (putSlab, after hearing back), a scrub sweep would see a slab with
	// zero live references and reclaim it — then the PUTs would commit
	// member metadata pointing at deleted shards and acknowledge lost
	// data. The pin makes scrubSlab skip the slab until every batch member
	// has settled.
	s.pinSlab(key, batch...)
	l := s.lockKey(key)
	err := func() error {
		defer l.Unlock()
		if err := s.ensureDirs(); err != nil {
			return err
		}
		meta := ObjectMeta{Name: key, Gen: 1, Placement: s.placement()}
		paths := s.shardPaths(key, meta)
		m, _, err := shardfile.WriteStreamPaths(paths, bytes.NewReader(payload), int64(len(payload)),
			s.cfg.K, s.cfg.R, slabUnit, 0, s.fileOpts(context.Background()))
		if err != nil {
			s.removeFiles(paths)
			return err
		}
		// Record the member windows in the slab's own manifest too: the
		// scrubber walks them to decide liveness, and they make a slab
		// self-describing on disk.
		off := int64(0)
		for _, r := range batch {
			m.Slab = append(m.Slab, shardfile.SlabEntry{Name: r.key, Offset: off, Size: int64(len(r.data))})
			off += int64(len(r.data))
		}
		meta.Manifest = m
		if err := s.saveMeta(key, meta); err != nil {
			s.removeFiles(paths)
			return err
		}
		return nil
	}()
	if err == nil {
		s.slabFlushes.Add(1)
	}
	// Drop the flusher's own reference before answering: from here the pin
	// lasts exactly as long as some member has not settled — including
	// members that abandoned the batch on cancellation, whose windows stay
	// dead until a later sweep reclaims the slab — so it is gone by the
	// time the batch's last PUT returns.
	s.unpinSlab(key)
	off := int64(0)
	for _, r := range batch {
		res := slabResult{err: err}
		if err == nil {
			res.ref = SlabRef{Key: key, Offset: off, Size: int64(len(r.data))}
		}
		off += int64(len(r.data))
		r.done <- res
	}
}

// pinSlab marks key ineligible for scrub reclamation (see flushBatch): it
// takes one reference on key's pin for the caller, released by unpinSlab,
// and one for each member of batch that has not settled yet, released by
// settleSlab. The last release lifts the pin. Slab keys are never reused
// (slabSeq is monotonic and restarts resume past the highest committed
// key), so a lifted pin never returns.
func (s *Store) pinSlab(key string, batch ...*slabReq) {
	s.mu.Lock()
	s.pendingSlabs[key]++
	for _, r := range batch {
		if !r.settled {
			r.slab = key
			s.pendingSlabs[key]++
		}
	}
	s.mu.Unlock()
}

// unpinSlab releases the caller's reference on key's pin.
func (s *Store) unpinSlab(key string) {
	s.mu.Lock()
	s.releasePin(key)
	s.mu.Unlock()
}

// settleSlab records that r's PUT is done with its batch and releases the
// reference it holds on the slab's pin, if the flusher counted it.
func (s *Store) settleSlab(r *slabReq) {
	s.mu.Lock()
	r.settled = true
	if r.slab != "" {
		s.releasePin(r.slab)
	}
	s.mu.Unlock()
}

// releasePin drops one reference on key's pin. Called with mu held.
func (s *Store) releasePin(key string) {
	if s.pendingSlabs[key]--; s.pendingSlabs[key] <= 0 {
		delete(s.pendingSlabs, key)
	}
}

// slabPinned reports whether key's batch is still settling.
func (s *Store) slabPinned(key string) bool {
	s.mu.Lock()
	_, ok := s.pendingSlabs[key]
	s.mu.Unlock()
	return ok
}

// maxSlabSeq scans the metadata directory for the highest committed slab
// number, so restarts keep allocating fresh keys instead of colliding
// with surviving slabs.
func (s *Store) maxSlabSeq() int64 {
	ents, err := os.ReadDir(s.metaDir())
	if err != nil {
		return 0
	}
	var max int64
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		num, ok := strings.CutPrefix(key, "slab_")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(num, 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// listSlabKeys returns the committed slab keys, unordered.
func (s *Store) listSlabKeys() []string {
	ents, err := os.ReadDir(s.metaDir())
	if err != nil {
		return nil
	}
	var keys []string
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !strings.HasPrefix(key, "slab_") {
			continue
		}
		keys = append(keys, key)
	}
	return keys
}

// putSlab is Put's small-object fast path: pack data into the next slab
// batch and commit the member metadata once the batch lands. Called with
// the member's exclusive lock held; meta carries the (possibly bumped)
// generation and oldPaths the previous generation's shard files, exactly
// like the direct path.
func (s *Store) putSlab(ctx context.Context, key string, meta ObjectMeta, oldPaths []string, data []byte) (ObjectMeta, error) {
	req := &slabReq{key: key, data: data, done: make(chan slabResult, 1)}
	if err := s.slab.submit(ctx, req); err != nil {
		return ObjectMeta{}, err
	}
	// Once submitted, the flusher pins the batch's slab until every member
	// settles; settle ours on every exit path — member metadata committed,
	// commit failed, or request abandoned below.
	defer s.settleSlab(req)
	var res slabResult
	select {
	case res = <-req.done:
	case <-ctx.Done():
		// The batch may still commit; our bytes then sit dead in the slab
		// until the scrubber reclaims it. The canceled PUT itself commits
		// nothing — the member metadata below is never written.
		return ObjectMeta{}, ctxErr(ctx)
	case <-s.slab.done:
		// Store closed under us; check whether the final drain served this
		// request before giving up.
		select {
		case res = <-req.done:
		default:
			return ObjectMeta{}, errStoreClosed
		}
	}
	if res.err != nil {
		return ObjectMeta{}, res.err
	}
	meta.Slab = &res.ref
	if err := s.saveMeta(key, meta); err != nil {
		return ObjectMeta{}, err
	}
	s.removeFiles(oldPaths)
	s.puts.Add(1)
	s.slabPuts.Add(1)
	s.bytesIn.Add(res.ref.Size)
	s.m().recordObjectBytes("put", res.ref.Size)
	return meta, nil
}

// scrubSlab verifies one slab's shards, healing damage in place like any
// object — unless no live member references it anymore, in which case the
// whole slab (metadata + shards) is reclaimed. Member metadata is read
// WITHOUT member locks: saveMeta commits by atomic rename, so a lockless
// read sees a complete old or new version, and taking member locks here
// would invert the member→slab lock order a packed GET relies on.
// Reclaimed reports whether the slab was removed.
func (s *Store) scrubSlab(ctx context.Context, key string) (healed []int, reclaimed bool, err error) {
	if s.slabPinned(key) {
		// Freshly flushed: the batch's PUTs have not all committed their
		// member metadata yet, so "no live references" here would be
		// indistinguishable from "references still in flight" — reclaiming
		// would delete shards the PUTs are about to acknowledge. Skip the
		// whole slab; the next sweep sees it settled.
		return nil, false, nil
	}
	l := s.lockKey(key)
	defer l.Unlock()
	meta, err := s.loadMeta(key)
	if err != nil {
		if errors.Is(err, ErrObjectNotFound) {
			return nil, false, nil
		}
		return nil, false, err
	}
	live := false
	for _, e := range meta.Manifest.Slab {
		mm, err := s.loadMeta(e.Name)
		if err == nil && mm.Slab != nil && mm.Slab.Key == key {
			live = true
			break
		}
	}
	if !live {
		// Every window is dead (members deleted or overwritten): the slab
		// is pure garbage. A concurrent packed GET cannot be using it —
		// it would hold its member's lock, making that member's metadata
		// (which we just read) still point here. An in-flight packed PUT
		// cannot be about to reference it either: its batch's slab stays
		// pinned (checked above) until every member metadata has committed.
		if err := os.Remove(s.metaPath(key)); err != nil {
			return nil, false, err
		}
		s.dropMetaCache(key)
		s.removeFiles(s.shardPaths(key, meta))
		s.slabsReclaimed.Add(1)
		return nil, true, nil
	}
	healed, err = shardfile.ScrubPaths(s.shardPaths(key, meta), meta.Manifest, s.fileOpts(ctx))
	if err != nil {
		return nil, false, err
	}
	s.shardsHealed.Add(int64(len(healed)))
	return healed, false, nil
}
