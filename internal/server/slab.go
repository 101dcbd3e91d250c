package server

import (
	"bytes"
	"context"
	"errors"
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
// (non-hex, so slabs never appear in the object catalog). Which members a
// slab holds is recorded only in the members' own metadata; the slab's
// manifest is an ordinary one. Deleting or overwriting a member only
// rewrites the member's metadata; the slab keeps the dead bytes until a
// scrub sweep's walk of the catalog finds no member referring to it and
// reclaims the whole slab (Store.sweep). A freshly flushed slab is pinned
// (Store.pendingSlabs) until every batch member has settled, so the
// sweep cannot reclaim a slab in the window between the slab commit and
// the first references.
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
	// Pin the slab before its metadata can become visible on disk: between
	// the slab commit below and each waiter's own member-metadata commit
	// (putSlab, after hearing back), a scrub sweep would see a slab with
	// zero live references and reclaim it — then the PUTs would commit
	// member metadata pointing at deleted shards and acknowledge lost
	// data. The pin keeps the sweep off the slab until every batch member
	// has settled.
	key := s.newSlab(batch)
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

// newSlab allocates the next slab key and pins it against scrub
// reclamation (see flushBatch), in one step under mu: a sweep reads
// slabSeq and the pins together, so it never sees a slab number it
// counts as allocated without the pin that goes with it. The pin takes
// one reference for the caller, released by unpinSlab, and one for each
// member of batch that has not settled yet, released by settleSlab. The
// last release lifts the pin. Slab keys are never reused (restarts resume
// past the highest committed number), so a lifted pin never returns.
func (s *Store) newSlab(batch []*slabReq) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slabSeq++
	key := "slab_" + strconv.FormatInt(s.slabSeq, 10)
	s.pendingSlabs[key]++
	for _, r := range batch {
		if !r.settled {
			r.slab = key
			s.pendingSlabs[key]++
		}
	}
	return key
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

// slabNumber parses a slab key, slab_<n>.
func slabNumber(key string) (int64, bool) {
	num, ok := strings.CutPrefix(key, "slab_")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(num, 10, 64)
	return n, err == nil
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
// object's, and returns their paths — or, when the sweep found it dead,
// reclaims the whole slab (metadata, then shards). A concurrent packed
// GET cannot be using a dead slab: it would hold its member's lock, and
// the sweep's walk took that lock after it and found the member referring
// elsewhere, or gone.
func (s *Store) scrubSlab(ctx context.Context, key string, dead bool) (paths []string, healed []int, err error) {
	l := s.lockKey(key)
	defer l.Unlock()
	meta, err := s.loadMeta(key)
	if err != nil {
		return nil, nil, err
	}
	paths = s.shardPaths(key, meta)
	if dead {
		if err := os.Remove(s.metaPath(key)); err != nil {
			return nil, nil, err
		}
		s.dropMetaCache(key)
		s.removeFiles(paths)
		s.slabsReclaimed.Add(1)
		return nil, nil, nil
	}
	healed, err = shardfile.ScrubPaths(paths, meta.Manifest, s.fileOpts(ctx))
	if err != nil {
		return paths, nil, err
	}
	s.shardsHealed.Add(int64(len(healed)))
	return paths, healed, nil
}
