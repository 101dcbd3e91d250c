package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gemmec"
	"gemmec/internal/obs"
	"gemmec/internal/shardfile"
	"gemmec/internal/tuned"
)

// The object front: everything Store and Gateway do the same way — the
// shared scheduler and code registry, the request prologue, Open/OpenRange/
// Get/Stat, Put's generation discovery, Patch's read-modify-write, the
// scrub epilogue, the one /statusz document and the one metrics
// registration. Each backend embeds a front and implements storage, the
// seam below it: where metadata and shards live, how a generation commits,
// how deletes and orphans are reclaimed.

// ErrObjectNotFound is returned for unknown object names.
var ErrObjectNotFound = errors.New("server: object not found")

// ErrBadObjectName is returned for empty or over-long object names.
var ErrBadObjectName = errors.New("server: bad object name")

// maxNameLen bounds object names so the hex-encoded on-disk key plus the
// shard suffix stays under common 255-byte filename limits.
const maxNameLen = 100

// ObjectMeta is the per-object metadata document: the shardfile manifest
// (geometry, size, per-unit CRC32C) plus where each shard lives.
type ObjectMeta struct {
	Name     string             `json:"name"`
	Manifest shardfile.Manifest `json:"manifest"`
	// Placement maps shard index i to the node directory (Store) or ring
	// member (Gateway) holding it.
	Placement []int `json:"placement"`
	// Gen is the object's write generation, embedded in shard filenames so
	// that the shards of an overwrite never collide with the shards they
	// replace: the metadata commit is the commit point, and until it lands
	// the previous generation remains fully intact.
	Gen int64 `json:"gen"`
	// Slab, when non-nil, marks a packed small object: its bytes live
	// inside a shared slab shard set instead of a dedicated one, and
	// Manifest/Placement above are zero. Reads resolve the ref to the
	// slab's own metadata and decode only the member's payload window.
	Slab *SlabRef `json:"slab,omitempty"`
	// Deleted marks a cluster tombstone: the object was deleted at this
	// generation. Tombstones keep the generation counter monotonic across
	// delete/recreate and stop a partitioned member's stale replica from
	// resurrecting the object; the scrub sweep reaps them once every
	// member holds (or has dropped) the tombstone. Manifest/Placement are
	// zero. Local (non-cluster) stores never set this.
	Deleted bool `json:"deleted,omitempty"`
}

// Size returns the object's payload size in bytes, slab members included.
func (m ObjectMeta) Size() int64 {
	if m.Slab != nil {
		return m.Slab.Size
	}
	return m.Manifest.FileSize
}

// validate checks a metadata document before anything uses it: a
// tombstone passes as is, a packed member needs a well-formed slab ref,
// and anything else a valid manifest placed on exactly k+r shards.
func (m ObjectMeta) validate() error {
	switch {
	case m.Deleted:
		return nil
	case m.Slab != nil:
		if m.Slab.Key == "" || m.Slab.Offset < 0 || m.Slab.Size < 0 {
			return fmt.Errorf("server: metadata for %s has invalid slab ref %+v", m.Name, *m.Slab)
		}
		return nil
	}
	if err := m.Manifest.Validate(); err != nil {
		return err
	}
	if len(m.Placement) != m.Manifest.K+m.Manifest.R {
		return fmt.Errorf("server: metadata for %s places %d shards, manifest wants %d",
			m.Name, len(m.Placement), m.Manifest.K+m.Manifest.R)
	}
	return nil
}

// SlabRef locates one packed object inside its slab.
type SlabRef struct {
	// Key is the slab's store key (a reserved non-hex name, so slabs are
	// invisible to the object catalog).
	Key string `json:"key"`
	// Offset and Size give the member's payload window inside the slab.
	Offset int64 `json:"offset"`
	Size   int64 `json:"size"`
}

// objKey is the filesystem-safe encoding of an object name.
func objKey(name string) string { return hex.EncodeToString([]byte(name)) }

func validateName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: %q (must be 1..%d bytes)", ErrBadObjectName, name, maxNameLen)
	}
	return nil
}

// ctxErr reports a dead request context, wrapping its cause.
func ctxErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return fmt.Errorf("server: canceled: %w", context.Cause(ctx))
	}
	return nil
}

// storage is the seam under the front. Every call but List, sweep and
// describe runs under the object's key lock, taken by the front.
type storage interface {
	// current returns key's committed metadata — a tombstone as is — or
	// an error wrapping ErrObjectNotFound.
	current(ctx context.Context, key string) (ObjectMeta, error)
	// openWindow opens payload bytes [off, off+n) of meta's shards for
	// decoding. A slab member's open also returns the slab's read lock,
	// to be held until the decode is done.
	openWindow(ctx context.Context, key string, meta ObjectMeta, off, n int64) (*shardfile.StreamReader, *keyLock, error)
	// commit encodes src (size bytes, -1 unknown) as the generation after
	// prev (prev.Gen == 0: there is none), commits it and accounts the put.
	// It returns prev's reclaim — the removal of the shards the commit
	// superseded — for the front to run once the caller has its answer,
	// or nil when there is nothing to remove.
	commit(ctx context.Context, key, name string, prev ObjectMeta, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, func(), error)
	// patchInPlace writes data at payload offset off into old's shards
	// without a new generation, or declines by returning PatchStats with
	// InPlace false and Fallback naming why.
	patchInPlace(ctx context.Context, key string, old ObjectMeta, off int64, data []byte) (ObjectMeta, PatchStats, error)
	// remove deletes the object stored under key.
	remove(ctx context.Context, key, name string) error
	// List returns the live object names, sorted.
	List() ([]string, error)
	// sweep scrubs the whole catalog once.
	sweep(ctx context.Context) ScrubReport
	// describe fills in the /statusz fields only its mode has.
	describe(st *Stats)
}

// front is the object surface Store and Gateway share. All methods are
// safe for concurrent use; operations on one object are serialized by a
// per-object lock (readers share).
type front struct {
	b storage

	k, r, unit int
	// codes shares one compiled code and one stripe-buffer pool per
	// geometry with every request (shardfile.Opts.Source).
	codes *tuned.Registry
	// sched is the shared encode/decode pool.
	sched     *gemmec.Scheduler
	closeOnce sync.Once
	// reclaims counts the superseded generations still being removed after
	// their overwrite returned; Close waits for them.
	reclaims sync.WaitGroup

	keyLocks

	// Client traffic, the /statusz counters an opened Object reports its
	// read into. /metricsz reads the same atomics (Metrics.register).
	puts, gets, degradedGets, deletes atomic.Int64
	rangeGets, patches                atomic.Int64
	patchFallbacks                    atomic.Int64
	bytesIn, bytesOut                 atomic.Int64
	scrubCycles, shardsHealed         atomic.Int64
	scrubErrors                       atomic.Int64

	// metrics, when set, records what flat counters cannot carry (stall
	// and size histograms, demotion causes, sweep timing). Atomic because
	// background readers (the scheduler's OnWait hook, the slab writer)
	// start before SetMetrics runs; nil disables recording.
	metrics atomic.Pointer[Metrics]
}

// start builds the front over b: the shared scheduler, sized by workers
// and maxStreams, and the code registry with the geometry's code compiled.
// Pair with Close, also when start fails.
func (f *front) start(b storage, k, r, unit, workers, maxStreams int) error {
	f.b, f.k, f.r, f.unit = b, k, r, unit
	f.sched = gemmec.NewScheduler(gemmec.SchedulerConfig{
		Workers:    workers,
		MaxStreams: maxStreams,
		OnWait:     func(d time.Duration) { f.m().ObserveSchedWait(d) },
	})
	f.codes = tuned.NewRegistry(tuned.Config{})
	_, err := f.codes.StreamCode(k, r, unit)
	return err
}

// Close waits for in-flight reclaims, then stops the shared scheduler.
// Idempotent.
func (f *front) Close() {
	f.closeOnce.Do(func() {
		f.reclaims.Wait()
		f.sched.Close()
	})
}

// Scheduler returns the shared encode/decode pool — the HTTP layer's
// admission gate.
func (f *front) Scheduler() *gemmec.Scheduler { return f.sched }

// m returns the attached metrics bundle, nil until SetMetrics. Every
// *Metrics method is nil-receiver safe; only direct counter field access
// needs the nil check.
func (f *front) m() *Metrics { return f.metrics.Load() }

// SetMetrics attaches the observability bundle and registers the
// scrape-time families every backend has. Safe to call at any point
// relative to serving traffic: the counter families read the /statusz
// atomics, so they include work done before attachment; histograms start
// empty.
func (f *front) SetMetrics(m *Metrics) {
	f.metrics.Store(m)
	m.register(f)
}

// recordPut accounts one committed object write of size bytes.
func (f *front) recordPut(st gemmec.StreamStats, size int64) {
	f.puts.Add(1)
	f.bytesIn.Add(size)
	mt := f.m()
	mt.recordStream("put", st)
	mt.recordObjectBytes("put", size)
}

// lock is every request's prologue: validate the name, refuse a dead
// context, derive the key and take its lock — exclusive for writers,
// shared for readers — inside a store.lock span. The caller releases it.
func (f *front) lock(ctx context.Context, name string, write bool) (string, *keyLock, error) {
	if err := validateName(name); err != nil {
		return "", nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return "", nil, err
	}
	key := objKey(name)
	sp := obs.StartSpan(ctx, "store.lock")
	var l *keyLock
	if write {
		l = f.lockKey(key)
	} else {
		l = f.rlockKey(key)
	}
	sp.End(nil)
	return key, l, nil
}

// unlockAfter releases a write lock once reclaim — the removal of the
// generation a commit superseded — has run, without making the caller
// wait for it: the removal runs on its own goroutine, which owns the lock
// until it is done. Every later operation on the key, and the orphan
// sweep, takes that lock first, so none of them sees the old generation;
// only the request that committed is answered sooner. A nil reclaim
// unlocks at once.
func (f *front) unlockAfter(l *keyLock, reclaim func()) {
	if reclaim == nil {
		l.Unlock()
		return
	}
	f.reclaims.Add(1)
	go func() {
		defer f.reclaims.Done()
		reclaim()
		l.Unlock()
	}()
}

// live returns key's current metadata, a tombstone reading as not found.
func (f *front) live(ctx context.Context, key, name string) (ObjectMeta, error) {
	meta, err := f.b.current(ctx, key)
	if err == nil && meta.Deleted {
		err = fmt.Errorf("%w: %s (deleted)", ErrObjectNotFound, name)
	}
	return meta, err
}

// Open opens object name for reading. The open probes all k+r shards — a
// stat of each file, or of each member's copy — but reads no payload:
// Stream reads only the data units it returns and verifies each inside
// the decode pass, so the first payload byte is one unit of I/O away.
// Missing or wrong-length shards are noted for degraded decoding; if too
// few survive, the error wraps gemmec.ErrTooFewShards (and
// gemmec.ErrCorruptShard when truncation contributed). Metadata that does
// not validate — a manifest of any version but v2 included — fails the
// open. The object holds a shared lock until Close, so a scrub or write
// in this process cannot rewrite shards mid-stream.
//
// ctx is remembered by the object: the later Stream observes it between
// stripes, so a dead request stops decoding, releases the lock on Close,
// and frees the pipeline workers.
func (f *front) Open(ctx context.Context, name string) (ObjectStream, error) {
	o, err := f.open(ctx, name, false, 0, 0)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// OpenRange opens byte window [off, off+length) of object name: the
// shards are opened over the window, so Stream reads — from disk or over
// the wire — only the data units inside it. off == -1 selects the final
// length bytes, length == -1 everything from off to the end (the two
// open-ended Range header forms). An unsatisfiable window fails with a
// *RangeError wrapping ErrRangeNotSatisfiable. Everything else matches
// Open.
func (f *front) OpenRange(ctx context.Context, name string, off, length int64) (RangedStream, error) {
	o, err := f.open(ctx, name, true, off, length)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// open is Open and OpenRange: key lock (shared, held by the returned
// object until Close), metadata, the window — resolved before any shard
// is touched — then the shards covering it.
func (f *front) open(ctx context.Context, name string, ranged bool, off, length int64) (*Object, error) {
	key, l, err := f.lock(ctx, name, false)
	if err != nil {
		return nil, err
	}
	meta, err := f.live(ctx, key, name)
	if err == nil {
		if !ranged {
			off, length = 0, meta.Size()
		} else {
			off, length, err = resolveRange(off, length, meta.Size())
		}
	}
	var (
		sr *shardfile.StreamReader
		sl *keyLock
	)
	if err == nil {
		sr, sl, err = f.b.openWindow(ctx, key, meta, off, length)
	}
	if err != nil {
		l.RUnlock()
		return nil, err
	}
	o := f.newObject(meta, sr, l, sl)
	if ranged {
		o.setRange(off, length)
	}
	return o, nil
}

// Get streams object name to dst, returning its metadata and the shard
// indices reconstructed around (nil when the read was clean).
func (f *front) Get(ctx context.Context, name string, dst io.Writer) (ObjectMeta, []int, error) {
	o, err := f.open(ctx, name, false, 0, 0)
	if err != nil {
		return ObjectMeta{}, nil, err
	}
	defer o.Close()
	_, err = o.Stream(dst)
	return o.Meta, o.Unusable(), err
}

// Stat returns object name's metadata without touching its shards.
func (f *front) Stat(name string) (ObjectMeta, error) {
	ctx := context.Background()
	key, l, err := f.lock(ctx, name, false)
	if err != nil {
		return ObjectMeta{}, err
	}
	defer l.RUnlock()
	return f.live(ctx, key, name)
}

// Put streams src in as object name, erasure-coding it through the shared
// scheduler. size is validated against the bytes read when >= 0; pass -1
// for unknown-length sources (chunked uploads). Overwrites are atomic: the
// new generation's shards live where the old generation's cannot, the
// metadata commit is the single commit point, and the old shards are
// reclaimed only after it lands — so at every instant the object is fully
// the old version or fully the new one. The reclaim runs after Put
// returns, under the key's write lock (see unlockAfter).
//
// ctx bounds the whole write: when it dies (client disconnect, request
// deadline, server drain) the encode stops between stripes, the
// per-object lock is released, and every uncommitted shard is removed —
// a canceled Put leaves no trace.
func (f *front) Put(ctx context.Context, name string, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, error) {
	key, l, err := f.lock(ctx, name, true)
	if err != nil {
		return ObjectMeta{}, gemmec.StreamStats{}, err
	}
	var reclaim func()
	defer func() { f.unlockAfter(l, reclaim) }()
	prev, err := f.b.current(ctx, key)
	if errors.Is(err, ErrObjectNotFound) {
		prev, err = ObjectMeta{}, nil
	}
	if err != nil {
		// Corrupt metadata, or no metadata majority: the next generation
		// cannot be numbered safely, and overwriting would orphan shards
		// at locations nothing records anymore. Refuse; Delete clears a
		// corrupt object, and a cluster may heal for a retry.
		return ObjectMeta{}, gemmec.StreamStats{}, fmt.Errorf("server: cannot establish current generation for %s: %w", name, err)
	}
	meta, st, reclaim, err := f.b.commit(ctx, key, name, prev, src, size)
	return meta, st, err
}

// Patch splices data into object name at payload byte off; off == -1
// appends. The object may grow (never shrink). Where the backend can, the
// write is stripe-granular and in place (a Store's dedicated shard set:
// only the touched data units and their XOR-patched parity units are
// rewritten, journaled first); otherwise — slab members, degraded sets,
// every cluster object — it is a read-modify-write through the regular
// commit, and PatchStats says which. Either way concurrent
// readers and crashes see the whole old object or the whole new one.
func (f *front) Patch(ctx context.Context, name string, data []byte, off int64) (ObjectMeta, PatchStats, error) {
	key, l, err := f.lock(ctx, name, true)
	if err != nil {
		return ObjectMeta{}, PatchStats{}, err
	}
	var reclaim func()
	defer func() { f.unlockAfter(l, reclaim) }()
	old, err := f.live(ctx, key, name)
	if err != nil {
		return ObjectMeta{}, PatchStats{}, err
	}
	off, newSize, err := patchWindow(old.Size(), off, len(data))
	if err != nil {
		return ObjectMeta{}, PatchStats{}, err
	}
	if len(data) == 0 {
		// Nothing to write; the object is untouched.
		return old, PatchStats{Offset: off, InPlace: true}, nil
	}
	meta, ps, err := f.b.patchInPlace(ctx, key, old, off, data)
	ps.Offset = off
	switch {
	case err != nil:
		return ObjectMeta{}, ps, err
	case ps.InPlace:
		f.bytesIn.Add(int64(len(data)))
	default:
		// Read-modify-write: decode the old payload, splice the patch in
		// and re-encode it as the next generation. The decode opens the
		// old shards directly — this goroutine holds the key lock already,
		// and an internal decode is not a client GET.
		src, stop := spliceOld(off, data, func(w io.Writer) error {
			sr, sl, err := f.b.openWindow(ctx, key, old, 0, old.Size())
			if err != nil {
				return err
			}
			if sl != nil {
				defer sl.RUnlock()
			}
			defer sr.Close()
			_, err = sr.Decode(w, 0)
			return err
		})
		meta, _, reclaim, err = f.b.commit(ctx, key, name, old, src, newSize)
		stop()
		if err != nil {
			return ObjectMeta{}, ps, err
		}
		f.patchFallbacks.Add(1)
	}
	f.patches.Add(1)
	f.m().recordPatch(ps)
	return meta, ps, nil
}

// Delete removes object name.
func (f *front) Delete(ctx context.Context, name string) error {
	key, l, err := f.lock(ctx, name, true)
	if err != nil {
		return err
	}
	defer l.Unlock()
	if err := f.b.remove(ctx, key, name); err != nil {
		return err
	}
	f.deletes.Add(1)
	return nil
}

// ScrubAll sweeps the catalog once, healing what it can, and accounts the
// sweep. It never fails as a whole: per-object failures are collected in
// the report — except cancellation: when ctx dies mid-sweep the remaining
// objects are left for the next cycle rather than recorded as errors.
func (f *front) ScrubAll(ctx context.Context) ScrubReport {
	start := time.Now()
	rep := f.b.sweep(ctx)
	f.scrubCycles.Add(1)
	f.scrubErrors.Add(int64(len(rep.Errors)))
	done := time.Now()
	f.m().recordScrub(done.Sub(start), done)
	return rep
}

// ScrubReport summarizes one scrub sweep over the whole catalog.
type ScrubReport struct {
	// Objects is the number of objects examined.
	Objects int `json:"objects"`
	// Healed maps object name to the shard indices rebuilt. Objects that
	// scrubbed clean are absent.
	Healed map[string][]int `json:"healed,omitempty"`
	// Errors maps object name to the scrub failure (e.g. too many shards
	// lost to rebuild). These objects still need operator attention.
	Errors map[string]string `json:"errors,omitempty"`
	// OrphansRemoved counts stale shard files reclaimed by the sweep:
	// generations superseded by a committed overwrite, shards of deleted
	// or never-committed objects, leftover temp files.
	OrphansRemoved int `json:"orphans_removed,omitempty"`
	// SlabsReclaimed counts packed-object slabs removed whole because no
	// live member referenced them anymore.
	SlabsReclaimed int `json:"slabs_reclaimed,omitempty"`
	// PatchesRecovered counts stranded patch journals rolled forward by
	// the sweep (a crash between a patch's journal and its commit).
	PatchesRecovered int `json:"patches_recovered,omitempty"`
}

// ShardsHealed totals the rebuilt shards across the sweep.
func (r ScrubReport) ShardsHealed() int {
	n := 0
	for _, h := range r.Healed {
		n += len(h)
	}
	return n
}

// Clean reports a sweep that found nothing to heal and hit no errors.
func (r ScrubReport) Clean() bool { return len(r.Healed) == 0 && len(r.Errors) == 0 }

// record files one object's scrub outcome — the shards healed, or the
// failure — and reports whether the sweep should stop: cancellation is not
// a scrub error, the remaining objects wait for the next cycle.
func (r *ScrubReport) record(name string, healed []int, err error) (stop bool) {
	switch {
	case err == nil:
		if len(healed) > 0 {
			if r.Healed == nil {
				r.Healed = map[string][]int{}
			}
			r.Healed[name] = healed
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return true
	default:
		if r.Errors == nil {
			r.Errors = map[string]string{}
		}
		r.Errors[name] = err.Error()
	}
	return false
}

// Stats is the daemon's /statusz document, one schema for both backends:
// a quantity both have is one field with one meaning. Fields only a
// single node has are omitted when zero (a cluster never sets them);
// ClusterStats is set only by a Gateway, its fields inlined.
type Stats struct {
	Objects        int   `json:"objects"`
	Puts           int64 `json:"puts"`
	Gets           int64 `json:"gets"`
	DegradedGets   int64 `json:"degraded_gets"`
	Deletes        int64 `json:"deletes"`
	RangeGets      int64 `json:"range_gets"`
	Patches        int64 `json:"patches"`
	PatchFallbacks int64 `json:"patch_fallbacks"`
	RequestsShed   int64 `json:"requests_shed"`
	SchedQueue     int   `json:"sched_queue_depth"`
	ScrubCycles    int64 `json:"scrub_cycles"`
	ShardsHealed   int64 `json:"shards_healed"`
	ScrubErrors    int64 `json:"scrub_errors"`
	BytesIn        int64 `json:"bytes_in"`
	BytesOut       int64 `json:"bytes_out"`
	UnitSize       int   `json:"unit_size"`
	DataShards     int   `json:"k"`
	ParityShards   int   `json:"r"`
	StreamWorkers  int   `json:"stream_workers"`

	// Single node: node directories, slab packing, orphan reclamation.
	NodeDirs       int   `json:"nodes,omitempty"`
	SlabPuts       int64 `json:"slab_puts,omitempty"`
	SlabFlushes    int64 `json:"slab_flushes,omitempty"`
	SlabsReclaimed int64 `json:"slabs_reclaimed,omitempty"`
	OrphansRemoved int64 `json:"orphans_removed,omitempty"`

	*ClusterStats
}

// ClusterStats is the part of the /statusz document only a cluster has:
// membership, the write quorum and node-rebuild (RebuildNode) traffic —
// shards a sweep heals are the shared ShardsHealed.
type ClusterStats struct {
	Members             int     `json:"members"`
	SelfID              int     `json:"self_id"`
	WriteQuorum         int     `json:"write_quorum"`
	QuorumFailures      int64   `json:"quorum_failures"`
	Rebuilds            int64   `json:"rebuilds"`
	ShardsRebuilt       int64   `json:"shards_rebuilt"`
	RepairBytesRead     int64   `json:"repair_bytes_read"`
	RepairBytesWritten  int64   `json:"repair_bytes_written"`
	RepairAmplification float64 `json:"repair_amplification"`
	// Peers carries one row per HTTP peer transport — health and coarse
	// traffic counters as seen from this gateway.
	Peers []PeerStatus `json:"peers,omitempty"`
}

// Stats snapshots the counters and counts the live objects — on a
// Gateway, a listing across the cluster.
func (f *front) Stats() Stats {
	st := f.Counters()
	names, _ := f.b.List()
	st.Objects = len(names)
	return st
}

// Counters is Stats without Objects: it lists nothing, so it never waits
// on storage or peers — what a process that is shutting down can report.
func (f *front) Counters() Stats {
	st := Stats{
		Puts:           f.puts.Load(),
		Gets:           f.gets.Load(),
		DegradedGets:   f.degradedGets.Load(),
		Deletes:        f.deletes.Load(),
		RangeGets:      f.rangeGets.Load(),
		Patches:        f.patches.Load(),
		PatchFallbacks: f.patchFallbacks.Load(),
		RequestsShed:   f.sched.Shed(),
		SchedQueue:     f.sched.QueueDepth(),
		ScrubCycles:    f.scrubCycles.Load(),
		ShardsHealed:   f.shardsHealed.Load(),
		ScrubErrors:    f.scrubErrors.Load(),
		BytesIn:        f.bytesIn.Load(),
		BytesOut:       f.bytesOut.Load(),
		UnitSize:       f.unit,
		DataShards:     f.k,
		ParityShards:   f.r,
		StreamWorkers:  f.sched.Workers(),
	}
	f.b.describe(&st)
	return st
}

// StatusSnapshot implements Backend for /statusz: the Stats document.
func (f *front) StatusSnapshot() any { return f.Stats() }

// Object is an opened object ready to stream — from a Store's shard files
// or a Gateway's peer streams alike; what differs is only what the
// shardfile.StreamReader underneath reads from. Open-time checks (shard
// presence and length) have already run, so Degraded/Unusable start
// populated before the first payload byte — the HTTP layer turns them
// into response headers. Content verification happens inside Stream
// itself, per unit, so a shard can additionally be demoted mid-stream;
// Demoted and the post-Stream Unusable report those, and the HTTP layer
// turns them into response trailers. Close must be called exactly once.
type Object struct {
	Meta ObjectMeta

	f            *front // the backend's counters the read reports into
	sr           *shardfile.StreamReader
	openDegraded bool
	unlock       sync.Once
	lock         *keyLock
	// slabLock is held (shared) when the object is a packed slab member:
	// sr then reads the slab's shard set, opened over the member's window
	// of it. Lock order is member → slab, matching the flusher (which
	// takes no member locks) and the slab scrubber (slab only).
	slabLock *keyLock
	// ranged marks a ranged open: sr was opened over payload window
	// [rangeOff, rangeOff+rangeLen) only.
	ranged             bool
	rangeOff, rangeLen int64
}

// newObject wraps an opened shard set as a readable object holding lock
// (and slabLock, for packed members) shared until Close, and counts the
// read — as degraded when the open already found shards to reconstruct
// around.
func (f *front) newObject(meta ObjectMeta, sr *shardfile.StreamReader, lock, slabLock *keyLock) *Object {
	f.gets.Add(1)
	if sr.Degraded() {
		f.degradedGets.Add(1)
	}
	return &Object{Meta: meta, f: f, sr: sr, openDegraded: sr.Degraded(), lock: lock, slabLock: slabLock}
}

// setRange narrows o to payload window [off, off+length), already
// resolved against the object's size.
func (o *Object) setRange(off, length int64) {
	o.ranged, o.rangeOff, o.rangeLen = true, off, length
	o.f.rangeGets.Add(1)
}

// Name returns the object's client-visible name.
func (o *Object) Name() string { return o.Meta.Name }

// Size returns the object's payload size in bytes.
func (o *Object) Size() int64 { return o.Meta.Size() }

// Range reports the byte window Stream will serve: the resolved request
// window for ranged opens, the whole payload otherwise.
func (o *Object) Range() (off, length int64) {
	if !o.ranged {
		return 0, o.Size()
	}
	return o.rangeOff, o.rangeLen
}

// Degraded reports whether serving this object requires reconstruction.
// After Stream it also covers shards demoted mid-decode.
func (o *Object) Degraded() bool { return o.sr.Degraded() }

// Unusable returns the shard indices reconstructed around: missing,
// truncated, or checksum-corrupt. After Stream it includes shards demoted
// mid-decode.
func (o *Object) Unusable() []int { return o.sr.Unusable() }

// Demoted returns the shards the decode stopped trusting mid-stream —
// each passed open-time checks but then served a unit that failed its
// stripe checksum, truncated, or errored. Populated by Stream.
func (o *Object) Demoted() []gemmec.Demotion { return o.sr.Demoted() }

// Stream writes the window the object was opened over — the payload, or
// a ranged open's part of it — to dst, reconstructing unusable shards on
// the fly and verifying every unit's stripe checksum in the same pass, on
// the backend's shared scheduler (sr's Opts carry it). It may be called
// at most once.
func (o *Object) Stream(dst io.Writer) (gemmec.StreamStats, error) {
	st, err := o.sr.Decode(dst, 0)
	mt := o.f.m()
	mt.recordStream("get", st)
	if len(o.sr.Demoted()) > 0 && !o.openDegraded {
		// The open looked clean but the decode had to reconstruct around a
		// mid-stream failure: that is a degraded read, even though we only
		// learned it after the headers went out.
		o.f.degradedGets.Add(1)
	}
	if err == nil {
		_, n := o.Range()
		o.f.bytesOut.Add(n)
		mt.recordObjectBytes("get", n)
		if mt != nil && o.ranged {
			mt.rangeBytes.Add(n)
		}
	}
	return st, err
}

// Close releases the object's shard sources and its read lock(s).
func (o *Object) Close() error {
	err := o.sr.Close()
	o.unlock.Do(func() {
		if o.slabLock != nil {
			o.slabLock.RUnlock()
		}
		o.lock.RUnlock()
	})
	return err
}
