// Package server is the networked erasure-coded object daemon behind
// cmd/ecserver: a stdlib-only HTTP object store that chunks uploads into
// stripes, encodes them through the pipelined streaming engine, and spreads
// the k+r shards of every object across N local "node" directories
// (distinct failure domains, rotating placement).
// Reads verify every shard against its manifest checksum and reconstruct
// transparently when shards are missing or rotten; a background scrubber
// walks the manifests on a jittered interval and heals damage in place.
// It is the repository's first end-to-end serving path — §8's "integrate
// into real storage systems" realized as a process that actually serves
// bytes over a socket.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gemmec"
	"gemmec/internal/obs"
	"gemmec/internal/shardfile"
	"gemmec/internal/tuned"
	"gemmec/internal/vfs"
)

// ErrObjectNotFound is returned for unknown object names.
var ErrObjectNotFound = errors.New("server: object not found")

// ErrBadObjectName is returned for empty or over-long object names.
var ErrBadObjectName = errors.New("server: bad object name")

// maxNameLen bounds object names so the hex-encoded on-disk key plus the
// shard suffix stays under common 255-byte filename limits.
const maxNameLen = 100

// StoreConfig sizes a store. (It was named Config before the HTTP
// layer's own Config existed; Open and Store.Config use this type.)
type StoreConfig struct {
	// Root is the directory holding the node directories and object
	// metadata. Created if absent.
	Root string
	// Nodes is the number of node directories (failure domains). Must be
	// at least K+R so every shard of a stripe lands in a distinct domain.
	Nodes int
	// K and R are the code geometry: K data shards, R parity shards.
	K, R int
	// UnitSize is the shard unit size in bytes per stripe (0 selects
	// gemmec.DefaultUnitSize).
	UnitSize int
	// Workers sizes the store's shared encode/decode scheduler: the ONE
	// bounded pool of kernel goroutines every request's stripe work runs
	// on (0 selects gemmec.NewScheduler's default).
	Workers int
	// MaxStreams bounds how many streaming requests may run concurrently:
	// past it, admission fails with gemmec.ErrOverloaded and the HTTP
	// layer sheds the request (429 + Retry-After). 0 disables shedding.
	MaxStreams int
	// Sched, when non-nil, is an externally owned scheduler to use
	// instead of building one from Workers/MaxStreams (several stores in
	// one process can share a pool). The store will not Close it.
	Sched *gemmec.Scheduler
	// SlabThreshold, when positive, turns on the small-object fast path:
	// PUTs of known size at or below it are packed — group-committed —
	// into one shared "slab" shard set instead of paying a full stripe,
	// k+r shard files and an encode setup each. 0 stores every object in
	// its own shard set.
	SlabThreshold int64
	// SlabWindow is how long the slab writer waits after the first
	// pending small object before committing the batch (latency bound of
	// the group commit). 0 selects 2ms.
	SlabWindow time.Duration
	// SlabMaxBytes caps one slab's payload: the batch commits early when
	// it fills. 0 selects 4 MiB.
	SlabMaxBytes int64
	// FS is the filesystem shard I/O goes through. Nil means the real
	// one; tests substitute internal/faultfs to inject read/write errors,
	// torn writes, latency and stalls under the full serving path.
	FS vfs.FS
	// ShardReadTimeout, when positive, bounds each underlying shard read
	// during GETs: a shard whose read stalls past the deadline is demoted
	// (cause "stall") and the object is served degraded instead of the
	// request hanging on a dead disk. Zero disables the guard.
	ShardReadTimeout time.Duration
	// DecoderCache bounds each code's compiled-decoder LRU (0 selects the
	// library default of gemmec/internal/core.DefaultMaxCachedDecoders).
	DecoderCache int
	// TuneCache, when non-empty, is the autotuner cache file: learned
	// schedules are loaded from it at open and persisted back after every
	// background retune and on Close, so restarts keep their tuning.
	TuneCache string
	// TuneTrials is the per-retune schedule-search budget of the background
	// serving-loop autotuner. 0 disables the tuner entirely (the default,
	// so embedders opt in; cmd/ecserver enables it).
	TuneTrials int
	// TuneIdle is how long the store's scheduler must sit idle before a
	// background retune may start (0 selects 100ms).
	TuneIdle time.Duration
	// TuneInterval is the tuner's poll cadence (0 selects 1s). Exposed
	// mainly so tests and benches can tighten the loop.
	TuneInterval time.Duration
}

// Stats is a snapshot of the store's cumulative counters, served by the
// daemon's /statusz endpoint.
type Stats struct {
	Objects        int   `json:"objects"`
	Puts           int64 `json:"puts"`
	Gets           int64 `json:"gets"`
	DegradedGets   int64 `json:"degraded_gets"`
	Deletes        int64 `json:"deletes"`
	RangeGets      int64 `json:"range_gets"`
	Patches        int64 `json:"patches"`
	PatchFallbacks int64 `json:"patch_fallbacks"`
	SlabPuts       int64 `json:"slab_puts"`
	SlabFlushes    int64 `json:"slab_flushes"`
	SlabsReclaimed int64 `json:"slabs_reclaimed"`
	RequestsShed   int64 `json:"requests_shed"`
	SchedQueue     int   `json:"sched_queue_depth"`
	ScrubCycles    int64 `json:"scrub_cycles"`
	ShardsHealed   int64 `json:"shards_healed"`
	OrphansRemoved int64 `json:"orphans_removed"`
	BytesIn        int64 `json:"bytes_in"`
	BytesOut       int64 `json:"bytes_out"`
	ScrubErrors    int64 `json:"scrub_errors"`
	UnitSize       int   `json:"unit_size"`
	DataShards     int   `json:"k"`
	ParityShards   int   `json:"r"`
	NodeDirs       int   `json:"nodes"`
	StreamWorkers  int   `json:"stream_workers"`
	// TunerRuns / TunerGenerations are the background autotuner's completed
	// retunes and installed executor generations (0 when the tuner is off).
	TunerRuns        int64 `json:"tuner_runs"`
	TunerGenerations int64 `json:"tuner_generations"`
}

// ObjectMeta is the per-object metadata persisted under meta/: the
// shardfile manifest (geometry, size, per-unit CRC32C) plus where each
// shard lives.
type ObjectMeta struct {
	Name     string             `json:"name"`
	Manifest shardfile.Manifest `json:"manifest"`
	// Placement maps shard index i to the node directory holding it.
	Placement []int `json:"placement"`
	// Gen is the object's write generation, embedded in shard filenames so
	// that the shards of an overwrite never collide with the shards they
	// replace: the metadata rename is the commit point, and until it lands
	// the previous generation remains fully intact on disk.
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

// SlabRef locates one packed object inside its slab.
type SlabRef struct {
	// Key is the slab's store key (a reserved non-hex name, so slabs are
	// invisible to the object catalog).
	Key string `json:"key"`
	// Offset and Size give the member's payload window inside the slab.
	Offset int64 `json:"offset"`
	Size   int64 `json:"size"`
}

// Store is the on-disk erasure-coded object store the HTTP layer serves.
// All methods are safe for concurrent use; operations on the same object
// are serialized by a per-object lock (readers share).
type Store struct {
	cfg  StoreConfig
	code *gemmec.Code

	// codes shares one compiled code and one stripe-buffer pool per stripe
	// geometry across all requests (shardfile.Opts.Source), and feeds the
	// background tuner its hot-shape traffic counts.
	codes *tuned.Registry
	// tuner is the background tune-measure-swap loop, nil unless
	// cfg.TuneTrials > 0.
	tuner *tuned.Tuner

	// sched is the store's shared encode/decode pool; ownSched records
	// whether Open built it (and Close must stop it) or the caller did.
	sched    *gemmec.Scheduler
	ownSched bool

	// slab is the small-object group-commit writer, nil unless
	// SlabThreshold > 0. slabSeq allocates slab keys.
	slab    *slabWriter
	slabSeq atomic.Int64

	// keyLocks is the per-object lock table; its mu also guards the small
	// state below (rot, metaCache, pendingSlabs).
	keyLocks
	rot int // rotating placement offset
	// metaCache holds parsed object metadata keyed by store key, validated
	// against the meta file's (size, mtime) on every hit, so steady-state
	// GETs skip the per-request ReadFile + JSON parse (whose allocations
	// scale with stripe count). Guarded by mu; invalidated wherever this
	// process writes or removes a meta file, and self-invalidating against
	// out-of-band edits via the stat check.
	metaCache map[string]metaCacheEntry
	// pendingSlabs pins freshly flushed slabs (guarded by mu): a slab key
	// is pinned before its metadata commits and unpinned only after every
	// batch member has settled — committed its own member metadata or
	// abandoned the request — so the scrubber never mistakes "references
	// still in flight" for "no live references" and reclaims a slab whose
	// PUTs are about to be acknowledged.
	pendingSlabs map[string]struct{}

	closeOnce sync.Once

	traffic
	scrubCycles, shardsHealed   atomic.Int64
	scrubErrors, orphansRemoved atomic.Int64
	slabPuts, slabFlushes       atomic.Int64
	slabsReclaimed              atomic.Int64
	patchFallbacks              atomic.Int64
}

// traffic is the client-traffic accounting Store and Gateway both keep
// and an opened Object reports its read into: the /statusz counters and
// the attached metrics bundle.
type traffic struct {
	puts, gets, degradedGets, deletes atomic.Int64
	rangeGets, patches                atomic.Int64
	bytesIn, bytesOut                 atomic.Int64

	// metrics, when set, mirrors the counters above into the /metricsz
	// registry and adds what flat counters cannot carry (stall and size
	// histograms, demotion causes). Atomic because background readers (the
	// scheduler's OnWait hook, the slab writer) start in Open and may
	// observe work before SetMetrics runs; nil disables recording.
	metrics atomic.Pointer[Metrics]
}

// m returns the attached metrics bundle, nil until SetMetrics. Every
// *Metrics method is nil-receiver safe; only direct counter field access
// needs the nil check.
func (t *traffic) m() *Metrics { return t.metrics.Load() }

// recordPut accounts one committed object write of size bytes.
func (t *traffic) recordPut(st gemmec.StreamStats, size int64) {
	t.puts.Add(1)
	t.bytesIn.Add(size)
	mt := t.m()
	mt.recordStream("put", st)
	mt.recordObjectBytes("put", size)
	if mt != nil {
		mt.bytesIn.Add(size)
	}
}

// SetMetrics attaches the observability bundle. Safe to call at any
// point relative to serving traffic; work recorded before attachment is
// simply not mirrored into the registry.
func (s *Store) SetMetrics(m *Metrics) {
	s.metrics.Store(m)
	m.RegisterStore(s)
	m.RegisterTuner(s)
}

// Open opens (creating if necessary) the store rooted at cfg.Root. The
// store owns background machinery — the shared scheduler (unless
// cfg.Sched was supplied) and the slab writer — so pair every Open with
// a Close.
func Open(cfg StoreConfig) (*Store, error) {
	if cfg.UnitSize == 0 {
		cfg.UnitSize = gemmec.DefaultUnitSize
	}
	if cfg.Nodes < cfg.K+cfg.R {
		return nil, fmt.Errorf("server: %d node dirs cannot hold k+r=%d shards in distinct failure domains",
			cfg.Nodes, cfg.K+cfg.R)
	}
	s := &Store{
		cfg:          cfg,
		pendingSlabs: map[string]struct{}{},
		metaCache:    map[string]metaCacheEntry{},
	}
	s.sched = cfg.Sched
	if s.sched == nil {
		s.sched = gemmec.NewScheduler(gemmec.SchedulerConfig{
			Workers:    cfg.Workers,
			MaxStreams: cfg.MaxStreams,
			OnWait:     s.observeSchedWait,
		})
		s.ownSched = true
	}
	// One registry shares the compiled code and stripe pool per geometry
	// across every request, and carries the traffic counts the background
	// tuner ranks shapes by. The tuner gates on the scheduler's idle window
	// so trials never compete with live stripe work.
	s.codes = tuned.NewRegistry(tuned.Config{
		TuneCache:    cfg.TuneCache,
		DecoderCache: cfg.DecoderCache,
		Trials:       cfg.TuneTrials,
		MinIdle:      cfg.TuneIdle,
		Interval:     cfg.TuneInterval,
		IdleFor:      s.sched.IdleFor,
	})
	code, err := s.codes.Code(cfg.K, cfg.R, cfg.UnitSize)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.code = code
	if err := s.ensureDirs(); err != nil {
		s.Close()
		return nil, err
	}
	// Start the placement rotation where the existing population left off,
	// so restarts keep spreading load instead of re-piling on node 0.
	names, err := s.List()
	if err != nil {
		s.Close()
		return nil, err
	}
	s.rot = len(names) % cfg.Nodes
	// Roll forward any patch journal a crash stranded, before a single
	// request can observe the half-applied stripes it describes.
	s.recoverPatches(context.Background())
	if cfg.SlabThreshold > 0 {
		if s.cfg.SlabWindow <= 0 {
			s.cfg.SlabWindow = 2 * time.Millisecond
		}
		if s.cfg.SlabMaxBytes <= 0 {
			s.cfg.SlabMaxBytes = 4 << 20
		}
		s.slabSeq.Store(s.maxSlabSeq())
		s.slab = startSlabWriter(s)
	}
	// Background serving-loop autotuner (nil unless TuneTrials > 0): waits
	// for an idle window, retunes the hottest geometry, hot-swaps the
	// executor, persists the learned schedule to TuneCache.
	s.tuner = tuned.StartTuner(s.codes)
	return s, nil
}

// Close stops the store's background machinery: the slab writer (any
// pending batch is committed first) and, when Open built it, the shared
// scheduler. Idempotent.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.tuner != nil {
			s.tuner.Stop() // waits out an in-flight retune, saves the cache
		}
		if s.slab != nil {
			s.slab.stop()
		}
		if s.ownSched && s.sched != nil {
			s.sched.Close()
		}
	})
}

// Config returns the store's configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

// Scheduler returns the store's shared encode/decode pool — the HTTP
// layer's admission gate.
func (s *Store) Scheduler() *gemmec.Scheduler { return s.sched }

// Tuner returns the background serving-loop autotuner, nil unless the
// store was opened with TuneTrials > 0.
func (s *Store) Tuner() *tuned.Tuner { return s.tuner }

// Codes returns the store's shared per-geometry code registry.
func (s *Store) Codes() *tuned.Registry { return s.codes }

// observeSchedWait is the scheduler's OnWait hook: it mirrors per-task
// scheduler wait into the metrics histogram once metrics are attached.
func (s *Store) observeSchedWait(d time.Duration) {
	s.m().ObserveSchedWait(d)
}

// ensureDirs (re)creates the node and metadata directories. Called on Open
// and before writes/scrubs so that an operator who nukes a whole node
// directory (the quickstart's failure drill) sees it heal back.
func (s *Store) ensureDirs() error {
	for i := 0; i < s.cfg.Nodes; i++ {
		if err := os.MkdirAll(s.nodeDir(i), 0o755); err != nil {
			return err
		}
	}
	return os.MkdirAll(s.metaDir(), 0o755)
}

func (s *Store) nodeDir(i int) string {
	return filepath.Join(s.cfg.Root, fmt.Sprintf("node_%03d", i))
}

func (s *Store) metaDir() string { return filepath.Join(s.cfg.Root, "meta") }

// objKey is the filesystem-safe encoding of an object name.
func objKey(name string) string { return hex.EncodeToString([]byte(name)) }

func (s *Store) metaPath(key string) string {
	return filepath.Join(s.metaDir(), key+".json")
}

// shardPaths lays out meta's shards: shard i of object key lives at
// node_<placement[i]>/<key>.g<gen>.shard_<i>. The generation in the name
// keeps every write's shard set at paths no other generation can occupy.
func (s *Store) shardPaths(key string, meta ObjectMeta) []string {
	paths := make([]string, len(meta.Placement))
	for i, node := range meta.Placement {
		paths[i] = filepath.Join(s.nodeDir(node), fmt.Sprintf("%s.g%d.shard_%03d", key, meta.Gen, i))
	}
	return paths
}

func validateName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: %q (must be 1..%d bytes)", ErrBadObjectName, name, maxNameLen)
	}
	return nil
}

// fileOpts bundles the store's filesystem seam and shard-read deadline
// with one request's context for the shardfile layer.
func (s *Store) fileOpts(ctx context.Context) shardfile.Opts {
	return shardfile.Opts{Ctx: ctx, FS: s.cfg.FS, ShardReadTimeout: s.cfg.ShardReadTimeout, Sched: s.sched, Source: s.codes}
}

// ctxErr reports a dead request context, wrapping its cause.
func ctxErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return fmt.Errorf("server: canceled: %w", context.Cause(ctx))
	}
	return nil
}

// metaCacheMax bounds the parsed-metadata cache; past it an arbitrary
// entry is evicted (the cache is a parse-avoidance layer, not a working
// set guarantee — a miss just re-reads the file).
const metaCacheMax = 4096

type metaCacheEntry struct {
	meta ObjectMeta
	size int64
	mod  time.Time
}

// cachedMeta returns key's parsed metadata when the cache entry still
// matches the file's current identity.
func (s *Store) cachedMeta(key string, fi os.FileInfo) (ObjectMeta, bool) {
	s.mu.Lock()
	e, ok := s.metaCache[key]
	s.mu.Unlock()
	if !ok || e.size != fi.Size() || !e.mod.Equal(fi.ModTime()) {
		return ObjectMeta{}, false
	}
	return e.meta, true
}

func (s *Store) cacheMeta(key string, meta ObjectMeta, fi os.FileInfo) {
	s.mu.Lock()
	if len(s.metaCache) >= metaCacheMax {
		for k := range s.metaCache {
			delete(s.metaCache, k)
			break
		}
	}
	s.metaCache[key] = metaCacheEntry{meta: meta, size: fi.Size(), mod: fi.ModTime()}
	s.mu.Unlock()
}

func (s *Store) dropMetaCache(key string) {
	s.mu.Lock()
	delete(s.metaCache, key)
	s.mu.Unlock()
}

func (s *Store) loadMeta(key string) (ObjectMeta, error) {
	var meta ObjectMeta
	path := s.metaPath(key)
	fi, err := os.Stat(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.dropMetaCache(key)
			return meta, ErrObjectNotFound
		}
		return meta, err
	}
	if m, ok := s.cachedMeta(key, fi); ok {
		return m, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return meta, ErrObjectNotFound
		}
		return meta, err
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		return meta, fmt.Errorf("server: corrupt metadata for %s: %w", key, err)
	}
	if meta.Slab != nil {
		// Packed member: no shard set of its own, just a window into a
		// slab. The slab's metadata is validated when it is loaded.
		if meta.Slab.Key == "" || meta.Slab.Offset < 0 || meta.Slab.Size < 0 {
			return meta, fmt.Errorf("server: metadata for %s has invalid slab ref %+v", key, *meta.Slab)
		}
		s.cacheMeta(key, meta, fi)
		return meta, nil
	}
	if err := meta.Manifest.Validate(); err != nil {
		return meta, err
	}
	if len(meta.Placement) != meta.Manifest.K+meta.Manifest.R {
		return meta, fmt.Errorf("server: metadata for %s places %d shards, manifest wants %d",
			key, len(meta.Placement), meta.Manifest.K+meta.Manifest.R)
	}
	// Cache only fully validated metadata, keyed by the pre-read stat: if
	// the file is replaced between the stat and the read we cache the new
	// bytes under the old identity, so the next stat misses and reparses —
	// a stale miss, never a stale hit.
	s.cacheMeta(key, meta, fi)
	return meta, nil
}

// metaEncoder pairs a reusable output buffer with a json.Encoder bound to
// it. Pooled as a unit because the encoder's indentation scratch lives
// inside it: a fresh Encoder per commit would regrow that scratch to the
// metadata's size every PUT, an allocation cost that scales with stripe
// count.
type metaEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var metaEncPool = sync.Pool{New: func() any {
	m := &metaEncoder{}
	m.enc = json.NewEncoder(&m.buf)
	m.enc.SetIndent("", "  ")
	return m
}}

func (s *Store) saveMeta(key string, meta ObjectMeta) error {
	me := metaEncPool.Get().(*metaEncoder)
	defer metaEncPool.Put(me)
	me.buf.Reset()
	if err := me.enc.Encode(meta); err != nil {
		return err
	}
	tmp := s.metaPath(key) + ".tmp"
	if err := os.WriteFile(tmp, me.buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.metaPath(key)); err != nil {
		os.Remove(tmp)
		s.dropMetaCache(key)
		return err
	}
	// Refresh the parse cache with what we just committed (writers hold
	// the object lock, so the stat observes our own rename).
	if fi, err := os.Stat(s.metaPath(key)); err == nil {
		s.cacheMeta(key, meta, fi)
	} else {
		s.dropMetaCache(key)
	}
	return nil
}

// placement picks the k+r node directories for a new object by rotating
// round-robin: consecutive objects start at consecutive nodes, every shard
// of one object lands in a distinct node.
func (s *Store) placement() []int {
	s.mu.Lock()
	rot := s.rot
	s.rot = (s.rot + 1) % s.cfg.Nodes
	s.mu.Unlock()
	p := make([]int, s.cfg.K+s.cfg.R)
	for i := range p {
		p[i] = (rot + i) % s.cfg.Nodes
	}
	return p
}

// Put streams src into the store as object name, erasure-coding it through
// the pipelined engine. size is validated against the bytes read when
// >= 0; pass -1 for unknown-length sources (chunked uploads). Overwrites
// are crash-atomic: the new generation's shards live at paths the old
// generation cannot occupy, the metadata rename is the single commit
// point, and the old shards are deleted only after it lands — so at every
// instant the object is fully the old version or fully the new one, for
// concurrent readers and across crashes alike.
//
// ctx bounds the whole write: when it dies (client disconnect, request
// deadline, server drain) the encode pipeline stops between stripes, the
// per-object lock is released, and every temporary shard file is removed —
// a canceled Put leaves no trace.
func (s *Store) Put(ctx context.Context, name string, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	if err := validateName(name); err != nil {
		return ObjectMeta{}, st, err
	}
	if err := ctxErr(ctx); err != nil {
		return ObjectMeta{}, st, err
	}
	key := objKey(name)
	lsp := obs.StartSpan(ctx, "store.lock")
	l := s.lockKey(key)
	lsp.End(nil)
	defer l.Unlock()
	if err := s.ensureDirs(); err != nil {
		return ObjectMeta{}, st, err
	}

	// On overwrite, bump the generation and remember the old shard set for
	// post-commit removal; reuse the placement when it still fits the
	// geometry, and allocate a fresh rotation slot otherwise.
	meta := ObjectMeta{Name: name, Gen: 1}
	var oldPaths []string
	old, err := s.loadMeta(key)
	switch {
	case err == nil:
		meta.Gen = old.Gen + 1
		oldPaths = s.shardPaths(key, old)
		if s.placementUsable(old.Placement) {
			meta.Placement = old.Placement
		}
	case errors.Is(err, ErrObjectNotFound):
		// Fresh object.
	default:
		// Corrupt or inconsistent metadata: rewriting would orphan shards
		// at locations nothing records anymore. Refuse and let the
		// operator clear the object first (Delete handles this state).
		return ObjectMeta{}, st, err
	}
	return s.putLocked(ctx, key, meta, oldPaths, src, size)
}

// putLocked is Put's encode-and-commit tail, shared with the patch
// read-modify-write fallback. The caller holds key's exclusive lock and
// has already resolved meta (generation, reusable placement) and the old
// generation's shard paths.
func (s *Store) putLocked(ctx context.Context, key string, meta ObjectMeta, oldPaths []string, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	// Small-object fast path: at or below the slab threshold the object is
	// group-committed into a shared slab instead of its own shard set. The
	// PUT still blocks until the batch is durably committed; only the cost
	// structure changes (one shard set per batch instead of per object).
	if s.slab != nil && size >= 0 && size <= s.cfg.SlabThreshold {
		data := make([]byte, size)
		if _, err := io.ReadFull(src, data); err != nil {
			return ObjectMeta{}, st, fmt.Errorf("server: reading object body: %w", err)
		}
		meta.Placement = nil // members have no shard set of their own
		packed, err := s.putSlab(ctx, key, meta, oldPaths, data)
		if err == nil {
			s.clearPatchJournal(key)
		}
		return packed, st, err
	}
	if meta.Placement == nil {
		meta.Placement = s.placement()
	}
	paths := s.shardPaths(key, meta)
	m, st, err := shardfile.WriteStreamPaths(paths, src, size,
		s.cfg.K, s.cfg.R, s.cfg.UnitSize, 0, s.fileOpts(ctx))
	if err != nil {
		s.removeFiles(paths)
		return ObjectMeta{}, st, err
	}
	if cerr := ctxErr(ctx); cerr != nil {
		// The request died between the final stripe and the commit point.
		// Committing would hand a canceled request a success nobody reads;
		// honor the documented contract — a canceled Put leaves no trace.
		s.removeFiles(paths)
		return ObjectMeta{}, st, cerr
	}
	meta.Manifest = m
	csp := obs.StartSpan(ctx, "meta.commit")
	err = s.saveMeta(key, meta)
	csp.End(err)
	if err != nil {
		s.removeFiles(paths)
		return ObjectMeta{}, st, err
	}
	// Committed: the previous generation's shards are garbage now, and any
	// stranded patch journal targets a generation that no longer exists.
	// Best effort — anything a crash strands here is swept by the scrubber.
	s.clearPatchJournal(key)
	s.removeFiles(oldPaths)
	s.recordPut(st, m.FileSize)
	return meta, st, nil
}

// removeFiles best-effort removes a shard path set (through the store's
// filesystem seam, so fault-injection tests observe the cleanup too).
func (s *Store) removeFiles(paths []string) {
	fsys := vfs.Or(s.cfg.FS)
	for _, p := range paths {
		fsys.Remove(p)
	}
}

// placementUsable reports whether an existing placement still fits the
// store's geometry (same shard count, node indices in range).
func (s *Store) placementUsable(p []int) bool {
	if len(p) != s.cfg.K+s.cfg.R {
		return false
	}
	for _, n := range p {
		if n < 0 || n >= s.cfg.Nodes {
			return false
		}
	}
	return true
}

// Object is an opened object ready to stream — from a Store's shard files
// or a Gateway's peer streams alike; what differs is only what the
// shardfile.StreamReader underneath reads from. Open-time checks (shard
// presence and length; whole-shard SHA-256 for legacy v1 manifests) have
// already run, so Degraded/Unusable start populated before the first
// payload byte — the HTTP layer turns them into response headers. For v2
// manifests content verification happens inside Stream itself, per unit,
// so a shard can additionally be demoted mid-stream; Demoted and the
// post-Stream Unusable report those, and the HTTP layer turns them into
// response trailers. Close must be called exactly once.
type Object struct {
	Meta ObjectMeta

	t            *traffic // the backend's counters the read reports into
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
func (t *traffic) newObject(meta ObjectMeta, sr *shardfile.StreamReader, lock, slabLock *keyLock) *Object {
	t.gets.Add(1)
	if sr.Degraded() {
		t.degradedGets.Add(1)
		if mt := t.m(); mt != nil {
			mt.degradedGets.Inc()
		}
	}
	return &Object{Meta: meta, t: t, sr: sr, openDegraded: sr.Degraded(), lock: lock, slabLock: slabLock}
}

// setRange narrows o to payload window [off, off+length), already
// resolved against the object's size.
func (o *Object) setRange(off, length int64) {
	o.ranged, o.rangeOff, o.rangeLen = true, off, length
	o.t.rangeGets.Add(1)
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
// the fly and (for v2 manifests) verifying every unit's stripe checksum
// in the same pass, on the backend's shared scheduler (sr's Opts carry
// it). It may be called at most once.
func (o *Object) Stream(dst io.Writer) (gemmec.StreamStats, error) {
	st, err := o.sr.Decode(dst, 0)
	mt := o.t.m()
	mt.recordStream("get", st)
	if len(o.sr.Demoted()) > 0 && !o.openDegraded {
		// The open looked clean but the decode had to reconstruct around a
		// mid-stream failure: that is a degraded read, even though we only
		// learned it after the headers went out.
		o.t.degradedGets.Add(1)
		if mt != nil {
			mt.degradedGets.Inc()
		}
	}
	if err == nil {
		_, n := o.Range()
		o.t.bytesOut.Add(n)
		mt.recordObjectBytes("get", n)
		if mt != nil {
			mt.bytesOut.Add(n)
			if o.ranged {
				mt.recordRange(n)
			}
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

// OpenObject opens object name for reading. For v2 (stripe-checksummed)
// manifests the open costs one stat per shard — no shard bytes are read
// until Stream, which reads only the data units it returns and verifies
// each inside the decode pass, so the first payload byte is one unit of
// I/O away. Legacy v1 manifests are still whole-shard SHA-256 verified
// here (in parallel across shards). Missing or corrupt shards — all k+r
// are probed, read or not — are noted for degraded decoding; if too few
// survive, the error wraps gemmec.ErrTooFewShards (and
// gemmec.ErrCorruptShard when checksum failures contributed). The object
// holds a shared lock until Close, so a concurrent scrub cannot rewrite
// shards mid-stream.
//
// ctx is remembered by the object: the later Stream observes it between
// stripes, so a dead request stops decoding, releases the lock on Close,
// and frees the pipeline workers.
func (s *Store) OpenObject(ctx context.Context, name string) (*Object, error) {
	return s.openObject(ctx, name, false, 0, 0)
}

// openObject is OpenObject and OpenObjectRange: key lock (shared, held by
// the returned object until Close), metadata, the window — resolved
// before any shard is touched, so only the files it reads stay open —
// then the shard set, the object's own or its slab's.
func (s *Store) openObject(ctx context.Context, name string, ranged bool, off, length int64) (*Object, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	key := objKey(name)
	lsp := obs.StartSpan(ctx, "store.lock")
	l := s.rlockKey(key)
	lsp.End(nil)
	fail := func(err error) (*Object, error) {
		l.RUnlock()
		return nil, err
	}
	meta, err := s.loadMeta(key)
	if err != nil {
		return fail(err)
	}
	if !ranged {
		off, length = 0, meta.Size()
	} else if off, length, err = resolveRange(off, length, meta.Size()); err != nil {
		return fail(err)
	}
	var o *Object
	if meta.Slab != nil {
		if o, err = s.openSlabMember(ctx, l, meta, off, length); err != nil {
			return nil, err // openSlabMember released l
		}
	} else {
		sr, oerr := shardfile.OpenRangePaths(s.shardPaths(key, meta), meta.Manifest, off, length, s.fileOpts(ctx))
		if oerr != nil {
			return fail(oerr)
		}
		o = s.newObject(meta, sr, l, nil)
	}
	if ranged {
		o.setRange(off, length)
	}
	return o, nil
}

// openSlabMember resolves a packed member's ref to its slab and opens the
// slab's shard set over bytes [off, off+length) of the member. memberLock
// is the member's shared lock, already held; the slab's shared lock is
// taken second (member → slab order) and both are released by
// Object.Close, or here on failure.
func (s *Store) openSlabMember(ctx context.Context, memberLock *keyLock, meta ObjectMeta, off, length int64) (*Object, error) {
	sl := s.rlockKey(meta.Slab.Key)
	fail := func(err error) (*Object, error) {
		sl.RUnlock()
		memberLock.RUnlock()
		return nil, err
	}
	slabMeta, err := s.loadMeta(meta.Slab.Key)
	if err != nil {
		return fail(err)
	}
	if meta.Slab.Offset+meta.Slab.Size > slabMeta.Manifest.FileSize {
		return fail(fmt.Errorf("server: %s: slab window [%d,+%d) exceeds slab %s payload of %d bytes",
			meta.Name, meta.Slab.Offset, meta.Slab.Size, meta.Slab.Key, slabMeta.Manifest.FileSize))
	}
	sr, err := shardfile.OpenRangePaths(s.shardPaths(meta.Slab.Key, slabMeta), slabMeta.Manifest,
		meta.Slab.Offset+off, length, s.fileOpts(ctx))
	if err != nil {
		return fail(err)
	}
	return s.newObject(meta, sr, memberLock, sl), nil
}

// Get streams object name to dst, returning its metadata and the shard
// indices reconstructed around (nil when the read was clean).
func (s *Store) Get(ctx context.Context, name string, dst io.Writer) (ObjectMeta, []int, error) {
	o, err := s.OpenObject(ctx, name)
	if err != nil {
		return ObjectMeta{}, nil, err
	}
	defer o.Close()
	if _, err := o.Stream(dst); err != nil {
		return o.Meta, o.Unusable(), err
	}
	return o.Meta, o.Unusable(), nil
}

// Stat returns object name's metadata without touching its shards.
func (s *Store) Stat(name string) (ObjectMeta, error) {
	if err := validateName(name); err != nil {
		return ObjectMeta{}, err
	}
	key := objKey(name)
	l := s.rlockKey(key)
	defer l.RUnlock()
	return s.loadMeta(key)
}

// Delete removes object name's shards and metadata. It also clears
// objects whose metadata no longer parses or validates — the one state Put
// refuses to touch — by sweeping every node directory for the key's shard
// files, so broken objects have an exit that does not leak disk.
func (s *Store) Delete(ctx context.Context, name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	key := objKey(name)
	l := s.lockKey(key)
	defer l.Unlock()
	meta, err := s.loadMeta(key)
	switch {
	case err == nil:
		if err := os.Remove(s.metaPath(key)); err != nil {
			return err
		}
		s.dropMetaCache(key)
		s.clearPatchJournal(key)
		s.removeFiles(s.shardPaths(key, meta)) // best effort; scrub sweeps strays
	case errors.Is(err, ErrObjectNotFound):
		return err
	default:
		// Metadata too broken to locate the shards precisely: drop it and
		// glob the key's shard files out of every node directory.
		if rmErr := os.Remove(s.metaPath(key)); rmErr != nil {
			return rmErr
		}
		s.dropMetaCache(key)
		s.clearPatchJournal(key)
		s.removeKeyShards(key)
	}
	s.deletes.Add(1)
	return nil
}

// removeKeyShards best-effort removes every shard file of key — any
// generation, any node directory. The "." after the hex key cannot appear
// inside another key, so the glob never matches a different object.
func (s *Store) removeKeyShards(key string) {
	for i := 0; i < s.cfg.Nodes; i++ {
		matches, _ := filepath.Glob(filepath.Join(s.nodeDir(i), key+".g*"))
		for _, p := range matches {
			os.Remove(p)
		}
	}
}

// List returns the stored object names, sorted.
func (s *Store) List() ([]string, error) {
	ents, err := os.ReadDir(s.metaDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		raw, err := hex.DecodeString(key)
		if err != nil {
			continue
		}
		names = append(names, string(raw))
	}
	sort.Strings(names)
	return names, nil
}

// StatAll returns the metadata of every stored object in one pass over
// meta/ — one ReadDir plus one metadata load per object, sorted by name.
// The /objects handler uses it instead of List-then-Stat-per-name, which
// walked the directory and re-derived each key a second time. Objects
// whose metadata is missing (deleted mid-walk) or fails to load are
// skipped: a broken object should spoil scrubs, not listings.
func (s *Store) StatAll() ([]ObjectMeta, error) {
	ents, err := os.ReadDir(s.metaDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	metas := make([]ObjectMeta, 0, len(ents))
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		if _, err := hex.DecodeString(key); err != nil {
			continue
		}
		l := s.rlockKey(key)
		meta, err := s.loadMeta(key)
		l.RUnlock()
		if err != nil {
			continue
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	return metas, nil
}

// ScrubObject verifies object name's shards against the manifest checksums
// and rebuilds any missing or corrupt shard in place (temp-file + rename),
// returning the healed shard indices. The object is exclusively locked for
// the duration. A canceled ctx stops the scrub between stripe rebuilds;
// shards are healed whole (temp + rename), so cancellation never leaves a
// torn shard behind.
func (s *Store) ScrubObject(ctx context.Context, name string) ([]int, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	key := objKey(name)
	l := s.lockKey(key)
	defer l.Unlock()
	meta, err := s.loadMeta(key)
	if err != nil {
		return nil, err
	}
	if meta.Slab != nil {
		// Packed members have no shard set of their own; the slab pass
		// scrubs (and if dead, reclaims) the backing slab.
		return nil, nil
	}
	if err := s.ensureDirs(); err != nil {
		return nil, err
	}
	healed, err := shardfile.ScrubPaths(s.shardPaths(key, meta), meta.Manifest, s.fileOpts(ctx))
	if err != nil {
		return nil, err
	}
	s.shardsHealed.Add(int64(len(healed)))
	return healed, nil
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

// ScrubAll sweeps every object in the catalog once. It never fails as a
// whole: per-object failures are collected in the report — except
// cancellation: when ctx dies mid-sweep the remaining objects are left
// for the next cycle rather than recorded as scrub errors.
func (s *Store) ScrubAll(ctx context.Context) (rep ScrubReport) {
	start := time.Now()
	defer func() {
		s.scrubErrors.Add(int64(len(rep.Errors)))
		done := time.Now()
		s.m().recordScrub(rep, done.Sub(start), done)
	}()
	// Patch journals first: a stranded journal means some object's shard
	// files may hold half-applied stripes whose sums the committed
	// manifest does not describe; rolling it forward before the per-object
	// pass keeps the scrub from "healing" a patch mid-flight.
	rep.PatchesRecovered = s.recoverPatches(ctx)
	names, err := s.List()
	if err != nil {
		rep.record("<catalog>", nil, err)
		return rep
	}
	for _, name := range names {
		if ctx.Err() != nil {
			break
		}
		rep.Objects++
		healed, err := s.ScrubObject(ctx, name)
		if rep.record(name, healed, err) {
			break
		}
	}
	// Slab pass: heal damaged slabs like any object, and reclaim the ones
	// no live member references anymore (the only way dead packed bytes
	// leave the disk — slabs are immutable, member deletes just unlink).
	for _, key := range s.listSlabKeys() {
		if ctx.Err() != nil {
			break
		}
		rep.Objects++
		healed, reclaimed, err := s.scrubSlab(ctx, key)
		if reclaimed {
			rep.SlabsReclaimed++
		}
		if rep.record(key, healed, err) {
			break
		}
	}
	if ctx.Err() == nil {
		rep.OrphansRemoved = s.sweepOrphans(ctx)
	}
	s.scrubCycles.Add(1)
	return rep
}

// sweepOrphans reclaims shard files no committed metadata refers to:
// generations superseded by an overwrite, shards stranded by a crash
// between shard writes and the metadata commit, and stale temp files. Each
// key is examined under its write lock, so an in-flight Put's uncommitted
// generation is never mistaken for garbage. Keys whose metadata exists but
// fails to load are skipped entirely — their files may be the only
// surviving copy of a repairable object.
func (s *Store) sweepOrphans(ctx context.Context) int {
	byKey := map[string][]string{}
	for i := 0; i < s.cfg.Nodes; i++ {
		ents, err := os.ReadDir(s.nodeDir(i))
		if err != nil {
			continue
		}
		for _, e := range ents {
			key, rest, ok := strings.Cut(e.Name(), ".")
			if !ok || !strings.HasPrefix(rest, "g") || !strings.Contains(rest, "shard_") {
				continue // not one of our shard files
			}
			byKey[key] = append(byKey[key], filepath.Join(s.nodeDir(i), e.Name()))
		}
	}
	removed := 0
	for key, files := range byKey {
		if ctx.Err() != nil {
			break
		}
		l := s.lockKey(key)
		meta, err := s.loadMeta(key)
		if err == nil || errors.Is(err, ErrObjectNotFound) {
			current := map[string]bool{}
			if err == nil {
				for _, p := range s.shardPaths(key, meta) {
					current[p] = true
				}
			}
			fsys := vfs.Or(s.cfg.FS)
			for _, p := range files {
				if !current[p] && fsys.Remove(p) == nil {
					removed++
				}
			}
		}
		l.Unlock()
	}
	s.orphansRemoved.Add(int64(removed))
	return removed
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	names, _ := s.List()
	var tunerRuns, tunerGens int64
	if s.tuner != nil {
		ts := s.tuner.Stats()
		tunerRuns, tunerGens = ts.Runs, ts.Generations
	}
	return Stats{
		TunerRuns:        tunerRuns,
		TunerGenerations: tunerGens,
		Objects:          len(names),
		Puts:             s.puts.Load(),
		Gets:             s.gets.Load(),
		DegradedGets:     s.degradedGets.Load(),
		Deletes:          s.deletes.Load(),
		RangeGets:        s.rangeGets.Load(),
		Patches:          s.patches.Load(),
		PatchFallbacks:   s.patchFallbacks.Load(),
		SlabPuts:         s.slabPuts.Load(),
		SlabFlushes:      s.slabFlushes.Load(),
		SlabsReclaimed:   s.slabsReclaimed.Load(),
		RequestsShed:     s.sched.Shed(),
		SchedQueue:       s.sched.QueueDepth(),
		ScrubCycles:      s.scrubCycles.Load(),
		ShardsHealed:     s.shardsHealed.Load(),
		OrphansRemoved:   s.orphansRemoved.Load(),
		ScrubErrors:      s.scrubErrors.Load(),
		BytesIn:          s.bytesIn.Load(),
		BytesOut:         s.bytesOut.Load(),
		UnitSize:         s.cfg.UnitSize,
		DataShards:       s.cfg.K,
		ParityShards:     s.cfg.R,
		NodeDirs:         s.cfg.Nodes,
		StreamWorkers:    s.sched.Workers(),
	}
}
