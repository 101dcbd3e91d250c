// Package server is the networked erasure-coded object daemon behind
// cmd/ecserver: a stdlib-only HTTP object store that chunks uploads into
// stripes, encodes them through the pipelined streaming engine, and spreads
// the k+r shards of every object across distinct failure domains — N local
// "node" directories (Store) or the members of a ring of networked peers
// (Gateway). Both sit under one object front (front.go) and differ only in
// where metadata and shards live. Reads verify every unit against its
// manifest checksum and reconstruct transparently when shards are missing
// or rotten; a background scrubber walks the catalog on a jittered
// interval and heals damage in place. It is §8's "integrate into real
// storage systems" realized as a process that actually serves bytes over
// a socket.
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
	"gemmec/internal/vfs"
)

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
}

// Store is the single-node backend: object metadata in meta/, each
// object's k+r shards in k+r of the node directories, small objects packed
// into slabs. The object front it embeds serves the requests; what is
// here is where those bytes live.
type Store struct {
	front
	cfg StoreConfig

	// slab is the small-object group-commit writer, nil unless
	// SlabThreshold > 0. slabSeq allocates slab keys.
	slab    *slabWriter
	slabSeq atomic.Int64

	// The front's keyLocks.mu also guards the small state below (rot,
	// metaCache, pendingSlabs).
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

	orphansRemoved        atomic.Int64
	slabPuts, slabFlushes atomic.Int64
	slabsReclaimed        atomic.Int64
}

// Open opens (creating if necessary) the store rooted at cfg.Root. The
// store owns background machinery — the shared scheduler and the slab
// writer — so pair every Open with a Close.
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
	err := s.start(s, cfg.K, cfg.R, cfg.UnitSize, cfg.Workers, cfg.MaxStreams)
	if err == nil {
		err = s.ensureDirs()
	}
	var names []string
	if err == nil {
		names, err = s.List()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	// Start the placement rotation where the existing population left off,
	// so restarts keep spreading load instead of re-piling on node 0.
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
	return s, nil
}

// Close stops the store's background machinery: the slab writer (any
// pending batch is committed first), then the shared scheduler.
// Idempotent.
func (s *Store) Close() {
	if s.slab != nil {
		s.slab.stop()
	}
	s.front.Close()
}

// SetMetrics attaches the observability bundle: the families every
// backend registers, plus the store's slab and orphan counters.
func (s *Store) SetMetrics(m *Metrics) {
	s.front.SetMetrics(m)
	m.registerStore(s)
}

// Config returns the store's configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

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

// fileOpts bundles the store's filesystem seam and shard-read deadline
// with one request's context for the shardfile layer.
func (s *Store) fileOpts(ctx context.Context) shardfile.Opts {
	return shardfile.Opts{Ctx: ctx, FS: s.cfg.FS, ShardReadTimeout: s.cfg.ShardReadTimeout, Sched: s.sched, Source: s.codes}
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

// current implements storage: the object's metadata file, parsed once
// and cached.
func (s *Store) current(_ context.Context, key string) (ObjectMeta, error) {
	return s.loadMeta(key)
}

// openWindow implements storage over the object's shard files — or, for a
// packed member, over its window of the slab's, under the slab's shared
// lock: taken second (member → slab, the order everywhere) and released
// here on failure, by the caller otherwise.
func (s *Store) openWindow(ctx context.Context, key string, meta ObjectMeta, off, n int64) (*shardfile.StreamReader, *keyLock, error) {
	if meta.Slab == nil {
		sr, err := shardfile.OpenRangePaths(s.shardPaths(key, meta), meta.Manifest, off, n, s.fileOpts(ctx))
		return sr, nil, err
	}
	sl := s.rlockKey(meta.Slab.Key)
	slabMeta, err := s.loadMeta(meta.Slab.Key)
	if err == nil && meta.Slab.Offset+meta.Slab.Size > slabMeta.Manifest.FileSize {
		err = fmt.Errorf("server: %s: slab window [%d,+%d) exceeds slab %s payload of %d bytes",
			meta.Name, meta.Slab.Offset, meta.Slab.Size, meta.Slab.Key, slabMeta.Manifest.FileSize)
	}
	var sr *shardfile.StreamReader
	if err == nil {
		sr, err = shardfile.OpenRangePaths(s.shardPaths(meta.Slab.Key, slabMeta), slabMeta.Manifest,
			meta.Slab.Offset+off, n, s.fileOpts(ctx))
	}
	if err != nil {
		sl.RUnlock()
		return nil, nil, err
	}
	return sr, sl, nil
}

// commit implements storage: the new generation's shards go to paths no
// other generation can occupy, the metadata rename is the single commit
// point, and prev's shards are removed only after it lands — by the
// returned reclaim — so at every instant the object is fully the old
// version or fully the new one, for concurrent readers and across crashes
// alike. A placement that still fits the geometry is reused; otherwise the
// next rotation slot is taken.
func (s *Store) commit(ctx context.Context, key, name string, prev ObjectMeta, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, func(), error) {
	var st gemmec.StreamStats
	if err := s.ensureDirs(); err != nil {
		return ObjectMeta{}, st, nil, err
	}
	meta := ObjectMeta{Name: name, Gen: prev.Gen + 1}
	oldPaths := s.shardPaths(key, prev)
	if s.placementUsable(prev.Placement) {
		meta.Placement = prev.Placement
	}
	// Small-object fast path: at or below the slab threshold the object is
	// group-committed into a shared slab instead of its own shard set. The
	// PUT still blocks until the batch is durably committed; only the cost
	// structure changes (one shard set per batch instead of per object).
	if s.slab != nil && size >= 0 && size <= s.cfg.SlabThreshold {
		data := make([]byte, size)
		if _, err := io.ReadFull(src, data); err != nil {
			return ObjectMeta{}, st, nil, fmt.Errorf("server: reading object body: %w", err)
		}
		meta.Placement = nil // members have no shard set of their own
		packed, err := s.putSlab(ctx, key, meta, oldPaths, data)
		if err == nil {
			s.clearPatchJournal(key)
		}
		return packed, st, nil, err
	}
	if meta.Placement == nil {
		meta.Placement = s.placement()
	}
	paths := s.shardPaths(key, meta)
	m, st, err := shardfile.WriteStreamPaths(paths, src, size,
		s.cfg.K, s.cfg.R, s.cfg.UnitSize, 0, s.fileOpts(ctx))
	if err != nil {
		s.removeFiles(paths)
		return ObjectMeta{}, st, nil, err
	}
	if cerr := ctxErr(ctx); cerr != nil {
		// The request died between the final stripe and the commit point.
		// Committing would hand a canceled request a success nobody reads;
		// honor the documented contract — a canceled Put leaves no trace.
		s.removeFiles(paths)
		return ObjectMeta{}, st, nil, cerr
	}
	meta.Manifest = m
	csp := obs.StartSpan(ctx, "meta.commit")
	err = s.saveMeta(key, meta)
	csp.End(err)
	if err != nil {
		s.removeFiles(paths)
		return ObjectMeta{}, st, nil, err
	}
	// Committed: any stranded patch journal targets a generation that no
	// longer exists, and the previous generation's shards are garbage now.
	// Best effort — anything a crash strands is swept by the scrubber.
	s.clearPatchJournal(key)
	s.recordPut(st, m.FileSize)
	var reclaim func()
	if len(oldPaths) > 0 {
		reclaim = func() { s.removeFiles(oldPaths) }
	}
	return meta, st, reclaim, nil
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

// remove implements storage: the object's metadata, then its shards. It
// also clears objects whose metadata no longer parses or validates — the
// one state Put refuses to touch — by sweeping every node directory for
// the key's shard files, so broken objects have an exit that does not
// leak disk.
func (s *Store) remove(_ context.Context, key, _ string) error {
	meta, err := s.loadMeta(key)
	if errors.Is(err, ErrObjectNotFound) {
		return err
	}
	if rmErr := os.Remove(s.metaPath(key)); rmErr != nil {
		return rmErr
	}
	s.dropMetaCache(key)
	s.clearPatchJournal(key)
	if err != nil {
		// Metadata too broken to locate the shards precisely: glob the
		// key's shard files out of every node directory.
		s.removeKeyShards(key)
	} else {
		s.removeFiles(s.shardPaths(key, meta)) // best effort; scrub sweeps strays
	}
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
	key, l, err := s.lock(ctx, name, true)
	if err != nil {
		return nil, err
	}
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

// sweep implements storage: every object and every slab is verified unit
// by unit and healed in place, stranded patch journals are rolled
// forward, and shard files no metadata refers to are reclaimed.
func (s *Store) sweep(ctx context.Context) (rep ScrubReport) {
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

// describe implements storage: the node directories, slab packing and
// orphan reclamation only a single node has.
func (s *Store) describe(st *Stats) {
	st.NodeDirs = s.cfg.Nodes
	st.SlabPuts = s.slabPuts.Load()
	st.SlabFlushes = s.slabFlushes.Load()
	st.SlabsReclaimed = s.slabsReclaimed.Load()
	st.OrphansRemoved = s.orphansRemoved.Load()
}
