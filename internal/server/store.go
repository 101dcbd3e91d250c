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
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
	// UnitSize is the shard unit size in bytes per stripe of objects
	// stored in their own shard set, the ones above SlabThreshold (0
	// selects gemmec.DefaultUnitSize). Slabs are coded in 4 KiB units,
	// the granule a packed member is read in.
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
	// SlabThreshold > 0.
	slab *slabWriter

	// The front's keyLocks.mu also guards the small state below (rot,
	// metaCache, slabSeq, pendingSlabs).
	rot int // rotating placement offset
	// metaCache holds parsed object metadata keyed by store key, validated
	// against the meta file's (size, mtime) on every hit, so steady-state
	// GETs skip the per-request ReadFile + JSON parse (whose allocations
	// scale with stripe count). Guarded by mu; invalidated wherever this
	// process writes or removes a meta file, and self-invalidating against
	// out-of-band edits via the stat check.
	metaCache map[string]metaCacheEntry
	// slabSeq is the highest slab number allocated, slab keys being
	// slab_<n>. pendingSlabs pins freshly flushed slabs, counting
	// references: a slab key is allocated and pinned in one step before
	// its metadata commits, and unpinned only after every batch member has
	// settled — committed its own member metadata or abandoned the request
	// — so the scrubber never mistakes "references still in flight" for
	// "no live references" and reclaims a slab whose PUTs are about to be
	// acknowledged (see sweep).
	slabSeq      int64
	pendingSlabs map[string]int

	// nodeDirs, metaDirPath and shardSuffixes (one per shard index of the
	// store's geometry) are built once at Open, so a request's shard and
	// metadata paths are plain concatenations.
	nodeDirs      []string
	metaDirPath   string
	shardSuffixes []string

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
		pendingSlabs: map[string]int{},
		metaCache:    map[string]metaCacheEntry{},
		metaDirPath:  filepath.Join(cfg.Root, "meta"),
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodeDirs = append(s.nodeDirs, nodeDirName(cfg.Root, i))
	}
	for i := 0; i < cfg.K+cfg.R; i++ {
		s.shardSuffixes = append(s.shardSuffixes, shardSuffixName(i))
	}
	err := s.start(s, cfg.K, cfg.R, cfg.UnitSize, cfg.Workers, cfg.MaxStreams)
	if err == nil {
		err = s.ensureDirs()
	}
	var cat catalog
	if err == nil {
		cat, err = s.readCatalog()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	// Start the placement rotation where the existing population left off,
	// so restarts keep spreading load instead of re-piling on node 0, and
	// number new slabs past the highest committed one.
	s.rot = len(cat.names) % cfg.Nodes
	s.slabSeq = cat.maxSlab
	// Roll forward any patch journal a crash stranded, before a single
	// request can observe the half-applied stripes it describes.
	s.recoverPatches(context.Background(), cat)
	if cfg.SlabThreshold > 0 {
		if s.cfg.SlabWindow <= 0 {
			s.cfg.SlabWindow = 2 * time.Millisecond
		}
		if s.cfg.SlabMaxBytes <= 0 {
			s.cfg.SlabMaxBytes = 4 << 20
		}
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

const pathSep = string(filepath.Separator)

// nodeDirName spells node directory i, node_<i>, under root.
func nodeDirName(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("node_%03d", i))
}

// shardSuffixName spells the name suffix of shard i, .shard_<i>.
func shardSuffixName(i int) string { return fmt.Sprintf(".shard_%03d", i) }

// nodeDir is node directory i, from the names Open spelled; an index
// outside the store's own (metadata written under another configuration)
// is spelled afresh.
func (s *Store) nodeDir(i int) string {
	if i >= 0 && i < len(s.nodeDirs) {
		return s.nodeDirs[i]
	}
	return nodeDirName(s.cfg.Root, i)
}

// shardSuffix is shard i's name suffix, from the names Open spelled.
func (s *Store) shardSuffix(i int) string {
	if i < len(s.shardSuffixes) {
		return s.shardSuffixes[i]
	}
	return shardSuffixName(i)
}

func (s *Store) metaDir() string { return s.metaDirPath }

func (s *Store) metaPath(key string) string {
	return s.metaDirPath + pathSep + key + ".json"
}

// shardPaths lays out meta's shards: shard i of object key lives at
// node_<placement[i]>/<key>.g<gen>.shard_<i>. The generation in the name
// keeps every write's shard set at paths no other generation can occupy.
func (s *Store) shardPaths(key string, meta ObjectMeta) []string {
	paths := make([]string, len(meta.Placement))
	gen := strconv.FormatInt(meta.Gen, 10)
	for i, node := range meta.Placement {
		paths[i] = s.nodeDir(node) + pathSep + key + ".g" + gen + s.shardSuffix(i)
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
	if err := meta.validate(); err != nil {
		return meta, err
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
	meta := ObjectMeta{Name: name, Gen: prev.Gen + 1}
	oldPaths := s.shardPaths(key, prev)
	if s.placementUsable(prev.Placement) {
		meta.Placement = prev.Placement
	}
	// Small-object fast path: at or below the slab threshold the object is
	// group-committed into a shared slab instead of its own shard set. The
	// PUT still blocks until the batch is durably committed; only the cost
	// structure changes (one shard set per batch instead of per object).
	// The slab flusher (re)creates the directories it writes into.
	if s.slab != nil && size >= 0 && size <= s.cfg.SlabThreshold {
		data := make([]byte, size)
		if _, err := io.ReadFull(src, data); err != nil {
			return ObjectMeta{}, st, nil, fmt.Errorf("server: reading object body: %w", err)
		}
		meta.Placement = nil // members have no shard set of their own
		packed, err := s.putSlab(ctx, key, meta, oldPaths, data)
		// A patch journal only ever targets a generation with its own
		// shard set (patchInPlace declines packed members); any other
		// stranded journal is one replayJournal discards, as the object
		// is now packed.
		if err == nil && len(oldPaths) > 0 {
			s.clearPatchJournal(key)
		}
		return packed, st, nil, err
	}
	if err := s.ensureDirs(); err != nil {
		return ObjectMeta{}, st, nil, err
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

// catalog is one listing of meta/, sorted by what each file is. Every
// reader of that directory — Open, List, StatAll and the scrub sweep —
// takes its view from readCatalog.
type catalog struct {
	// names are the stored object names (their hex keys decoded), sorted.
	names []string
	// slabs are the committed slab keys, maxSlab the highest slab number
	// among them.
	slabs   []string
	maxSlab int64
	// journals are the keys with a patch journal; tmps the file names of
	// metadata and journal temp files, which a commit renames away.
	journals []string
	tmps     []string
}

// readCatalog lists meta/ once. A missing directory is an empty catalog.
func (s *Store) readCatalog() (catalog, error) {
	var c catalog
	ents, err := os.ReadDir(s.metaDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return c, nil
		}
		return c, err
	}
	for _, e := range ents {
		file := e.Name()
		if strings.HasSuffix(file, ".tmp") {
			c.tmps = append(c.tmps, file)
			continue
		}
		if key, ok := strings.CutSuffix(file, ".patch"); ok {
			c.journals = append(c.journals, key)
			continue
		}
		key, ok := strings.CutSuffix(file, ".json")
		if !ok {
			continue
		}
		if n, ok := slabNumber(key); ok {
			c.slabs = append(c.slabs, key)
			c.maxSlab = max(c.maxSlab, n)
		} else if raw, err := hex.DecodeString(key); err == nil {
			c.names = append(c.names, string(raw))
		}
	}
	sort.Strings(c.names)
	return c, nil
}

// List returns the stored object names, sorted.
func (s *Store) List() ([]string, error) {
	c, err := s.readCatalog()
	return c.names, err
}

// StatAll returns the metadata of every stored object in one pass over
// meta/ — one listing plus one metadata load per object, in name order.
// The /objects handler uses it instead of List-then-Stat-per-name.
// Objects whose metadata is missing (deleted mid-walk) or fails to load
// are skipped: a broken object should spoil scrubs, not listings.
func (s *Store) StatAll() ([]ObjectMeta, error) {
	c, err := s.readCatalog()
	if err != nil {
		return nil, err
	}
	metas := make([]ObjectMeta, 0, len(c.names))
	for _, name := range c.names {
		key := objKey(name)
		l := s.rlockKey(key)
		meta, err := s.loadMeta(key)
		l.RUnlock()
		if err != nil {
			continue
		}
		metas = append(metas, meta)
	}
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
	_, healed, err := s.scrubLocked(ctx, key)
	return healed, err
}

// scrubLocked is ScrubObject under key's write lock, which the caller
// holds. It also returns the metadata it loaded (zero if that failed).
func (s *Store) scrubLocked(ctx context.Context, key string) (ObjectMeta, []int, error) {
	meta, err := s.loadMeta(key)
	if err != nil {
		return ObjectMeta{}, nil, err
	}
	if meta.Slab != nil {
		// Packed members have no shard set of their own; the slab pass
		// scrubs (and if dead, reclaims) the backing slab.
		return meta, nil, nil
	}
	if err := s.ensureDirs(); err != nil {
		return meta, nil, err
	}
	healed, err := shardfile.ScrubPaths(s.shardPaths(key, meta), meta.Manifest, s.fileOpts(ctx))
	if err != nil {
		return meta, nil, err
	}
	s.shardsHealed.Add(int64(len(healed)))
	return meta, healed, nil
}

// sweep implements storage as one walk of the catalog: stranded patch
// journals are rolled forward, every object and every slab is verified
// unit by unit and healed in place, dead slabs are reclaimed, and shard
// files no metadata refers to are removed. Each object's metadata is
// loaded once, under its lock, and that one load tells the later passes
// which slab a packed member refers to and which shard files are live.
//
// A slab is dead when no member the walk visited refers to it, its
// number is at most slabSeq as read before the listing, and it was not
// pinned at that read. Those two bounds make "no member visited refers
// to it" mean "no member refers to it": a member releases its slab's pin
// only after its own metadata commit, so every member of an older,
// unpinned slab was on disk when meta/ was listed, and slabs never gain
// members after their batch. A slab flushed later, or still settling,
// waits for the next sweep.
func (s *Store) sweep(ctx context.Context) (rep ScrubReport) {
	s.mu.Lock()
	seq, pinned := s.slabSeq, maps.Clone(s.pendingSlabs)
	s.mu.Unlock()
	cat, err := s.readCatalog()
	if err != nil {
		rep.record("<catalog>", nil, err)
		return rep
	}
	// Patch journals first: a stranded journal means some object's shard
	// files may hold half-applied stripes whose sums the committed
	// manifest does not describe; rolling it forward before the per-object
	// pass keeps the scrub from "healing" a patch mid-flight.
	rep.PatchesRecovered = s.recoverPatches(ctx, cat)
	live := map[string]bool{}     // shard paths of the objects and slabs visited
	referred := map[string]bool{} // slabs some visited member refers to
	for _, name := range cat.names {
		if ctx.Err() != nil {
			return rep
		}
		key := objKey(name)
		l := s.lockKey(key)
		meta, healed, err := s.scrubLocked(ctx, key)
		l.Unlock()
		if errors.Is(err, ErrObjectNotFound) {
			continue // deleted since the listing
		}
		rep.Objects++
		if meta.Slab != nil {
			referred[meta.Slab.Key] = true
		}
		for _, p := range s.shardPaths(key, meta) {
			live[p] = true
		}
		if rep.record(name, healed, err) {
			return rep
		}
	}
	for _, key := range cat.slabs {
		if ctx.Err() != nil {
			return rep
		}
		n, _ := slabNumber(key)
		_, pin := pinned[key]
		dead := n <= seq && !pin && !referred[key]
		paths, healed, err := s.scrubSlab(ctx, key, dead)
		if errors.Is(err, ErrObjectNotFound) {
			continue
		}
		rep.Objects++
		if dead && err == nil {
			rep.SlabsReclaimed++
		}
		for _, p := range paths {
			live[p] = true
		}
		if rep.record(key, healed, err) {
			return rep
		}
	}
	if ctx.Err() == nil {
		rep.OrphansRemoved = s.sweepOrphans(ctx, live)
	}
	return rep
}

// sweepOrphans reclaims shard files no committed metadata refers to:
// generations superseded by an overwrite, shards stranded by a crash
// between shard writes and the metadata commit, and stale temp files.
// Files in live (the sweep's walk saw their metadata) are skipped; every
// other key is examined under its write lock against its metadata as it
// is now, so an in-flight Put's uncommitted generation — or one committed
// since the walk — is never mistaken for garbage. Keys whose metadata
// exists but fails to load are skipped entirely — their files may be the
// only surviving copy of a repairable object.
func (s *Store) sweepOrphans(ctx context.Context, live map[string]bool) int {
	byKey := map[string][]string{}
	for i := 0; i < s.cfg.Nodes; i++ {
		dir := s.nodeDir(i)
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			key, rest, ok := strings.Cut(e.Name(), ".")
			if !ok || !strings.HasPrefix(rest, "g") || !strings.Contains(rest, "shard_") {
				continue // not one of our shard files
			}
			if p := dir + pathSep + e.Name(); !live[p] {
				byKey[key] = append(byKey[key], p)
			}
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
