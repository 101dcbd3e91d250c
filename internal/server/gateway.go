package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"runtime/pprof"

	"gemmec"
	"gemmec/internal/obs"
	"gemmec/internal/peer"
	"gemmec/internal/shardfile"
	"gemmec/internal/tuned"
)

// ErrWriteQuorum reports a PUT that could not land k+q shard acks: the
// generation was abandoned (acked shards deleted, no metadata written)
// and the object remains whatever it was before. Clients see 503 — the
// cluster may heal and the write can be retried.
var ErrWriteQuorum = errors.New("server: write quorum not reached")

// rollbackTimeout bounds the cleanup work a failed or canceled PUT does
// with a fresh context — the request's own context is typically already
// dead by the time rollback runs.
const rollbackTimeout = 15 * time.Second

// GatewayConfig sizes a Gateway.
type GatewayConfig struct {
	// Ring is the cluster's static membership and placement function.
	Ring *peer.Ring
	// Transports maps member ID to its transport. Every ring member needs
	// one; the gateway's own member should be a local transport (direct
	// PeerStore access, no loopback socket).
	Transports map[int]peer.Transport
	// SelfID is this gateway's own member ID — the first stop for
	// metadata reads.
	SelfID int
	// K and R are the code geometry; Ring must have at least K+R members.
	K, R int
	// UnitSize is the shard unit size (0 selects gemmec.DefaultUnitSize).
	UnitSize int
	// Workers sizes the shared encode/decode scheduler when Sched is nil
	// (0 selects gemmec.NewScheduler's default).
	Workers int
	// MaxStreams bounds concurrently admitted streaming requests (0
	// disables shedding) — the same admission contract Store has.
	MaxStreams int
	// Sched, when non-nil, is an externally owned scheduler to share.
	Sched *gemmec.Scheduler
	// WriteQuorum is q in the commit rule "k+q shard acks": a PUT commits
	// once k+q of its k+r shard uploads acked and abandons the generation
	// otherwise. Clamped to [0, R]; 0 keeps only decodability, R demands
	// every shard. Default (when 0 is passed as the zero value, the
	// clamp keeps it 0) — callers wanting durability margin pass 1..R.
	WriteQuorum int
	// Logf receives operational log lines; nil silences them.
	Logf Logf
}

// Gateway is the cluster-facing object backend: it accepts the same
// client PUT/GET/DELETE surface as Store but fans every object's k+r
// shards out to the ring's members over peer transports. Writes are
// quorum-committed (k+q acks, abandoned otherwise), reads fetch
// surviving shards from live peers and reconstruct through the shared
// scheduler pipeline, and RebuildNode restores everything a lost member
// held. One Gateway serves one process; any member can run one, since
// placement is deterministic and metadata is replicated to all members.
type Gateway struct {
	cfg    GatewayConfig
	quorum int // shard acks required: k + clamped q

	// codes shares one compiled code and one stripe-buffer pool per stripe
	// geometry across all requests (shardfile.Opts.Source), as in Store.
	codes *tuned.Registry

	sched    *gemmec.Scheduler
	ownSched bool

	keyLocks // per-object locks, local to this gateway process

	traffic
	quorumFailures          atomic.Int64
	rebuilds, shardsRebuilt atomic.Int64
	repairBytesRead         atomic.Int64
	repairBytesWritten      atomic.Int64

	closeOnce sync.Once
}

// NewGateway builds a gateway over cfg's ring and transports.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("server: gateway needs a ring")
	}
	if cfg.UnitSize == 0 {
		cfg.UnitSize = gemmec.DefaultUnitSize
	}
	codes := tuned.NewRegistry(tuned.Config{})
	if _, err := codes.Code(cfg.K, cfg.R, cfg.UnitSize); err != nil {
		return nil, err
	}
	if cfg.Ring.Len() < cfg.K+cfg.R {
		return nil, fmt.Errorf("server: %d members cannot hold k+r=%d shards in distinct failure domains",
			cfg.Ring.Len(), cfg.K+cfg.R)
	}
	for _, m := range cfg.Ring.Members() {
		if cfg.Transports[m.ID] == nil {
			return nil, fmt.Errorf("server: no transport for member %d", m.ID)
		}
	}
	if cfg.WriteQuorum < 0 {
		cfg.WriteQuorum = 0
	}
	if cfg.WriteQuorum > cfg.R {
		cfg.WriteQuorum = cfg.R
	}
	g := &Gateway{
		cfg:    cfg,
		codes:  codes,
		quorum: cfg.K + cfg.WriteQuorum,
	}
	g.sched = cfg.Sched
	if g.sched == nil {
		g.sched = gemmec.NewScheduler(gemmec.SchedulerConfig{
			Workers:    cfg.Workers,
			MaxStreams: cfg.MaxStreams,
			OnWait:     func(d time.Duration) { g.m().ObserveSchedWait(d) },
		})
		g.ownSched = true
	}
	return g, nil
}

// Close stops the gateway's scheduler when it owns one. Idempotent.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		if g.ownSched && g.sched != nil {
			g.sched.Close()
		}
	})
}

// Scheduler returns the gateway's shared encode/decode pool — the HTTP
// layer's admission gate, exactly as for Store.
func (g *Gateway) Scheduler() *gemmec.Scheduler { return g.sched }

// SetMetrics attaches the observability bundle.
func (g *Gateway) SetMetrics(m *Metrics) {
	g.metrics.Store(m)
	m.RegisterGateway(g)
}

// streamOpts bundles the gateway's shared scheduler and code registry
// with one request's context for the shardfile engine — the peer-side
// twin of Store.fileOpts. The scheduler sizes the kernel pool, so engine
// calls pass 0 for the per-call worker count.
func (g *Gateway) streamOpts(ctx context.Context) shardfile.Opts {
	return shardfile.Opts{Ctx: ctx, Sched: g.sched, Source: g.codes}
}

func (g *Gateway) transport(id int) peer.Transport { return g.cfg.Transports[id] }

// healthy reports the transport-level health hint for member id.
func (g *Gateway) healthy(id int) bool {
	type h interface{ Healthy() bool }
	if hc, ok := g.cfg.Transports[id].(h); ok {
		return hc.Healthy()
	}
	return true
}

// parseMetaReplica decodes and sanity-checks one member's metadata
// replica. Tombstones carry no manifest or placement, so only live
// documents get the geometry checks.
func parseMetaReplica(key string, id int, raw []byte) (ObjectMeta, error) {
	var meta ObjectMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return ObjectMeta{}, fmt.Errorf("server: corrupt metadata replica for %s on member %d: %w", key, id, err)
	}
	if meta.Deleted {
		return meta, nil
	}
	if err := meta.Manifest.Validate(); err != nil {
		return ObjectMeta{}, err
	}
	if len(meta.Placement) != meta.Manifest.K+meta.Manifest.R {
		return ObjectMeta{}, fmt.Errorf("server: metadata for %s places %d shards, manifest wants %d",
			key, len(meta.Placement), meta.Manifest.K+meta.Manifest.R)
	}
	return meta, nil
}

// readMetaRaw fetches and parses the freshest metadata replica for key
// visible to a member majority: all members are queried in parallel, and
// the highest generation among a responding majority wins. The majority
// is what makes the freshness argument sound — a metadata commit is
// acked (durably) by a majority, any two majorities intersect, so the
// responders always include at least one replica of the latest committed
// generation. A gateway that was down during commits therefore cannot
// serve its own stale replica. Tombstoned objects are returned as-is;
// callers decide whether a tombstone means "not found" (reads) or "the
// current generation" (writes).
func (g *Gateway) readMetaRaw(ctx context.Context, key string) ([]byte, ObjectMeta, error) {
	members := g.cfg.Ring.Members()
	type reply struct {
		id  int
		raw []byte
		err error
	}
	ch := make(chan reply, len(members))
	for _, m := range members {
		go func(id int) {
			tr := g.transport(id)
			if tr == nil {
				ch <- reply{id: id, err: fmt.Errorf("%w: no transport for member %d", peer.ErrUnavailable, id)}
				return
			}
			raw, err := tr.GetMeta(ctx, key)
			ch <- reply{id: id, raw: raw, err: err}
		}(m.ID)
	}
	var (
		bestRaw   []byte
		bestMeta  ObjectMeta
		found     bool
		lastErr   error
		responded int
	)
	need := len(members)/2 + 1
	for i := 0; i < len(members) && responded < need; i++ {
		r := <-ch
		if r.err != nil {
			if errors.Is(r.err, peer.ErrMetaNotFound) {
				responded++ // a definitive "I hold nothing" counts
			} else {
				lastErr = r.err
			}
			continue
		}
		meta, err := parseMetaReplica(key, r.id, r.raw)
		if err != nil {
			// The member answered; its replica is just rotten. It counts
			// toward the majority but contributes no document.
			responded++
			lastErr = err
			continue
		}
		responded++
		if !found || meta.Gen > bestMeta.Gen {
			bestRaw, bestMeta, found = r.raw, meta, true
		}
	}
	if responded < need {
		if lastErr == nil {
			lastErr = peer.ErrUnavailable
		}
		return nil, ObjectMeta{}, fmt.Errorf("server: metadata for %s readable on only %d of %d members (need majority): %w",
			key, responded, len(members), lastErr)
	}
	if !found {
		return nil, ObjectMeta{}, ErrObjectNotFound
	}
	return bestRaw, bestMeta, nil
}

// Put streams src into the cluster as object name: the body is encoded
// once through the shared scheduler while k+r uploader goroutines stream
// each shard to its placed member. The write commits — metadata is
// broadcast and acknowledged by a member majority — only when at least
// k+WriteQuorum shard uploads acked; otherwise the generation is
// abandoned: acked shards are deleted and no metadata changes, so a
// failed PUT leaves the object exactly as it was.
func (g *Gateway) Put(ctx context.Context, name string, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, error) {
	if err := validateName(name); err != nil {
		return ObjectMeta{}, gemmec.StreamStats{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return ObjectMeta{}, gemmec.StreamStats{}, err
	}
	key := objKey(name)
	lsp := obs.StartSpan(ctx, "store.lock")
	l := g.lockKey(key)
	lsp.End(nil)
	defer l.Unlock()
	return g.putLocked(ctx, key, name, src, size)
}

// putLocked is Put after the key lock: generation discovery, encode
// fan-out, quorum accounting and the metadata commit. Factored out so
// Patch can run a read-modify-write under one lock acquisition.
func (g *Gateway) putLocked(ctx context.Context, key, name string, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, error) {
	n := g.cfg.K + g.cfg.R
	placement, err := g.cfg.Ring.Placement(key, n)
	if err != nil {
		return ObjectMeta{}, gemmec.StreamStats{}, err
	}
	meta := ObjectMeta{Name: name, Gen: 1, Placement: placement}
	// One synchronous span for the whole majority read; peer.Client
	// deliberately records nothing for get_meta (its straggler goroutines
	// outlive this call — see readMetaRaw).
	msp := obs.StartSpan(ctx, "meta.read")
	oldRaw, old, oldErr := g.readMetaRaw(ctx, key)
	msp.End(nil)
	if oldErr != nil && !errors.Is(oldErr, ErrObjectNotFound) {
		// Without a majority read the next generation cannot be computed
		// safely — guessing Gen 1 here would let a stale higher-generation
		// replica shadow this write forever. Fail; the client retries.
		return ObjectMeta{}, gemmec.StreamStats{}, fmt.Errorf("server: cannot establish current generation for %s: %w", name, oldErr)
	}
	hasOld := oldErr == nil
	if hasOld {
		// Monotonic over everything ever seen, tombstones included:
		// delete/recreate keeps counting upward, so no old replica can
		// outrank a newly committed generation.
		meta.Gen = old.Gen + 1
	}
	gen := uint64(meta.Gen)

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// The span covers encode + shard upload: it closes only after every
	// uploader is joined, so its children (the engine's shardfile.encode,
	// per-peer peer.put_shard spans and the remote shard.write spans they
	// merge back) sit inside it and the straggler member is the longest bar.
	esp := obs.StartSpan(ctx, "gw.encode")
	var m shardfile.Manifest
	var st gemmec.StreamStats
	// A declared size fixes every shard's length — stripes × UnitSize, an
	// empty object still getting its one stripe — so peers are sent a
	// Content-Length: one body, not a chunk stream flushed every 32 KiB,
	// and a torn upload is a short one. Only an unknown-size source
	// streams chunked.
	shardLen := int64(-1)
	if size >= 0 {
		stripeBytes := int64(g.cfg.K) * int64(g.cfg.UnitSize)
		shardLen = max((size+stripeBytes-1)/stripeBytes, 1) * int64(g.cfg.UnitSize)
	}
	upErrs, err := fanOut(n, all,
		func(i int, body io.Reader) error {
			return g.transport(placement[i]).PutShard(ctx, key, gen, i, shardLen, body)
		},
		func(ws []io.Writer) error {
			var err error
			m, st, err = shardfile.WriteStreamTo(ws, src, size, g.cfg.K, g.cfg.R, g.cfg.UnitSize, g.streamOpts(ctx))
			return err
		})
	esp.SetArg(st.Stripes)
	esp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	esp.End(err)
	if err != nil {
		g.rollbackShards(key, gen, placement, upErrs)
		return ObjectMeta{}, st, err
	}

	acks := 0
	var firstUpErr error
	for _, e := range upErrs {
		if e == nil {
			acks++
		} else if firstUpErr == nil {
			firstUpErr = e
		}
	}
	if acks < g.quorum {
		g.rollbackShards(key, gen, placement, upErrs)
		g.quorumFailures.Add(1)
		return ObjectMeta{}, st, fmt.Errorf("%w: %d of %d shard acks (need %d): %v",
			ErrWriteQuorum, acks, n, g.quorum, firstUpErr)
	}
	if cerr := ctxErr(ctx); cerr != nil {
		// Dead between the final shard ack and the commit: honor the
		// canceled-Put-leaves-no-trace contract.
		g.rollbackShards(key, gen, placement, upErrs)
		return ObjectMeta{}, st, cerr
	}
	meta.Manifest = m

	csp := obs.StartSpan(ctx, "meta.commit")
	err = g.commitMeta(ctx, key, meta, oldRaw, hasOld, placement, upErrs)
	csp.End(err)
	if err != nil {
		g.quorumFailures.Add(1)
		return ObjectMeta{}, st, err
	}

	// Committed. The previous generation's shards are garbage now; clean
	// them best-effort with a fresh context (repair sweeps catch strays),
	// all members at once — this is on the ack path — and joined before
	// returning, so a finished Put leaves no stray behind it. A tombstone
	// predecessor has no shards, only a generation number.
	if hasOld && !old.Deleted {
		cctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
		var wg sync.WaitGroup
		for i, member := range old.Placement {
			if tr := g.transport(member); tr != nil {
				wg.Add(1)
				go func(i int, tr peer.Transport) {
					defer wg.Done()
					tr.DeleteShard(cctx, key, uint64(old.Gen), i) //nolint:errcheck
				}(i, tr)
			}
		}
		wg.Wait()
		cancel()
	}
	g.recordPut(st, m.FileSize)
	return meta, st, nil
}

// fanOut is the gateway's shard fan-out, shared by PUT and rebuild: fill
// writes shard i of n into ws[i] — a pipe, for each i in idx, nil for the
// rest — while one uploader goroutine per pipe streams it to a member. A
// failed uploader keeps draining its pipe so fill — and with it the other
// shards — never blocks on the dead one. fill's error, or a clean EOF,
// ends every upload body; fanOut returns once all uploaders have, with
// each one's error and fill's.
func fanOut(n int, idx []int, upload func(i int, body io.Reader) error, fill func(ws []io.Writer) error) ([]error, error) {
	pws := make([]*io.PipeWriter, n)
	ws := make([]io.Writer, n)
	upErrs := make([]error, n)
	var wg sync.WaitGroup
	for _, i := range idx {
		pr, pw := io.Pipe()
		pws[i], ws[i] = pw, pw
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if upErrs[i] = upload(i, pr); upErrs[i] != nil {
				io.Copy(io.Discard, pr) //nolint:errcheck // the bytes go nowhere
			}
			pr.Close()
		}(i)
	}
	err := fill(ws)
	for _, i := range idx {
		pws[i].CloseWithError(err) // nil: a clean EOF ends the upload body
	}
	wg.Wait() // also the happens-before edge for reading upErrs
	return upErrs, err
}

// rollbackShards deletes the shards of an abandoned generation from every
// member that acked one, under a fresh bounded context (the request's is
// usually already dead when rollback runs).
func (g *Gateway) rollbackShards(key string, gen uint64, placement []int, upErrs []error) {
	ctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
	defer cancel()
	for i, member := range placement {
		if upErrs[i] != nil {
			continue // nothing landed there
		}
		if err := g.transport(member).DeleteShard(ctx, key, gen, i); err != nil {
			g.cfg.Logf.printf("ecserver: rollback of %s.g%d shard %d on member %d failed: %v",
				key, gen, i, member, err)
		}
	}
}

// commitMeta broadcasts the new metadata to every ring member and
// requires a majority of acks — the commit point of a cluster write. On
// a failed commit the write is unwound: the new generation's shards are
// deleted, and members that already took the new metadata are restored
// to the previous document (or cleared entirely for a fresh object), so
// no committed state changes.
func (g *Gateway) commitMeta(ctx context.Context, key string, meta ObjectMeta, oldRaw []byte, hasOld bool, placement []int, upErrs []error) error {
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		g.rollbackShards(key, uint64(meta.Gen), placement, upErrs)
		return err
	}
	members := g.cfg.Ring.Members()
	ackErrs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			ackErrs[i] = g.transport(id).PutMeta(ctx, key, raw)
		}(i, m.ID)
	}
	wg.Wait()
	acks := 0
	var firstErr error
	for _, e := range ackErrs {
		if e == nil {
			acks++
		} else if firstErr == nil {
			firstErr = e
		}
	}
	if acks > len(members)/2 {
		return nil
	}
	// Commit failed: unwind. Members that took the new document get the
	// old one back (fresh objects get cleared), then the new generation's
	// shards go.
	cctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
	defer cancel()
	for i, m := range members {
		if ackErrs[i] != nil {
			continue
		}
		tr := g.transport(m.ID)
		if hasOld {
			tr.PutMeta(cctx, key, oldRaw) //nolint:errcheck
		} else {
			tr.DeleteObject(cctx, key) //nolint:errcheck
		}
	}
	g.rollbackShards(key, uint64(meta.Gen), placement, upErrs)
	return fmt.Errorf("%w: metadata acknowledged by %d of %d members (need majority): %v",
		ErrWriteQuorum, acks, len(members), firstErr)
}

// Open opens object name for a (possibly degraded) cluster read: the
// shard streams are fetched from their placed members in parallel, and
// any member that is down, missing the shard, or serving the wrong
// length is marked unusable for reconstruction. If fewer than k streams
// open, the error wraps gemmec.ErrTooFewShards. The returned object is
// the same *Object a Store hands out, over peer bodies instead of files:
// every unit's stripe CRC is verified inside the decode pass, and a shard
// whose remote stream dies or rots mid-body is demoted and reconstructed
// around, exactly like a local shard file would be.
func (g *Gateway) Open(ctx context.Context, name string) (ObjectStream, error) {
	o, err := g.open(ctx, name, false, 0, 0)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// OpenRange opens bytes [off, off+length) of object name for a cluster
// read, fetching from each placed member only the byte window of its
// shard that covers the range — shard I/O and wire traffic are both
// O(stripes covering the range), not O(object). The off/length
// conventions and error contract match Store.OpenObjectRange: off == -1
// is a suffix request, length == -1 runs to the end, and an
// unsatisfiable window fails with a *RangeError.
func (g *Gateway) OpenRange(ctx context.Context, name string, off, length int64) (RangedStream, error) {
	o, err := g.open(ctx, name, true, off, length)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// open is Open and OpenRange: key lock (shared, held by the returned
// object until Close), majority metadata read, then the shard streams
// covering the whole object or the resolved window.
func (g *Gateway) open(ctx context.Context, name string, ranged bool, off, length int64) (*Object, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	key := objKey(name)
	lsp := obs.StartSpan(ctx, "store.lock")
	l := g.rlockKey(key)
	lsp.End(nil)
	fail := func(err error) (*Object, error) {
		l.RUnlock()
		return nil, err
	}
	msp := obs.StartSpan(ctx, "meta.read")
	_, meta, err := g.readMetaRaw(ctx, key)
	msp.End(nil)
	if err != nil {
		return fail(err)
	}
	if meta.Deleted {
		return fail(fmt.Errorf("%w: %s (deleted)", ErrObjectNotFound, name))
	}
	if !ranged {
		off, length = 0, meta.Size()
	} else if off, length, err = resolveRange(off, length, meta.Size()); err != nil {
		return fail(err)
	}
	sr, err := g.openShards(ctx, meta, off, length)
	if err != nil {
		return fail(err)
	}
	o := g.newObject(meta, sr, l, nil)
	if ranged {
		o.setRange(off, length)
	}
	return o, nil
}

// openShards opens payload bytes [off, off+length) of meta for decoding:
// the peer instantiation of the shardfile read plan. Every placed member
// is asked in parallel — for the stripes of its shard the plan reads (one
// GetShardRange, or the plain whole-shard transfer), or, when the plan
// reads nothing of it, for the shard's length only (StatShard: no bytes)
// — so all k+r are probed and only the window's data units cross the
// wire. Members that are down, missing the shard, or serving the wrong
// length are marked lost; if fewer than k are usable the error wraps
// gemmec.ErrTooFewShards. A shard the probe only statted is fetched later,
// from the stripe where a fault escalated the plan, by the same fetch.
func (g *Gateway) openShards(ctx context.Context, meta ObjectMeta, off, length int64) (*shardfile.StreamReader, error) {
	key, gen := objKey(meta.Name), uint64(meta.Gen)
	m := meta.Manifest
	plan, err := shardfile.PlanRead(m, off, length)
	if err != nil {
		return nil, err
	}
	n, unit := m.K+m.R, int64(m.UnitSize)
	fetch := func(i int, from, to int64) (io.ReadCloser, error) {
		tr := g.transport(meta.Placement[i])
		if tr == nil {
			return nil, fmt.Errorf("server: no transport for member %d", meta.Placement[i])
		}
		var (
			rc   io.ReadCloser
			size int64
			err  error
			want = (to - from) * unit
		)
		if from == 0 && to == int64(m.Stripes) {
			rc, size, err = tr.GetShard(ctx, key, gen, i)
		} else {
			rc, size, err = tr.GetShardRange(ctx, key, gen, i, from*unit, want)
		}
		if err != nil {
			return nil, err
		}
		if size >= 0 && size != want {
			rc.Close() // truncated or stale shard: erased, not trusted
			return nil, fmt.Errorf("server: member %d serves %d bytes of shard %d, want %d", meta.Placement[i], size, i, want)
		}
		return rc, nil
	}
	bodies := make([]io.ReadCloser, n)
	lost := make([]bool, n)
	// Covers the parallel probe; the per-peer get_shard / stat_shard child
	// spans (joined by wg.Wait below) show who was slow to answer.
	osp := obs.StartSpan(ctx, "gw.open")
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if from, to := plan.Interval(i); from < to {
				var err error
				bodies[i], err = fetch(i, from, to)
				lost[i] = err != nil
				return
			}
			lost[i] = true
			if tr := g.transport(meta.Placement[i]); tr != nil {
				size, err := tr.StatShard(ctx, key, gen, i)
				lost[i] = err != nil || size != int64(m.Stripes)*unit
			}
		}(i)
	}
	wg.Wait()
	osp.End(nil)
	return shardfile.OpenStreams(m, plan, bodies, lost, fetch, g.streamOpts(ctx))
}

// Patch splices data into object name at byte offset off (off == -1
// appends), as a cluster-wide read-modify-write: the old payload is
// decoded from the ring, spliced, and re-encoded through the normal
// quorum-committed Put under one key lock. Unlike Store there is no
// XOR-patched in-place path — cluster shards are first-writer-wins per
// generation, so an in-place overwrite would break the torn-upload
// atomicity contract; PatchStats reports the rmw fallback instead.
func (g *Gateway) Patch(ctx context.Context, name string, data []byte, off int64) (ObjectMeta, PatchStats, error) {
	var ps PatchStats
	if err := validateName(name); err != nil {
		return ObjectMeta{}, ps, err
	}
	if err := ctxErr(ctx); err != nil {
		return ObjectMeta{}, ps, err
	}
	key := objKey(name)
	lsp := obs.StartSpan(ctx, "store.lock")
	l := g.lockKey(key)
	lsp.End(nil)
	defer l.Unlock()
	msp := obs.StartSpan(ctx, "meta.read")
	_, old, err := g.readMetaRaw(ctx, key)
	msp.End(nil)
	if err != nil {
		return ObjectMeta{}, ps, err
	}
	if old.Deleted {
		return ObjectMeta{}, ps, fmt.Errorf("%w: %s (deleted)", ErrObjectNotFound, name)
	}
	off, newSize, err := patchWindow(old.Size(), off, len(data))
	if err != nil {
		return ObjectMeta{}, ps, err
	}
	ps.Offset = off
	if len(data) == 0 {
		ps.InPlace = true // nothing to write; the object is untouched
		return old, ps, nil
	}
	ps.Fallback = "rmw"

	// The producer opens its own shard streams without the key lock (this
	// goroutine holds it already) and outside the client-read counters —
	// the internal decode of a read-modify-write is not a GET.
	src, stop := spliceOld(off, data, func(w io.Writer) error {
		sr, err := g.openShards(ctx, old, 0, old.Size())
		if err != nil {
			return err
		}
		defer sr.Close()
		_, err = sr.Decode(w, 0)
		return err
	})
	meta, _, err := g.putLocked(ctx, key, name, src, newSize)
	stop()
	if err != nil {
		return ObjectMeta{}, ps, err
	}
	g.patches.Add(1)
	if mt := g.m(); mt != nil {
		mt.recordPatch(ps)
	}
	return meta, ps, nil
}

// Delete removes object name cluster-wide. The commit point is a
// tombstone: a metadata document at Gen = old.Gen+1 with the Deleted
// flag, broadcast like any write and requiring a member majority — NOT
// the removal of metadata. Removing replicas outright would let a member
// partitioned during the delete resurrect the object when it returns
// (its surviving replica would be the highest generation anywhere), and
// a recreate would restart at Gen 1 underneath that stale replica.
// With a tombstone the generation counter stays monotonic, the stale
// replica is outranked forever, and the scrub sweep reaps the tombstone
// once every member has acknowledged it. Shards of the deleted
// generation are reclaimed best-effort here and by scrub afterwards.
func (g *Gateway) Delete(ctx context.Context, name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	key := objKey(name)
	l := g.lockKey(key)
	defer l.Unlock()
	oldRaw, old, err := g.readMetaRaw(ctx, key)
	if err != nil {
		return err
	}
	if old.Deleted {
		return fmt.Errorf("%w: %s (already deleted)", ErrObjectNotFound, name)
	}
	tomb := ObjectMeta{Name: name, Gen: old.Gen + 1, Deleted: true}
	raw, err := json.MarshalIndent(tomb, "", "  ")
	if err != nil {
		return err
	}
	members := g.cfg.Ring.Members()
	ackErrs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			ackErrs[i] = g.transport(id).PutMeta(ctx, key, raw)
		}(i, m.ID)
	}
	wg.Wait()
	acks := 0
	var firstErr error
	for _, e := range ackErrs {
		if e == nil {
			acks++
		} else if firstErr == nil {
			firstErr = e
		}
	}
	if acks <= len(members)/2 {
		// Unwind members that already took the tombstone so a failed delete
		// does not leave the object half-visible.
		cctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
		defer cancel()
		for i, m := range members {
			if ackErrs[i] == nil {
				g.transport(m.ID).PutMeta(cctx, key, oldRaw) //nolint:errcheck
			}
		}
		return fmt.Errorf("%w: delete acknowledged by %d of %d members (need majority): %v",
			ErrWriteQuorum, acks, len(members), firstErr)
	}
	// Committed. Reclaim the deleted generation's shards best-effort with
	// a fresh context; the tombstone reaper catches anything missed.
	cctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
	defer cancel()
	for i, member := range old.Placement {
		if tr := g.transport(member); tr != nil {
			tr.DeleteShard(cctx, key, uint64(old.Gen), i) //nolint:errcheck
		}
	}
	g.deletes.Add(1)
	return nil
}

// reapTombstone retires key's tombstone once it is safe: every ring
// member must either hold the tombstone (or something newer) or hold no
// replica at all, so no member can resurrect an older generation after
// the tombstone is gone. Members holding older documents are healed by
// pushing the tombstone to them first. Returns true once the tombstone
// (and any straggler shard files) have been removed everywhere; false
// with a nil error when a newer generation superseded the tombstone or a
// member is unknown, false with the blocking error when a member could
// not be confirmed.
func (g *Gateway) reapTombstone(ctx context.Context, tomb ObjectMeta) (bool, error) {
	key := objKey(tomb.Name)
	raw, err := json.MarshalIndent(tomb, "", "  ")
	if err != nil {
		return false, err
	}
	members := g.cfg.Ring.Members()
	for _, m := range members {
		tr := g.transport(m.ID)
		if tr == nil {
			return false, nil
		}
		mraw, err := tr.GetMeta(ctx, key)
		if errors.Is(err, peer.ErrMetaNotFound) {
			continue // nothing there to resurrect
		}
		if err != nil {
			return false, err // unreachable: the tombstone must stay
		}
		meta, perr := parseMetaReplica(key, m.ID, mraw)
		if perr == nil {
			if meta.Gen > tomb.Gen {
				return false, nil // superseded by a live recreate (or newer tombstone)
			}
			if meta.Gen == tomb.Gen && meta.Deleted {
				continue // tombstone already replicated here
			}
		}
		// Older (or corrupt) replica: overwrite it with the tombstone so
		// this member acks before anything is reaped.
		if err := tr.PutMeta(ctx, key, raw); err != nil {
			return false, err
		}
	}
	// Every member confirmed. DeleteObject drops the tombstone replica and
	// every lingering shard generation; it is idempotent, so a member that
	// fails here simply keeps its tombstone until the next sweep.
	var firstErr error
	for _, m := range members {
		if err := g.transport(m.ID).DeleteObject(ctx, key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr == nil, firstErr
}

// catalog returns the freshest metadata of every key any reachable
// member lists, tombstones included. Keys are the union of every
// reachable member's replica set — a commit only needs a majority, and a
// one-shot rebuild coordinator starts from an empty local store, so no
// single member's list is authoritative. The listing fails only if every
// member is unreachable.
func (g *Gateway) catalog(ctx context.Context) ([]ObjectMeta, error) {
	var (
		keySet  = make(map[string]struct{})
		listErr error
		listed  int
	)
	for _, m := range g.cfg.Ring.Members() {
		ks, err := g.transport(m.ID).ListMeta(ctx)
		if err != nil {
			listErr = err
			continue
		}
		listed++
		for _, k := range ks {
			keySet[k] = struct{}{}
		}
	}
	if listed == 0 {
		return nil, fmt.Errorf("server: no member answered the metadata listing: %w", listErr)
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	metas := make([]ObjectMeta, 0, len(keys))
	for _, key := range keys {
		_, meta, err := g.readMetaRaw(ctx, key)
		if err != nil {
			continue // broken objects spoil repair sweeps, not listings
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	return metas, nil
}

// StatAll returns the metadata of every live object the cluster holds.
// Tombstones are cluster-internal bookkeeping, not objects; they never
// reach client-visible listings.
func (g *Gateway) StatAll() ([]ObjectMeta, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
	defer cancel()
	all, err := g.catalog(ctx)
	if err != nil {
		return nil, err
	}
	metas := all[:0]
	for _, m := range all {
		if !m.Deleted {
			metas = append(metas, m)
		}
	}
	return metas, nil
}

// GatewayStats is the gateway's /statusz document.
type GatewayStats struct {
	Objects             int     `json:"objects"`
	Members             int     `json:"members"`
	SelfID              int     `json:"self_id"`
	WriteQuorum         int     `json:"write_quorum"`
	Puts                int64   `json:"puts"`
	Gets                int64   `json:"gets"`
	RangeGets           int64   `json:"range_gets"`
	Patches             int64   `json:"patches"`
	DegradedGets        int64   `json:"degraded_gets"`
	Deletes             int64   `json:"deletes"`
	QuorumFailures      int64   `json:"quorum_failures"`
	Rebuilds            int64   `json:"rebuilds"`
	ShardsRebuilt       int64   `json:"shards_rebuilt"`
	RepairBytesRead     int64   `json:"repair_bytes_read"`
	RepairBytesWritten  int64   `json:"repair_bytes_written"`
	RepairAmplification float64 `json:"repair_amplification"`
	RequestsShed        int64   `json:"requests_shed"`
	SchedQueue          int     `json:"sched_queue_depth"`
	BytesIn             int64   `json:"bytes_in"`
	BytesOut            int64   `json:"bytes_out"`
	UnitSize            int     `json:"unit_size"`
	DataShards          int     `json:"k"`
	ParityShards        int     `json:"r"`
	StreamWorkers       int     `json:"stream_workers"`
	// Peers carries one row per HTTP peer transport — health and coarse
	// traffic counters as seen from this gateway.
	Peers []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is one peer's health and traffic as observed by this
// gateway's client (local transports have no row — there is no wire).
type PeerStatus struct {
	Member          int    `json:"member"`
	Addr            string `json:"addr"`
	Healthy         bool   `json:"healthy"`
	Requests        int64  `json:"requests"`
	Failures        int64  `json:"failures"`
	DownTransitions int64  `json:"down_transitions"`
}

// RepairAmplification returns cumulative repair-traffic amplification:
// bytes read from survivors per byte of shard rebuilt. The canonical EC
// repair cost — k units read for every unit restored when rebuilding one
// shard — makes k the expected steady-state value.
func (g *Gateway) RepairAmplification() float64 {
	w := g.repairBytesWritten.Load()
	if w == 0 {
		return 0
	}
	return float64(g.repairBytesRead.Load()) / float64(w)
}

// StatusSnapshot implements Backend for /statusz.
func (g *Gateway) StatusSnapshot() any {
	objects := 0
	if metas, err := g.StatAll(); err == nil {
		objects = len(metas)
	}
	var peers []PeerStatus
	for id, tr := range g.cfg.Transports {
		c, ok := tr.(*peer.Client)
		if !ok {
			continue
		}
		peers = append(peers, PeerStatus{
			Member:          id,
			Addr:            c.Member().Addr,
			Healthy:         c.Healthy(),
			Requests:        c.Requests(),
			Failures:        c.Failures(),
			DownTransitions: c.DownTransitions(),
		})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Member < peers[j].Member })
	return GatewayStats{
		Objects:             objects,
		Members:             g.cfg.Ring.Len(),
		SelfID:              g.cfg.SelfID,
		WriteQuorum:         g.cfg.WriteQuorum,
		Puts:                g.puts.Load(),
		Gets:                g.gets.Load(),
		RangeGets:           g.rangeGets.Load(),
		Patches:             g.patches.Load(),
		DegradedGets:        g.degradedGets.Load(),
		Deletes:             g.deletes.Load(),
		QuorumFailures:      g.quorumFailures.Load(),
		Rebuilds:            g.rebuilds.Load(),
		ShardsRebuilt:       g.shardsRebuilt.Load(),
		RepairBytesRead:     g.repairBytesRead.Load(),
		RepairBytesWritten:  g.repairBytesWritten.Load(),
		RepairAmplification: g.RepairAmplification(),
		RequestsShed:        g.sched.Shed(),
		SchedQueue:          g.sched.QueueDepth(),
		BytesIn:             g.bytesIn.Load(),
		BytesOut:            g.bytesOut.Load(),
		UnitSize:            g.cfg.UnitSize,
		DataShards:          g.cfg.K,
		ParityShards:        g.cfg.R,
		StreamWorkers:       g.sched.Workers(),
		Peers:               peers,
	}
}

// ScrubAll sweeps the cluster catalog once from this gateway: every
// object's shards are stat-checked on their placed members, and any
// missing or wrong-length shard is rebuilt from k survivors and pushed
// back — the networked version of the local scrub-and-heal loop. The
// sweep also retires delete tombstones once every member has
// acknowledged them (see reapTombstone).
func (g *Gateway) ScrubAll(ctx context.Context) (rep ScrubReport) {
	start := time.Now()
	defer func() {
		done := time.Now()
		g.m().recordScrub(rep, done.Sub(start), done)
	}()
	metas, err := g.catalog(ctx)
	if err != nil {
		rep.record("<catalog>", nil, err)
		return rep
	}
	for _, meta := range metas {
		if ctx.Err() != nil {
			break
		}
		if meta.Deleted {
			if _, err := g.reapTombstone(ctx, meta); err != nil &&
				rep.record(meta.Name, nil, fmt.Errorf("tombstone not reaped: %w", err)) {
				break
			}
			continue
		}
		rep.Objects++
		targets := g.damagedShards(ctx, meta)
		if len(targets) == 0 {
			continue
		}
		if rep.record(meta.Name, targets, g.rebuildObjectShards(ctx, meta, targets)) {
			break
		}
	}
	return rep
}

// damagedShards stats every shard of meta on its placed member and
// returns the indices that are missing or the wrong length.
func (g *Gateway) damagedShards(ctx context.Context, meta ObjectMeta) []int {
	want := int64(meta.Manifest.Stripes) * int64(meta.Manifest.UnitSize)
	var targets []int
	for i, member := range meta.Placement {
		tr := g.transport(member)
		if tr == nil {
			continue // unknown member: nothing to push a repair to
		}
		size, err := tr.StatShard(ctx, objKey(meta.Name), uint64(meta.Gen), i)
		if errors.Is(err, peer.ErrShardNotFound) || (err == nil && size != want) {
			targets = append(targets, i)
		}
		// An unreachable member is not "damaged": pushing a rebuilt shard
		// there would fail too. RebuildNode handles replaced members.
	}
	return targets
}

// RebuildStats accounts one RebuildNode run.
type RebuildStats struct {
	Member        int               `json:"member"`
	Objects       int               `json:"objects"`
	ShardsRebuilt int               `json:"shards_rebuilt"`
	BytesRead     int64             `json:"bytes_read"`
	BytesWritten  int64             `json:"bytes_written"`
	Errors        map[string]string `json:"errors,omitempty"`
}

// Amplification returns the run's repair traffic amplification: survivor
// bytes read per byte rebuilt (k for single-shard repairs).
func (st RebuildStats) Amplification() float64 {
	if st.BytesWritten == 0 {
		return 0
	}
	return float64(st.BytesRead) / float64(st.BytesWritten)
}

// RebuildNode reconstructs every shard that member id holds under the
// cluster's placement and pushes it to the member's current address —
// the recovery path after a node lost its disk (or was replaced by an
// empty machine at the same ID). Metadata replicas are pushed first, so
// a rebuilt member can immediately serve as a gateway. Shards already
// present and correctly sized are skipped, making the operation
// idempotent and resumable.
func (g *Gateway) RebuildNode(ctx context.Context, id int) (RebuildStats, error) {
	// Labeled so a CPU profile taken during a rebuild attributes the
	// reconstruction decode work to the rebuild, not to client traffic.
	var st RebuildStats
	var err error
	pprof.Do(ctx, pprof.Labels("op", "rebuild"), func(ctx context.Context) {
		st, err = g.rebuildNode(ctx, id)
	})
	return st, err
}

func (g *Gateway) rebuildNode(ctx context.Context, id int) (RebuildStats, error) {
	st := RebuildStats{Member: id}
	if _, ok := g.cfg.Ring.Member(id); !ok {
		return st, fmt.Errorf("server: member %d not in the ring", id)
	}
	target := g.transport(id)
	if target == nil {
		return st, fmt.Errorf("server: no transport for member %d", id)
	}
	// Tombstones are part of the catalog here on purpose: a rebuilt member
	// gets delete tombstones replicated too, so it cannot resurrect an
	// object whose delete it missed while it was down.
	metas, err := g.catalog(ctx)
	if err != nil {
		return st, err
	}
	for _, meta := range metas {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		key := objKey(meta.Name)
		raw, _, err := g.readMetaRaw(ctx, key)
		if err == nil {
			if err := target.PutMeta(ctx, key, raw); err != nil {
				return st, fmt.Errorf("server: pushing metadata for %s to member %d: %w", meta.Name, id, err)
			}
		}
		want := int64(meta.Manifest.Stripes) * int64(meta.Manifest.UnitSize)
		var targets []int
		for i, member := range meta.Placement {
			if member != id {
				continue
			}
			if size, err := target.StatShard(ctx, key, uint64(meta.Gen), i); err == nil && size == want {
				continue // already there, intact
			}
			targets = append(targets, i)
		}
		if len(targets) == 0 {
			continue
		}
		st.Objects++
		if err := g.rebuildObjectShards(ctx, meta, targets); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return st, err
			}
			if st.Errors == nil {
				st.Errors = map[string]string{}
			}
			st.Errors[meta.Name] = err.Error()
			continue
		}
		st.ShardsRebuilt += len(targets)
		st.BytesRead += int64(meta.Manifest.K) * want
		st.BytesWritten += int64(len(targets)) * want
	}
	g.rebuilds.Add(1)
	return st, nil
}

// rebuildObjectShards reconstructs meta's shards at the target indices
// and streams each to its placed member: the peer instantiation of the
// shardfile repair core. Exactly k survivor bodies are opened — the
// canonical repair read cost — so a survivor unit failing its CRC32C, or
// a survivor stream dying, leaves its stripe short and fails the rebuild
// loudly instead of poisoning the rebuilt shard; nothing of a failed
// rebuild stays on the targets.
func (g *Gateway) rebuildObjectShards(ctx context.Context, meta ObjectMeta, targets []int) error {
	key, gen := objKey(meta.Name), uint64(meta.Gen)
	m := meta.Manifest
	n := m.K + m.R
	want := int64(m.Stripes) * int64(m.UnitSize)
	// Healthy members first so a flapping peer doesn't stall the rebuild.
	bodies := make([]io.ReadCloser, n)
	opened := 0
	for pass := 0; pass < 2 && opened < m.K; pass++ {
		for i := 0; i < n && opened < m.K; i++ {
			tr := g.transport(meta.Placement[i])
			if slices.Contains(targets, i) || bodies[i] != nil || tr == nil || (pass == 0 && !g.healthy(meta.Placement[i])) {
				continue
			}
			rc, size, err := tr.GetShard(ctx, key, gen, i)
			if err != nil {
				continue
			}
			if size >= 0 && size != want {
				rc.Close()
				continue
			}
			bodies[i] = rc
			opened++
		}
	}
	lost := make([]bool, n)
	for i, rc := range bodies {
		lost[i] = rc == nil
	}
	sr, err := shardfile.OpenStreams(m, shardfile.FullPlan(m), bodies, lost, nil, g.streamOpts(ctx))
	if err != nil {
		return err
	}
	defer sr.Close()
	upErrs, err := fanOut(n, targets,
		func(t int, body io.Reader) error {
			// The target is damaged by selection (missing or wrong length)
			// and shard writes are first-writer-wins, so clear any remnant
			// before streaming the replacement.
			tr := g.transport(meta.Placement[t])
			if err := tr.DeleteShard(ctx, key, gen, t); err != nil {
				return err
			}
			return tr.PutShard(ctx, key, gen, t, want, body)
		},
		sr.RepairTo)
	if err != nil {
		// A target may have taken its last byte before the repair failed.
		cctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
		defer cancel()
		for _, t := range targets {
			g.transport(meta.Placement[t]).DeleteShard(cctx, key, gen, t) //nolint:errcheck
		}
		return err
	}
	for _, t := range targets {
		if upErrs[t] != nil {
			return fmt.Errorf("server: pushing rebuilt shard %d to member %d: %w", t, meta.Placement[t], upErrs[t])
		}
	}
	g.repairBytesRead.Add(int64(m.K) * want)
	g.repairBytesWritten.Add(int64(len(targets)) * want)
	g.shardsRebuilt.Add(int64(len(targets)))
	return nil
}
