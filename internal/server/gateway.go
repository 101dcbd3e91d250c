package server

import (
	"bytes"
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
	// SelfID is this gateway's own member ID, as /statusz reports it.
	SelfID int
	// K and R are the code geometry; Ring must have at least K+R members.
	K, R int
	// UnitSize is the shard unit size (0 selects gemmec.DefaultUnitSize).
	UnitSize int
	// Workers sizes the shared encode/decode scheduler (0 selects
	// gemmec.NewScheduler's default).
	Workers int
	// MaxStreams bounds concurrently admitted streaming requests (0
	// disables shedding) — the same admission contract Store has.
	MaxStreams int
	// WriteQuorum is q in the commit rule "k+q shard acks": a PUT commits
	// once k+q of its k+r shard uploads acked and abandons the generation
	// otherwise. Clamped to [0, R]; 0 keeps only decodability, R demands
	// every shard. Default (when 0 is passed as the zero value, the
	// clamp keeps it 0) — callers wanting durability margin pass 1..R.
	WriteQuorum int
	// Logf receives operational log lines; nil silences them.
	Logf Logf
}

// Gateway is the cluster backend: the same object front as Store, with
// every object's k+r shards fanned out to the ring's members over peer
// transports. Writes are quorum-committed (k+q acks, abandoned
// otherwise), reads fetch surviving shards from live peers and
// reconstruct through the shared scheduler pipeline, and RebuildNode
// restores everything a lost member held. One Gateway serves one process;
// any member can run one, since placement is deterministic and metadata
// is replicated to all members.
type Gateway struct {
	front
	cfg    GatewayConfig
	quorum int // shard acks required: k + clamped q

	quorumFailures          atomic.Int64
	rebuilds, shardsRebuilt atomic.Int64
	repairBytesRead         atomic.Int64
	repairBytesWritten      atomic.Int64
}

// NewGateway builds a gateway over cfg's ring and transports. Pair it
// with Close.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("server: gateway needs a ring")
	}
	if cfg.UnitSize == 0 {
		cfg.UnitSize = gemmec.DefaultUnitSize
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
	cfg.WriteQuorum = min(max(cfg.WriteQuorum, 0), cfg.R)
	g := &Gateway{cfg: cfg, quorum: cfg.K + cfg.WriteQuorum}
	if err := g.start(g, cfg.K, cfg.R, cfg.UnitSize, cfg.Workers, cfg.MaxStreams); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// SetMetrics attaches the observability bundle: the families every
// backend registers, plus the cluster's repair, rebuild, quorum and
// per-peer series.
func (g *Gateway) SetMetrics(m *Metrics) {
	g.front.SetMetrics(m)
	m.registerCluster(g)
}

// streamOpts bundles the gateway's shared scheduler and code registry
// with one request's context for the shardfile engine — the peer-side
// twin of Store.fileOpts.
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

// every returns the shard indices 0..n-1.
func every(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// parseMetaReplica decodes and sanity-checks one member's metadata
// replica.
func parseMetaReplica(key string, id int, raw []byte) (ObjectMeta, error) {
	var meta ObjectMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return ObjectMeta{}, fmt.Errorf("server: corrupt metadata replica for %s on member %d: %w", key, id, err)
	}
	if err := meta.validate(); err != nil {
		return ObjectMeta{}, err
	}
	return meta, nil
}

// metaOrder lists the ring's members in the order a metadata read of key
// asks them: the key's ring order, so different keys' reads start on
// different members, with the members the transports report healthy
// ahead of the rest.
func (g *Gateway) metaOrder(key string) []int {
	ring, _ := g.cfg.Ring.Placement(key, g.cfg.Ring.Len()) // n = Len cannot fail
	order := ring[:0]
	var down []int
	for _, id := range ring {
		if g.healthy(id) {
			order = append(order, id)
		} else {
			down = append(down, id)
		}
	}
	return append(order, down...)
}

// readMetaRaw fetches and parses the freshest metadata replica for key
// visible to a member majority: it asks need = n/2+1 members in parallel,
// in metaOrder, and every ask that ends without an answer — an error
// other than a conclusive not-found — goes on to the next member. The
// highest generation among the answering majority wins. The majority is
// what makes the freshness argument sound — a metadata commit is acked
// (durably) by a majority, any two majorities intersect, so the
// responders always include at least one replica of the latest committed
// generation. A gateway that was down during commits therefore cannot
// serve its own stale replica. Every ask is joined before the read
// returns. Tombstoned objects are returned as-is; callers decide whether a
// tombstone means "not found" (reads) or "the current generation"
// (writes).
func (g *Gateway) readMetaRaw(ctx context.Context, key string) ([]byte, ObjectMeta, error) {
	order := g.metaOrder(key)
	type reply struct {
		id  int
		raw []byte
		err error
	}
	ch := make(chan reply, len(order)) // each member is asked at most once
	asked := 0
	ask := func() {
		id := order[asked]
		asked++
		go func() {
			raw, err := g.transport(id).GetMeta(ctx, key)
			ch <- reply{id: id, raw: raw, err: err}
		}()
	}
	need := len(order)/2 + 1
	for asked < need {
		ask()
	}
	var (
		bestRaw   []byte
		bestMeta  ObjectMeta
		found     bool
		lastErr   error
		responded int
	)
	// Outstanding asks plus answers stay at need until the members run
	// out, so once need have answered nothing is left in flight.
	for pending := need; pending > 0; pending-- {
		r := <-ch
		switch {
		case errors.Is(r.err, peer.ErrMetaNotFound):
			responded++ // a definitive "I hold nothing" counts
		case r.err != nil:
			lastErr = r.err
			if asked < len(order) {
				ask()
				pending++
			}
		case found && bytes.Equal(r.raw, bestRaw):
			responded++ // the document already parsed: replicas carry the same bytes
		default:
			responded++
			meta, err := parseMetaReplica(key, r.id, r.raw)
			if err != nil {
				// The member answered; its replica is just rotten. It counts
				// toward the majority but contributes no document.
				lastErr = err
				continue
			}
			if !found || meta.Gen > bestMeta.Gen {
				bestRaw, bestMeta, found = r.raw, meta, true
			}
		}
	}
	if responded < need {
		if lastErr == nil {
			lastErr = peer.ErrUnavailable
		}
		return nil, ObjectMeta{}, fmt.Errorf("server: metadata for %s readable on only %d of %d members (need majority): %w",
			key, responded, len(order), lastErr)
	}
	if !found {
		return nil, ObjectMeta{}, ErrObjectNotFound
	}
	return bestRaw, bestMeta, nil
}

// current implements storage: a majority read of the metadata replicas.
func (g *Gateway) current(ctx context.Context, key string) (ObjectMeta, error) {
	// One span for the whole majority read, which joins every GetMeta it
	// sent before returning; peer.Client records no span of its own for
	// get_meta, so the metadata phase is this one bar.
	sp := obs.StartSpan(ctx, "meta.read")
	_, meta, err := g.readMetaRaw(ctx, key)
	sp.End(nil)
	return meta, err
}

// broadcastMeta is the commit point of every cluster write: doc goes to
// every ring member at once and commits once a majority acked it. Short
// of a majority the write is unwound — members that took doc get prev
// back (or, when prev.Gen == 0, lose the key) — and the error wraps
// ErrWriteQuorum, so no committed state changes.
func (g *Gateway) broadcastMeta(ctx context.Context, key string, doc, prev ObjectMeta) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
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
	if acks > len(members)/2 {
		return nil
	}
	var prevRaw []byte
	if prev.Gen > 0 {
		prevRaw, _ = json.MarshalIndent(prev, "", "  ")
	}
	cctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
	defer cancel()
	for i, m := range members {
		if ackErrs[i] != nil {
			continue
		}
		if tr := g.transport(m.ID); prevRaw != nil {
			tr.PutMeta(cctx, key, prevRaw) //nolint:errcheck
		} else {
			tr.DeleteObject(cctx, key) //nolint:errcheck
		}
	}
	return fmt.Errorf("%w: generation %d of %s acknowledged by %d of %d members (need majority): %v",
		ErrWriteQuorum, doc.Gen, doc.Name, acks, len(members), firstErr)
}

// dropShards deletes shards idx of generation gen of key from the members
// placement names — every delete at once, under a fresh bounded context
// (the request's is often dead by now), joined before returning, so
// whoever holds the key's lock across the call (a failed PUT, or an
// overwrite's reclaim) leaves no stray behind it. It is how every abandoned,
// superseded or deleted generation goes; failures are logged, and the
// tombstone reaper collects what is missed.
func (g *Gateway) dropShards(key string, gen uint64, placement []int, idx []int) {
	ctx, cancel := context.WithTimeout(context.Background(), rollbackTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, i := range idx {
		tr := g.transport(placement[i])
		if tr == nil {
			continue
		}
		wg.Add(1)
		go func(i int, tr peer.Transport) {
			defer wg.Done()
			if err := tr.DeleteShard(ctx, key, gen, i); err != nil {
				g.cfg.Logf.printf("ecserver: dropping %s.g%d shard %d on member %d failed: %v",
					key, gen, i, placement[i], err)
			}
		}(i, tr)
	}
	wg.Wait()
}

// commit implements storage: the body is encoded once through the shared
// scheduler while k+r uploader goroutines stream each shard to its placed
// member. The write commits — metadata broadcast and acknowledged by a
// member majority — only when at least k+WriteQuorum shard uploads
// acked; otherwise the generation is abandoned: acked shards are deleted
// and no metadata changes, so a failed PUT leaves the object exactly as
// it was. The generation is one past prev's, tombstones included, so
// delete/recreate keeps counting upward and no old replica can outrank a
// newly committed generation. prev's shards are dropped by the returned
// reclaim.
func (g *Gateway) commit(ctx context.Context, key, name string, prev ObjectMeta, src io.Reader, size int64) (ObjectMeta, gemmec.StreamStats, func(), error) {
	n := g.cfg.K + g.cfg.R
	placement, err := g.cfg.Ring.Placement(key, n)
	if err != nil {
		return ObjectMeta{}, gemmec.StreamStats{}, nil, err
	}
	meta := ObjectMeta{Name: name, Gen: prev.Gen + 1, Placement: placement}
	gen := uint64(meta.Gen)

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
	upErrs, err := fanOut(n, every(n),
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

	var acked []int
	var firstUpErr error
	for i, e := range upErrs {
		if e == nil {
			acked = append(acked, i)
		} else if firstUpErr == nil {
			firstUpErr = e
		}
	}
	if err == nil && len(acked) < g.quorum {
		g.quorumFailures.Add(1)
		err = fmt.Errorf("%w: %d of %d shard acks (need %d): %v",
			ErrWriteQuorum, len(acked), n, g.quorum, firstUpErr)
	}
	if err == nil {
		// Dead between the final shard ack and the commit: honor the
		// canceled-Put-leaves-no-trace contract.
		err = ctxErr(ctx)
	}
	if err == nil {
		meta.Manifest = m
		csp := obs.StartSpan(ctx, "meta.commit")
		err = g.broadcastMeta(ctx, key, meta, prev)
		csp.End(err)
		if err != nil {
			g.quorumFailures.Add(1)
		}
	}
	if err != nil {
		g.dropShards(key, gen, placement, acked)
		return ObjectMeta{}, st, nil, err
	}
	g.recordPut(st, m.FileSize)
	// Committed. The previous generation's shards are garbage now (a
	// tombstone predecessor has none, only a generation number).
	var reclaim func()
	if prev.Gen > 0 && !prev.Deleted {
		reclaim = func() { g.dropShards(key, uint64(prev.Gen), prev.Placement, every(len(prev.Placement))) }
	}
	return meta, st, reclaim, nil
}

// fanOut is the gateway's shard fan-out, shared by PUT and repair: fill
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

// openWindow implements storage: the read plan of the window over the
// object's peer shards.
func (g *Gateway) openWindow(ctx context.Context, _ string, meta ObjectMeta, off, n int64) (*shardfile.StreamReader, *keyLock, error) {
	plan, err := shardfile.PlanRead(meta.Manifest, off, n)
	if err != nil {
		return nil, nil, err
	}
	sr, err := g.openShards(ctx, meta, plan)
	return sr, nil, err
}

// openShards opens meta's shards for the reads plan makes: the peer
// instantiation of the shardfile read plan. The members whose shards the
// plan reads are asked in parallel for those stripes (one GetShardRange,
// or the plain whole-shard transfer), so only the window's data units
// cross the wire; a member that is down, missing the shard or serving the
// wrong length is marked lost. A clean open asks the other members
// nothing: their shards stay present and unopened, and the same fetch
// brings one in from the stripe where a later fault escalates the plan.
// An open that lost a planned shard starts escalated, so it asks the rest
// for their shard's length (StatShard: no bytes) before returning — it
// knows its survivors, and when fewer than k are usable the error wraps
// gemmec.ErrTooFewShards before anything is served.
func (g *Gateway) openShards(ctx context.Context, meta ObjectMeta, plan shardfile.ReadPlan) (*shardfile.StreamReader, error) {
	key, gen := objKey(meta.Name), uint64(meta.Gen)
	m := meta.Manifest
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
	// Covers the parallel fetches and stats; the per-peer get_shard /
	// stat_shard child spans (joined by wg.Wait below) show who was slow
	// to answer.
	osp := obs.StartSpan(ctx, "gw.open")
	var wg sync.WaitGroup
	for i := range bodies {
		if from, to := plan.Interval(i); from < to {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				bodies[i], err = fetch(i, from, to)
				lost[i] = err != nil
			}(i)
		}
	}
	wg.Wait()
	if slices.Contains(lost, true) {
		for i := range bodies {
			if from, to := plan.Interval(i); from >= to {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lost[i] = true
					if tr := g.transport(meta.Placement[i]); tr != nil {
						size, err := tr.StatShard(ctx, key, gen, i)
						lost[i] = err != nil || size != m.ShardSize()
					}
				}(i)
			}
		}
		wg.Wait()
	}
	osp.End(nil)
	return shardfile.OpenStreams(m, plan, bodies, lost, fetch, g.streamOpts(ctx))
}

// patchInPlace implements storage by declining: cluster shards are
// first-writer-wins per generation, so an in-place overwrite would break
// the torn-upload atomicity contract. The front read-modify-writes
// instead, through the normal quorum-committed commit.
func (g *Gateway) patchInPlace(context.Context, string, ObjectMeta, int64, []byte) (ObjectMeta, PatchStats, error) {
	return ObjectMeta{}, PatchStats{Fallback: "rmw"}, nil
}

// remove implements storage. The commit point is a tombstone: a metadata
// document at Gen = old.Gen+1 with the Deleted flag, broadcast like any
// write and requiring a member majority — NOT the removal of metadata.
// Removing replicas outright would let a member partitioned during the
// delete resurrect the object when it returns (its surviving replica
// would be the highest generation anywhere), and a recreate would restart
// at Gen 1 underneath that stale replica. With a tombstone the generation
// counter stays monotonic, the stale replica is outranked forever, and
// the scrub sweep reaps the tombstone once every member has acknowledged
// it. Shards of the deleted generation are reclaimed here, best effort,
// and by the reaper afterwards.
func (g *Gateway) remove(ctx context.Context, key, name string) error {
	old, err := g.current(ctx, key)
	if err != nil {
		return err
	}
	if old.Deleted {
		return fmt.Errorf("%w: %s (already deleted)", ErrObjectNotFound, name)
	}
	if err := g.broadcastMeta(ctx, key, ObjectMeta{Name: name, Gen: old.Gen + 1, Deleted: true}, old); err != nil {
		return err
	}
	g.dropShards(key, uint64(old.Gen), old.Placement, every(len(old.Placement)))
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

// List implements storage: the names of the live objects, sorted.
func (g *Gateway) List() ([]string, error) {
	metas, err := g.StatAll()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(metas))
	for i, m := range metas {
		names[i] = m.Name
	}
	return names, nil
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

// RepairAmplification returns the cumulative repair-traffic amplification
// of node rebuilds: bytes read from survivors per byte of shard rebuilt.
// The canonical EC repair cost — k units read for every unit restored
// when rebuilding one shard — makes it k.
func (g *Gateway) RepairAmplification() float64 {
	w := g.repairBytesWritten.Load()
	if w == 0 {
		return 0
	}
	return float64(g.repairBytesRead.Load()) / float64(w)
}

// describe implements storage: membership, quorum, repair traffic and one
// row per HTTP peer.
func (g *Gateway) describe(st *Stats) {
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
	st.ClusterStats = &ClusterStats{
		Members:             g.cfg.Ring.Len(),
		SelfID:              g.cfg.SelfID,
		WriteQuorum:         g.cfg.WriteQuorum,
		QuorumFailures:      g.quorumFailures.Load(),
		Rebuilds:            g.rebuilds.Load(),
		ShardsRebuilt:       g.shardsRebuilt.Load(),
		RepairBytesRead:     g.repairBytesRead.Load(),
		RepairBytesWritten:  g.repairBytesWritten.Load(),
		RepairAmplification: g.RepairAmplification(),
		Peers:               peers,
	}
}

// sweep implements storage: every object's shards are read whole from
// their members and checked unit by unit, damaged ones rebuilt and pushed
// back (scrubObject) — the networked version of the local scrub-and-heal
// loop. The sweep also retires delete tombstones once every member has
// acknowledged them (see reapTombstone).
func (g *Gateway) sweep(ctx context.Context) (rep ScrubReport) {
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
		healed, err := g.scrubObject(ctx, meta)
		if err != nil && ctx.Err() != nil {
			// Every fetch fails once ctx is dead: the sweep was cut short,
			// the object is not damaged.
			err = ctxErr(ctx)
		}
		if rep.record(meta.Name, healed, err) {
			break
		}
	}
	return rep
}

// scrubObject is the peer instantiation of shardfile.ScrubPaths: all k+r
// shards are read whole from their members and checked unit by unit
// (OpenStreams under the full plan → Scan), and only a damaged set is
// opened again and repaired (RepairTo) onto the damaged shards — missing,
// wrong-length or CRC-failing ones. A member that cannot be reached is
// not damaged: a rebuilt shard could not be pushed there either, and
// RebuildNode restores replaced members. Returns the shards healed.
func (g *Gateway) scrubObject(ctx context.Context, meta ObjectMeta) ([]int, error) {
	plan := shardfile.FullPlan(meta.Manifest)
	sr, err := g.openShards(ctx, meta, plan)
	if err != nil {
		return nil, err
	}
	damaged, err := sr.Scan()
	sr.Close()
	if err != nil {
		return nil, err
	}
	key, gen := objKey(meta.Name), uint64(meta.Gen)
	var targets []int
	for _, i := range damaged {
		if tr := g.transport(meta.Placement[i]); tr != nil {
			if _, err := tr.StatShard(ctx, key, gen, i); err == nil || errors.Is(err, peer.ErrShardNotFound) {
				targets = append(targets, i)
			}
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}
	if sr, err = g.openShards(ctx, meta, plan); err != nil {
		return nil, err
	}
	defer sr.Close()
	if err := g.repairShards(ctx, meta, targets, sr); err != nil {
		return nil, err
	}
	g.shardsHealed.Add(int64(len(targets)))
	return targets, nil
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
		want := meta.Manifest.ShardSize()
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
// from exactly k survivor bodies — the canonical repair read cost — pushes
// each to its placed member, and accounts the traffic in the repair_*
// counters, which therefore describe node rebuilds only (sweep heals count
// in shards_healed). A survivor unit failing its CRC32C,
// or a survivor stream dying, leaves its stripe short and fails the
// rebuild loudly instead of poisoning the rebuilt shard.
func (g *Gateway) rebuildObjectShards(ctx context.Context, meta ObjectMeta, targets []int) error {
	key, gen := objKey(meta.Name), uint64(meta.Gen)
	m := meta.Manifest
	n := m.K + m.R
	want := m.ShardSize()
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
	if err := g.repairShards(ctx, meta, targets, sr); err != nil {
		return err
	}
	g.repairBytesRead.Add(int64(m.K) * want)
	g.repairBytesWritten.Add(int64(len(targets)) * want)
	g.shardsRebuilt.Add(int64(len(targets)))
	return nil
}

// repairShards streams sr's repair of meta's target shards to their
// members — the peer instantiation of the shardfile repair core, RepairTo
// into the pipes of fanOut. Every target is written through
// peer.Replacer, which swaps the rebuilt shard in only once it is whole:
// a failed or canceled repair leaves each target as it found it — a
// rotten shard still serving every stripe where it verifies — as
// ScrubPaths' temp files and renames leave a node's. Over a transport
// without Replacer only a shard the member lacks can be written
// (PutShard is first-writer-wins); nothing is ever deleted first.
func (g *Gateway) repairShards(ctx context.Context, meta ObjectMeta, targets []int, sr *shardfile.StreamReader) error {
	key, gen := objKey(meta.Name), uint64(meta.Gen)
	m := meta.Manifest
	want := m.ShardSize()
	upErrs, err := fanOut(m.K+m.R, targets,
		func(t int, body io.Reader) error {
			tr := g.transport(meta.Placement[t])
			if r, ok := tr.(peer.Replacer); ok {
				return r.ReplaceShard(ctx, key, gen, t, want, body)
			}
			return tr.PutShard(ctx, key, gen, t, want, body)
		},
		sr.RepairTo)
	if err != nil {
		return err
	}
	for _, t := range targets {
		if upErrs[t] != nil {
			return fmt.Errorf("server: pushing rebuilt shard %d to member %d: %w", t, meta.Placement[t], upErrs[t])
		}
	}
	return nil
}
