package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gemmec"
	"gemmec/internal/autotune"
	"gemmec/internal/bitmatrix"
	"gemmec/internal/core"
	"gemmec/internal/server"
	"gemmec/internal/shardfile"
	"gemmec/internal/te"
	"gemmec/internal/tuned"
)

// The ladder pass pushes one payload through each layer's public entry
// point directly, bottom rung first, so every rung can be priced against
// the one below it: floor → te → core → pipeline → shardfile → store →
// http → gateway. Every MB/s is user-payload bytes per second, whatever
// the rung writes underneath, so adjacent rungs divide into a ratio. A
// rung runs for a fixed slice of the pass's time budget (three iterations
// at least) and reports the median iteration; rungs that create files
// remove them again inside the loop, untimed, so no rung grows the page
// cache.

type ladder struct {
	prof    *profile
	seed    int64
	dir     string
	rec     *recorder
	perRung time.Duration
	payload []byte
	out     map[string]float64
}

func (l *ladder) set(name string, v float64) { l.out[name] = v }

// measure runs f until the rung's budget is spent and returns the median
// iteration time. f returns the part of its own run time to leave out
// (clean-up between iterations).
func (l *ladder) measure(name string, bytes int64, f func() (untimed time.Duration, err error)) (time.Duration, error) {
	if _, err := f(); err != nil { // warm: compile decoders, open files, fill pools
		return 0, fmt.Errorf("ladder %s: %w", name, err)
	}
	var durs []time.Duration
	for begin := time.Now(); len(durs) < 3 || time.Since(begin) < l.perRung; {
		start := time.Now()
		skip, err := f()
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("ladder %s: %w", name, err)
		}
		l.rec.add(layerLadder, name, start, end.Add(-skip), bytes)
		durs = append(durs, end.Sub(start)-skip)
	}
	sortDurations(durs)
	return percentile(durs, 50), nil
}

// rate measures f and records name as MB/s of bytes per iteration.
func (l *ladder) rate(name string, bytes int64, f func() (time.Duration, error)) error {
	d, err := l.measure(name, bytes, f)
	if err != nil {
		return err
	}
	l.set(name, mbps(bytes, d))
	return nil
}

// millis measures f and records name as the median iteration in ms.
func (l *ladder) millis(name string, bytes int64, f func() (time.Duration, error)) error {
	d, err := l.measure(name, bytes, f)
	if err != nil {
		return err
	}
	l.set(name, ms(d))
	return nil
}

// simple adapts a rung with no clean-up.
func simple(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) { return 0, f() }
}

func runLadder(prof *profile, seed int64, dir string, budget time.Duration, rec *recorder) (*ladder, error) {
	const rungs = 42
	l := &ladder{prof: prof, seed: seed, dir: dir, rec: rec, perRung: budget / rungs, out: map[string]float64{}}
	l.payload = seededBytes(seed, 200, prof.ladderPayload)
	for _, step := range []func() error{l.floors, l.kernel, l.pipeline, l.shardfiles, l.stores, l.peerstore, l.daemons} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	ratio := func(name, num, den string) {
		if l.out[den] > 0 {
			l.set(name, l.out[num]/l.out[den])
		}
	}
	ratio("ratio.core_over_te", "core.encode_mbps", "te.encode_mbps")
	ratio("ratio.pipeline_over_core", "pipeline.encode_mbps", "core.encode_mbps")
	ratio("ratio.shardfile_over_pipeline", "shardfile.write_mbps", "pipeline.encode_mbps")
	ratio("ratio.store_over_shardfile", "store.put_mbps", "shardfile.write_mbps")
	ratio("ratio.http_over_store", "http.put_mbps", "store.put_mbps")
	ratio("ratio.gateway_over_store", "gateway.put_mbps", "http.put_mbps")
	return l, nil
}

// ---- floors: the named suspects for every gap ----

func (l *ladder) floors() error {
	n := int64(len(l.payload))
	dst := make([]byte, n)
	if err := l.rate("floor.memcpy_mbps", n, simple(func() error { copy(dst, l.payload); return nil })); err != nil {
		return err
	}
	if err := l.rate("floor.sha256_mbps", n, simple(func() error { sha256.Sum256(l.payload); return nil })); err != nil {
		return err
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	if err := l.rate("floor.crc32c_mbps", n, simple(func() error { crc32.Checksum(l.payload, castagnoli); return nil })); err != nil {
		return err
	}
	// What a PUT must at least write: k+r shard-sized files.
	dir := filepath.Join(l.dir, "floor")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	shard := make([]byte, len(l.payload)/codeK)
	err := l.rate("floor.file_write_mbps", n, func() (time.Duration, error) {
		for i := 0; i < codeK+codeR; i++ {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard%d", i)), shard, 0o644); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		for i := 0; i < codeK+codeR; i++ {
			os.Remove(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	small := make([]byte, 4<<10)
	if err := l.millis("floor.fsync_ms", int64(len(small)), func() (time.Duration, error) {
		f, err := os.Create(filepath.Join(dir, "synced"))
		if err != nil {
			return 0, err
		}
		if _, err := f.Write(small); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		return 0, f.Close()
	}); err != nil {
		return err
	}
	return nil
}

// ---- te and core: the kernel and the engine around it ----

func (l *ladder) kernel() error {
	eng, err := core.New(codeK, codeR, unitSize, core.Options{})
	if err != nil {
		return err
	}
	n := int64(len(l.payload))
	stripes := len(l.payload) / stripeBytes
	parity := make([]byte, stripes*codeR*unitSize)
	dataOf := func(s int) []byte { return l.payload[s*stripeBytes : (s+1)*stripeBytes] }
	parityOf := func(s int) []byte { return parity[s*codeR*unitSize : (s+1)*codeR*unitSize] }

	// The bare kernel, built the way the engine builds it (same shape,
	// schedule and packed bitmatrix) but called with nothing around it.
	m, kDim, words := eng.Shape()
	comp, err := autotune.Compile(m, kDim, words, eng.Params())
	if err != nil {
		return err
	}
	bm := bitmatrix.FromGF(eng.CodingMatrix())
	mask := te.NewBuffer(comp.A)
	if err := te.PackMask(mask, m, kDim, bm.At); err != nil {
		return err
	}
	if err := comp.Kernel.PrebindMask(mask); err != nil {
		return err
	}
	err = l.rate("te.encode_mbps", n, simple(func() error {
		for s := 0; s < stripes; s++ {
			if err := comp.Kernel.ExecBufs(mask, te.Buffer(dataOf(s)), te.Buffer(parityOf(s))); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	// Source words XORed per data word: ones in the coding bitmatrix over
	// its columns. A count, not a time — it moves only when the matrix or
	// a CSE pass changes.
	l.set("te.xors_per_byte", float64(bm.Ones())/float64(bm.Cols()))

	err = l.rate("core.encode_mbps", n, simple(func() error {
		for s := 0; s < stripes; s++ {
			if err := eng.Encode(dataOf(s), parityOf(s)); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	err = l.rate("core.verify_mbps", n, simple(func() error {
		for s := 0; s < stripes; s++ {
			ok, err := eng.Verify(dataOf(s), parityOf(s))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("stripe %d does not verify", s)
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	reconstruct := func(lost ...int) func() error {
		units := make([][]byte, codeK+codeR)
		return func() error {
			for s := 0; s < stripes; s++ {
				for u := range units {
					if u < codeK {
						units[u] = dataOf(s)[u*unitSize : (u+1)*unitSize]
					} else {
						units[u] = parityOf(s)[(u-codeK)*unitSize : (u-codeK+1)*unitSize]
					}
				}
				for _, u := range lost {
					units[u] = nil
				}
				if err := eng.Reconstruct(units); err != nil {
					return err
				}
				for _, u := range lost {
					if !bytes.Equal(units[u], dataOf(s)[u*unitSize:(u+1)*unitSize]) {
						return fmt.Errorf("stripe %d unit %d reconstructed wrong", s, u)
					}
				}
			}
			return nil
		}
	}
	if err := l.rate("core.reconstruct1_mbps", n, simple(reconstruct(0))); err != nil {
		return err
	}
	if err := l.rate("core.reconstruct2_mbps", n, simple(reconstruct(0, 2))); err != nil {
		return err
	}
	// The small-write kernel: one data unit of each stripe changes. MB/s is
	// per changed user byte.
	newUnit := seededBytes(l.seed, 201, unitSize)
	scratch := append([]byte(nil), parity...)
	return l.rate("core.update_parity_mbps", int64(stripes*unitSize), simple(func() error {
		for s := 0; s < stripes; s++ {
			p := scratch[s*codeR*unitSize : (s+1)*codeR*unitSize]
			if err := eng.UpdateParity(p, 1, dataOf(s)[unitSize:2*unitSize], newUnit); err != nil {
				return err
			}
		}
		return nil
	}))
}

// ---- pipeline: the streaming engine, memory to memory ----

// storeWorkers is how Store and Gateway size their shared scheduler.
func storeWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

func (l *ladder) pipeline() error {
	code, err := gemmec.New(codeK, codeR, gemmec.WithUnitSize(unitSize))
	if err != nil {
		return err
	}
	pool, err := code.NewStreamPool()
	if err != nil {
		return err
	}
	var (
		waitMu sync.Mutex
		waits  []time.Duration
	)
	sched := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: storeWorkers(), OnWait: func(d time.Duration) {
		waitMu.Lock()
		waits = append(waits, d)
		waitMu.Unlock()
	}})
	defer sched.Close()
	opts := []gemmec.StreamOption{gemmec.WithStreamScheduler(sched), gemmec.WithStreamPool(pool)}

	n := int64(len(l.payload))
	shards := make([]*bytes.Buffer, codeK+codeR)
	writers := make([]io.Writer, len(shards))
	for i := range shards {
		shards[i] = bytes.NewBuffer(make([]byte, 0, len(l.payload)/codeK))
		writers[i] = shards[i]
	}
	err = l.rate("pipeline.encode_mbps", n, simple(func() error {
		for _, b := range shards {
			b.Reset()
		}
		_, err := code.EncodeStream(bytes.NewReader(l.payload), writers, opts...)
		return err
	}))
	if err != nil {
		return err
	}
	// Submit-to-start wait of a stripe task on the shared pool.
	sortDurations(waits)
	l.set("sched.task_overhead_us", us(percentile(waits, 50)))

	decode := func(lost int) func() error {
		readers := make([]io.Reader, len(shards))
		var out bytes.Buffer
		out.Grow(len(l.payload))
		return func() error {
			for i, b := range shards {
				readers[i] = bytes.NewReader(b.Bytes())
			}
			if lost >= 0 {
				readers[lost] = nil
			}
			out.Reset()
			if err := code.DecodeStream(readers, &out, n, opts...); err != nil {
				return err
			}
			if !bytes.Equal(out.Bytes(), l.payload) {
				return fmt.Errorf("decoded payload differs")
			}
			return nil
		}
	}
	if err := l.rate("pipeline.decode_mbps", n, simple(decode(-1))); err != nil {
		return err
	}
	return l.rate("pipeline.decode_degraded_mbps", n, simple(decode(0)))
}

// ---- shardfile: the pipeline plus files, checksums and manifests ----

func (l *ladder) shardfiles() error {
	dir := filepath.Join(l.dir, "shardfile")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sched := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: storeWorkers()})
	defer sched.Close()
	opt := shardfile.Opts{Sched: sched, Source: tuned.NewRegistry(tuned.Config{})}
	paths := make([]string, codeK+codeR)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard_%03d", i))
	}
	n := int64(len(l.payload))
	var man shardfile.Manifest
	write := func() error {
		var err error
		man, _, err = shardfile.WriteStreamPaths(paths, bytes.NewReader(l.payload), n, codeK, codeR, unitSize, storeWorkers(), opt)
		return err
	}
	// Each iteration renames over the previous shard set, so the footprint
	// stays one object.
	if err := l.rate("shardfile.write_mbps", n, simple(write)); err != nil {
		return err
	}
	read := func(paths []string) func() error {
		var out bytes.Buffer
		out.Grow(len(l.payload))
		return func() error {
			sr, err := shardfile.OpenStreamPaths(paths, man, opt)
			if err != nil {
				return err
			}
			defer sr.Close()
			out.Reset()
			if _, err := sr.Decode(&out, storeWorkers()); err != nil {
				return err
			}
			if !bytes.Equal(out.Bytes(), l.payload) {
				return fmt.Errorf("decoded payload differs")
			}
			return nil
		}
	}
	if err := l.rate("shardfile.read_mbps", n, simple(read(paths))); err != nil {
		return err
	}
	missing := append([]string(nil), paths...)
	missing[0] = filepath.Join(dir, "absent")
	if err := l.rate("shardfile.read_degraded_mbps", n, simple(read(missing))); err != nil {
		return err
	}
	if err := l.millis("shardfile.open_ms", 0, simple(func() error {
		sr, err := shardfile.OpenStreamPaths(paths, man, opt)
		if err != nil {
			return err
		}
		return sr.Close()
	})); err != nil {
		return err
	}
	window := l.prof.window
	if err := l.millis("shardfile.range_ms", window, simple(func() error {
		sr, err := shardfile.OpenStreamPaths(paths, man, opt)
		if err != nil {
			return err
		}
		defer sr.Close()
		var out bytes.Buffer
		if _, err := sr.DecodeRange(&out, storeWorkers(), n-window, window); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), l.payload[n-window:]) {
			return fmt.Errorf("range bytes differ")
		}
		return nil
	})); err != nil {
		return err
	}
	if err := l.rate("shardfile.scrub_mbps", n, simple(func() error {
		healed, err := shardfile.ScrubPaths(paths, man, opt)
		if err == nil && len(healed) > 0 {
			err = fmt.Errorf("scrub healed %v on an undamaged set", healed)
		}
		return err
	})); err != nil {
		return err
	}
	// Last: the patch rewrites stripes in place, so the set no longer
	// holds l.payload afterwards. Each plan starts from the manifest the
	// previous apply produced, as the daemon's does.
	patch := seededBytes(l.seed, 202, int(window))
	if err := l.millis("shardfile.patch_ms", window, simple(func() error {
		p, err := shardfile.PlanPatch(paths, man, patchOffset(n), patch, opt)
		if err != nil {
			return err
		}
		if err := shardfile.ApplyPatch(paths, p, opt); err != nil {
			return err
		}
		man = p.Manifest
		return nil
	})); err != nil {
		return err
	}
	return nil
}

// patchOffset is where the ladder's PATCH rungs splice their window into
// an n-byte object: mid-object, one byte into a stripe, inside one unit.
func patchOffset(n int64) int64 { return (n/2/stripeBytes)*stripeBytes + 1 }

// ---- store: the object protocol in process, no HTTP ----

func (l *ladder) stores() error {
	ctx := context.Background()
	n := int64(len(l.payload))
	st, err := server.Open(server.StoreConfig{
		Root: filepath.Join(l.dir, "store"), Nodes: nodeDirs, K: codeK, R: codeR, UnitSize: unitSize,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	// Overwrites of one key: the generation-versioned path, whose previous
	// generation is removed on commit.
	if err := l.rate("store.put_mbps", n, simple(func() error {
		_, _, err := st.Put(ctx, "ladder", bytes.NewReader(l.payload), n)
		return err
	})); err != nil {
		return err
	}
	var out bytes.Buffer
	out.Grow(len(l.payload))
	if err := l.rate("store.get_mbps", n, simple(func() error {
		out.Reset()
		if _, _, err := st.Get(ctx, "ladder", &out); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), l.payload) {
			return fmt.Errorf("store returned wrong bytes")
		}
		return nil
	})); err != nil {
		return err
	}

	// The journaled in-place PATCH: plan, journal, apply, metadata commit.
	patch := seededBytes(l.seed, 203, int(l.prof.window))
	if err := l.millis("store.patch_ms", l.prof.window, simple(func() error {
		_, ps, err := st.Patch(ctx, "ladder", patch, patchOffset(n))
		if err == nil && !ps.InPlace {
			err = fmt.Errorf("patch fell back to read-modify-write (%s)", ps.Fallback)
		}
		return err
	})); err != nil {
		return err
	}

	// Small objects on a slab-packing store, written by as many callers as
	// node_small has clients so the group commit has something to group.
	packed, err := server.Open(server.StoreConfig{
		Root: filepath.Join(l.dir, "packed"), Nodes: nodeDirs, K: codeK, R: codeR, UnitSize: unitSize,
		SlabThreshold: l.prof.slabThreshold,
	})
	if err != nil {
		return err
	}
	defer packed.Close()
	small := l.payload[:l.prof.smallObject]
	const callers, keys = 2, 64
	putAll := func() ([]time.Duration, error) {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			durs  []time.Duration
			first error
		)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < keys; i += callers {
					start := time.Now()
					_, _, err := packed.Put(ctx, fmt.Sprintf("small-%03d", i), bytes.NewReader(small), int64(len(small)))
					d := time.Since(start)
					mu.Lock()
					durs = append(durs, d)
					if err != nil && first == nil {
						first = err
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return durs, first
	}
	start := time.Now()
	durs, err := putAll()
	if err != nil {
		return fmt.Errorf("ladder store.small_put_us: %w", err)
	}
	l.rec.add(layerLadder, "store.small_put_us", start, time.Now(), int64(keys*len(small)))
	sortDurations(durs)
	l.set("store.small_put_us", us(percentile(durs, 50)))
	if stats := packed.Stats(); stats.SlabFlushes > 0 {
		l.set("store.slab_puts_per_flush", float64(stats.SlabPuts)/float64(stats.SlabFlushes))
	}
	next := 0
	d, err := l.measure("store.small_get_us", int64(len(small)), simple(func() error {
		out.Reset()
		next = (next + 1) % keys
		if _, _, err := packed.Get(ctx, fmt.Sprintf("small-%03d", next), &out); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), small) {
			return fmt.Errorf("store returned wrong bytes")
		}
		return nil
	}))
	if err != nil {
		return err
	}
	l.set("store.small_get_us", us(d))
	durs = durs[:0]
	start = time.Now()
	for i := 0; i < keys; i++ {
		t := time.Now()
		if err := packed.Delete(ctx, fmt.Sprintf("small-%03d", i)); err != nil {
			return fmt.Errorf("ladder store.delete_us: %w", err)
		}
		durs = append(durs, time.Since(t))
	}
	l.rec.add(layerLadder, "store.delete_us", start, time.Now(), 0)
	sortDurations(durs)
	l.set("store.delete_us", us(percentile(durs, 50)))
	return nil
}

// ---- peerstore: one cluster member's shard store, called directly ----

func (l *ladder) peerstore() error {
	ps, err := server.OpenPeerStore(filepath.Join(l.dir, "peerstore"))
	if err != nil {
		return err
	}
	shard := l.payload[:len(l.payload)/codeK]
	n := int64(len(shard))
	const key = "6c6164646572" // hex("ladder"): peer keys are hex-encoded names
	gen := uint64(0)
	// Shard writes are first-writer-wins and fsynced: each iteration writes
	// a new generation and drops the previous one, untimed.
	if err := l.millis("peerstore.put_shard_ms", n, func() (time.Duration, error) {
		gen++
		if _, err := ps.PutShard(key, gen, 0, bytes.NewReader(shard)); err != nil {
			return 0, err
		}
		t := time.Now()
		if gen > 1 {
			if err := ps.DeleteShard(key, gen-1, 0); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}); err != nil {
		return err
	}
	// The same median iteration, as a rate.
	l.set("peerstore.put_shard_mbps", float64(n)/1e3/l.out["peerstore.put_shard_ms"])
	buf := make([]byte, len(shard))
	if err := l.rate("peerstore.get_shard_mbps", n, simple(func() error {
		body, _, err := ps.GetShard(key, gen, 0)
		if err != nil {
			return err
		}
		defer body.Close()
		if _, err := io.ReadFull(body, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, shard) {
			return fmt.Errorf("peer store returned wrong bytes")
		}
		return nil
	})); err != nil {
		return err
	}
	meta := l.payload[:1<<10]
	if err := l.millis("peerstore.put_meta_ms", int64(len(meta)), simple(func() error { return ps.PutMeta(key, meta) })); err != nil {
		return err
	}
	return nil
}

// ---- http and gateway: the two daemons, driven by the generator's client ----

func (l *ladder) daemons() error {
	pool := [][]byte{l.payload}
	drive := func(st *stack, prefix string) (*client, *object, error) {
		t := newTransport(1)
		st.closers = append(st.closers, t.CloseIdleConnections)
		c := newClient(t, st.url, nil)
		obj := &object{name: "ladder"}
		obj.setVersion(pool, 0)
		n := obj.size()
		if err := l.rate(prefix+".put_mbps", n, simple(func() error {
			_, err := c.do(opPut, obj, 0, 0, nil)
			return err
		})); err != nil {
			return nil, nil, err
		}
		return c, obj, l.rate(prefix+".get_mbps", n, simple(func() error {
			_, err := c.do(opGet, obj, 0, 0, nil)
			return err
		}))
	}
	patch := seededBytes(l.seed, 204, int(l.prof.window))

	node, err := openNodeStack(filepath.Join(l.dir, "http"), 0, nil)
	if err != nil {
		return err
	}
	c, obj, err := drive(node, "http")
	if err == nil {
		err = l.millis("http.patch_ms", l.prof.window, simple(func() error {
			_, err := c.do(opPatch, obj, 0, patchOffset(obj.size()), patch)
			return err
		}))
	}
	node.close()
	if err != nil {
		return err
	}

	cl, err := openClusterStack(filepath.Join(l.dir, "gateway"), nil)
	if err != nil {
		return err
	}
	defer cl.close()
	c, obj, err = drive(cl, "gateway")
	if err != nil {
		return err
	}
	// One member loses its disk: reads reconstruct around it, then a
	// whole-member rebuild restores it.
	const victim = 1
	if err := cl.peers[victim].WipeShards(); err != nil {
		return err
	}
	if err := l.rate("gateway.degraded_get_mbps", obj.size(), simple(func() error {
		_, err := c.do(opGet, obj, 0, 0, nil)
		return err
	})); err != nil {
		return err
	}
	start := time.Now()
	rst, err := cl.gateway.RebuildNode(context.Background(), victim)
	wall := time.Since(start)
	if err == nil && len(rst.Errors) > 0 {
		err = fmt.Errorf("%d object(s) left unrepaired", len(rst.Errors))
	}
	if err != nil {
		return fmt.Errorf("ladder gateway.rebuild_mbps: %w", err)
	}
	l.rec.add(layerLadder, "gateway.rebuild_mbps", start, start.Add(wall), rst.BytesWritten)
	l.set("gateway.rebuild_mbps", mbps(rst.BytesWritten, wall))
	l.set("gateway.repair_amplification", rst.Amplification())
	return nil
}
