package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"gemmec/internal/server"
	"gemmec/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "cluster",
		Paper: "§8 future work (integrate into real storage systems, real workloads)",
		Title: "server.Gateway over 9 in-process members: ingest, degraded reads, member rebuild (k=6, r=3)",
		Run:   runCluster,
	})
	register(Experiment{
		ID:    "workload",
		Paper: "§8 future work (performance on real storage workloads)",
		Title: "Synthetic object-store trace replayed on server.Gateway, with churn",
		Run:   runWorkload,
	})
}

// Both experiments run the shipping Gateway over nine PeerStore
// directories in a temp root: real placement, quorum commit, fsyncs and
// RebuildNode, everything but the socket (the ladder's cluster_large
// workload prices that).
const clusterNodes, clusterK, clusterR = 9, 6, 3

func newBenchCluster(unit int) (c *server.LocalCluster, cleanup func(), err error) {
	root, err := os.MkdirTemp("", "gemmec-cluster-")
	if err != nil {
		return nil, nil, err
	}
	c, err = server.NewLocalCluster(root, clusterNodes, server.GatewayConfig{
		K: clusterK, R: clusterR, UnitSize: unit, WriteQuorum: 1,
	})
	if err != nil {
		os.RemoveAll(root)
		return nil, nil, err
	}
	return c, func() { c.Close(); os.RemoveAll(root) }, nil
}

func runWorkload(w io.Writer, cfg Config) error {
	unit := cfg.UnitSize / 2
	c, cleanup, err := newBenchCluster(unit)
	if err != nil {
		return err
	}
	defer cleanup()
	// Every put fsyncs on nine members now, so smoke profiles replay a
	// quarter of the trace; object sizes follow the unit (2 MiB at 128 KiB).
	nOps := 400
	if cfg.MinTime < DefaultConfig().MinTime {
		nOps = 100
	}
	scfg := trace.DefaultSynthConfig(clusterNodes)
	scfg.MaxSize = 32 * unit
	scfg.FailureEvery = nOps / 10
	wl := trace.Synthesize(cfg.Seed, nOps, scfg)
	st, err := trace.Replay(context.Background(), c.Gateway, c, wl, cfg.Seed)
	if err != nil {
		return err
	}
	reads := st.Gets + st.Ranges
	t := NewTable(fmt.Sprintf("Trace replay (%d ops on server.Gateway, 9 members, k=6, r=3, %s units; every read verified against a shadow copy)",
		len(wl.Ops), byteSize(unit)), "metric", "value")
	t.AddF("puts / gets / range gets / deletes", fmt.Sprintf("%d / %d / %d / %d", st.Puts, st.Gets, st.Ranges, st.Deletes))
	t.AddF("reads of deleted names (all 404)", st.NotFoundGets)
	t.AddF("member failures / rebuilds", fmt.Sprintf("%d / %d", st.Fails, st.Rebuilds))
	t.AddF("degraded reads", fmt.Sprintf("%d (%.1f%% of reads)", st.DegradedGets, 100*float64(st.DegradedGets)/float64(max(reads, 1))))
	t.AddF("data written / read", fmt.Sprintf("%s / %s", byteSize(int(st.BytesWritten)), byteSize(int(st.BytesRead))))
	t.AddF("repaired data", byteSize(int(st.RepairedBytes)))
	if st.RepairedBytes > 0 {
		t.AddF("repair traffic amplification", fmt.Sprintf("%.1fx", float64(st.RepairTraffic)/float64(st.RepairedBytes)))
	}
	t.AddF("wall time", st.Elapsed.Round(1e6).String())
	t.AddF("aggregate throughput", fmt.Sprintf("%.0f MB/s", float64(st.BytesRead+st.BytesWritten)/st.Elapsed.Seconds()/1e6))
	t.Note("every byte returned by a read was checked against the pre-encode shadow copy, and every name deleted during an outage re-read after the rebuild; replay doubles as the reference model for the serving path")
	return t.Fprint(w)
}

func runCluster(w io.Writer, cfg Config) error {
	ctx := context.Background()
	c, cleanup, err := newBenchCluster(cfg.UnitSize)
	if err != nil {
		return err
	}
	defer cleanup()
	gw := c.Gateway
	objSize := 2 * clusterK * cfg.UnitSize // two stripes per object
	payload := RandomBytes(cfg.Seed, objSize)

	// The resident set is a small ring of names the put measurement keeps
	// overwriting (an overwrite reclaims the old generation), so scratch
	// disk stays at ring × 1.5 × objSize however long the run.
	const ring = 8
	puts := 0
	var meta server.ObjectMeta // of the last put
	put := func() error {
		name := fmt.Sprintf("obj-%d", puts%ring)
		puts++
		var err error
		meta, _, err = gw.Put(ctx, name, bytes.NewReader(payload), int64(objSize))
		return err
	}
	for puts < ring {
		if err := put(); err != nil {
			return err
		}
	}
	// The reads target the last object seeded; the victim is the member
	// holding its first data shard, so a degraded read must reconstruct.
	target, victim := meta.Name, meta.Placement[0]
	get := func() error {
		o, err := gw.Open(ctx, target)
		if err != nil {
			return err
		}
		defer o.Close()
		_, err = o.Stream(io.Discard)
		return err
	}

	// Clean vs degraded reads of one object, interleaved so drift hits both
	// equally: the victim is partitioned for one closure and healed for the
	// other.
	reads, err := Compare(2*cfg.MinTime, []Alt{
		{Name: "get-clean", Bytes: objSize, F: func() error {
			c.Faults[victim].Heal()
			return get()
		}},
		{Name: "get-degraded", Bytes: objSize, F: func() error {
			c.Faults[victim].Partition()
			return get()
		}},
	})
	c.Faults[victim].Heal()
	if err != nil {
		return err
	}
	mGet, mDeg := reads[0], reads[1]

	mPut, err := Measure("put", objSize, cfg.MinTime, put)
	if err != nil {
		return err
	}

	// Member rebuild: each op replaces the victim with an empty directory
	// and restores its shard of every resident object (k+r = 9 members, so
	// it holds one of each).
	var st server.RebuildStats
	mReb, err := Measure("rebuild", 1, cfg.MinTime, func() error {
		var err error
		if st, err = c.Rebuild(ctx, victim); err == nil && len(st.Errors) > 0 {
			err = fmt.Errorf("rebuild left objects unrepaired: %v", st.Errors)
		}
		return err
	})
	if err != nil {
		return err
	}
	if rep := gw.ScrubAll(ctx); !rep.Clean() {
		return fmt.Errorf("cluster not clean after the run: %+v", rep)
	}

	mbps := func(m Measurement) string { return fmt.Sprintf("%.0f", m.GBps()*1e3) }
	t := NewTable(fmt.Sprintf("server.Gateway, 9 in-process members on local disk (k=6, r=3, %s units, %s objects, %d resident, write quorum k+1)",
		byteSize(cfg.UnitSize), byteSize(objSize), ring), "operation", "MB/s", "time/op")
	t.AddF("put (encode + 9 fsynced shard uploads + metadata majority)", mbps(mPut), mPut.PerOp().String())
	t.AddF("get (clean)", mbps(mGet), mGet.PerOp().String())
	t.AddF("get (degraded, 1 member partitioned)", mbps(mDeg), mDeg.PerOp().String())
	t.AddF("rebuild member (repaired data)", fmt.Sprintf("%.0f", float64(st.BytesWritten)/mReb.PerOp().Seconds()/1e6), mReb.PerOp().String())
	t.Note("rebuild restored %d shards reading %.1fx the repaired bytes from survivors (Gateway.RebuildStats; RS repair reads k units per shard — E-LRC prices the LRC alternative)",
		st.ShardsRebuilt, st.Amplification())
	return t.Fprint(w)
}
