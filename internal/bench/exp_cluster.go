package bench

import (
	"context"
	"fmt"
	"io"
	"os"

	"gemmec/internal/server"
	"gemmec/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "workload",
		Paper: "§8 future work (performance on real storage workloads)",
		Title: "Synthetic object-store trace replayed on server.Gateway, with churn",
		Run:   runWorkload,
	})
}

// The workload replays on the shipping Gateway over nine PeerStore
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
