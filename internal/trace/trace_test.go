package trace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gemmec/internal/server"
)

func TestSynthesizeDeterministicAndWellFormed(t *testing.T) {
	cfg := DefaultSynthConfig(9)
	a := Synthesize(7, 200, cfg)
	b := Synthesize(7, 200, cfg)
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("not deterministic in length")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs between same-seed runs", i)
		}
	}
	c := Synthesize(8, 200, cfg)
	same := true
	for i := range a.Ops {
		if i < len(c.Ops) && a.Ops[i] != c.Ops[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}

	// Well-formedness: reads only after writes, ranges and deletes only of
	// live objects, failures always repaired, at most one node down at a
	// time, and every name deleted during an outage read right after the
	// rebuild that ends it.
	written := map[string]bool{}
	size := map[string]int{}
	kinds := map[OpKind]int{}
	down := -1
	var deletedWhileDown []string
	for i, op := range a.Ops {
		kinds[op.Kind]++
		if len(deletedWhileDown) > 0 && down < 0 {
			if op.Kind != OpGet || op.Object != deletedWhileDown[0] {
				t.Fatalf("op %d: %s %s, want the post-rebuild read of %s (deleted during the outage)",
					i, op.Kind, op.Object, deletedWhileDown[0])
			}
			deletedWhileDown = deletedWhileDown[1:]
		}
		switch op.Kind {
		case OpPut:
			if op.Size < cfg.MinSize || op.Size > cfg.MaxSize {
				t.Fatalf("op %d: size %d outside [%d,%d]", i, op.Size, cfg.MinSize, cfg.MaxSize)
			}
			written[op.Object], size[op.Object] = true, op.Size
		case OpGet:
			if !written[op.Object] {
				t.Fatalf("op %d reads unwritten %s", i, op.Object)
			}
		case OpRange:
			if sz, live := size[op.Object]; !live || op.Off < 0 || op.Len < 1 || op.Off+op.Len > sz {
				t.Fatalf("op %d: range [%d,+%d) of %s (live=%v, %d bytes)", i, op.Off, op.Len, op.Object, live, sz)
			}
		case OpDelete:
			if _, live := size[op.Object]; !live {
				t.Fatalf("op %d deletes %s, which is not live", i, op.Object)
			}
			delete(size, op.Object)
			if down >= 0 {
				deletedWhileDown = append(deletedWhileDown, op.Object)
			}
		case OpFail:
			if down >= 0 {
				t.Fatalf("op %d fails node %d while %d still down", i, op.Node, down)
			}
			down = op.Node
		case OpRebuild:
			if down != op.Node {
				t.Fatalf("op %d rebuilds node %d but %d is down", i, op.Node, down)
			}
			down = -1
		}
	}
	if down >= 0 {
		t.Error("workload leaves a node down")
	}
	if len(deletedWhileDown) > 0 {
		t.Errorf("names deleted during an outage never re-read: %v", deletedWhileDown)
	}
	for _, k := range []OpKind{OpPut, OpGet, OpRange, OpDelete, OpFail, OpRebuild} {
		if kinds[k] == 0 {
			t.Errorf("default mix produced no %s op in %d", k, len(a.Ops))
		}
	}
}

func TestSynthesizeDefaultsApplied(t *testing.T) {
	w := Synthesize(1, 50, SynthConfig{Nodes: 9})
	if len(w.Ops) < 50 {
		t.Fatalf("%d ops", len(w.Ops))
	}
	hasGet := false
	for _, op := range w.Ops {
		if op.Kind == OpGet {
			hasGet = true
		}
	}
	if !hasGet {
		t.Error("default config produced no reads")
	}
	for _, k := range []OpKind{OpPut, OpGet, OpRange, OpDelete, OpFail, OpRebuild, OpKind(9)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

// replayConfig is the mix both backend replays run: small objects so a
// replay is mostly protocol, three outage windows in 150 ops.
func replayConfig() SynthConfig {
	return SynthConfig{
		Objects:      6,
		MinSize:      1000,
		MaxSize:      100_000,
		ReadFraction: 0.6,
		FailureEvery: 25,
		Nodes:        9,
	}
}

// checkReplay replays 150-op workloads for three seeds against the target
// newTarget builds and checks the accounting every backend must produce.
func checkReplay(t *testing.T, newTarget func(t *testing.T) (Target, Churn), check func(t *testing.T, st Stats)) {
	for _, seed := range []int64{3, 4, 5} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			b, churn := newTarget(t)
			st, err := Replay(context.Background(), b, churn, Synthesize(seed, 150, replayConfig()), seed)
			if err != nil {
				t.Fatal(err)
			}
			if st.Puts == 0 || st.Gets == 0 || st.Ranges == 0 || st.Deletes == 0 || st.NotFoundGets == 0 {
				t.Fatalf("stats %+v: some op kind never ran", st)
			}
			if st.DegradedGets == 0 {
				t.Error("no degraded read across the outage windows")
			}
			if st.Fails == 0 || st.Fails != st.Rebuilds {
				t.Errorf("fails %d, rebuilds %d", st.Fails, st.Rebuilds)
			}
			if st.RepairedBytes == 0 {
				t.Error("rebuilds repaired no bytes")
			}
			if st.BytesRead == 0 || st.BytesWritten == 0 || st.Elapsed <= 0 {
				t.Errorf("accounting empty: %+v", st)
			}
			check(t, st)
		})
	}
}

const replayK, replayR = 4, 2

func newLocalCluster(t *testing.T, n int) *server.LocalCluster {
	t.Helper()
	c, err := server.NewLocalCluster(t.TempDir(), n, server.GatewayConfig{
		K: replayK, R: replayR, UnitSize: 8192, Workers: 2, WriteQuorum: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestReplayGateway drives the shipping cluster path: fail is a
// partition, rebuild wipes the member and runs Gateway.RebuildNode, and
// the repair traffic is the gateway's own RebuildStats.
func TestReplayGateway(t *testing.T) {
	checkReplay(t, func(t *testing.T) (Target, Churn) {
		c := newLocalCluster(t, 9)
		return c.Gateway, c
	}, func(t *testing.T, st Stats) {
		if st.RepairTraffic != replayK*st.RepairedBytes {
			t.Errorf("repair read %d bytes for %d rebuilt, want amplification k=%d", st.RepairTraffic, st.RepairedBytes, replayK)
		}
	})
}

// storeChurn fails a single-node Store's failure domains: a member is a
// node_NNN directory, rebuild is the scrub sweep that heals it.
type storeChurn struct{ s *server.Store }

func (c storeChurn) Fail(id int) error {
	return os.RemoveAll(filepath.Join(c.s.Config().Root, fmt.Sprintf("node_%03d", id)))
}

func (c storeChurn) Rebuild(ctx context.Context, id int) (server.RebuildStats, error) {
	rep := c.s.ScrubAll(ctx)
	st := server.RebuildStats{Member: id, ShardsRebuilt: rep.ShardsHealed(), Errors: rep.Errors}
	metas, err := c.s.StatAll()
	for _, m := range metas {
		st.BytesWritten += int64(len(rep.Healed[m.Name]) * m.Manifest.Stripes * m.Manifest.UnitSize)
	}
	return st, err
}

// TestReplayStore is the same replay and the same shadow checks over the
// single-node backend.
func TestReplayStore(t *testing.T) {
	checkReplay(t, func(t *testing.T) (Target, Churn) {
		s, err := server.Open(server.StoreConfig{
			Root: t.TempDir(), Nodes: 9, K: replayK, R: replayR, UnitSize: 8192, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, storeChurn{s}
	}, func(*testing.T, Stats) {})
}

func TestReplayRejectsMalformed(t *testing.T) {
	c := newLocalCluster(t, 6)
	for what, ops := range map[string][]Op{
		"read before write":   {{Kind: OpGet, Object: "missing"}},
		"delete before write": {{Kind: OpDelete, Object: "missing"}},
		"range past the end":  {{Kind: OpPut, Object: "o", Size: 10}, {Kind: OpRange, Object: "o", Off: 5, Len: 6}},
		"bad member":          {{Kind: OpFail, Node: 99}},
		"unknown op":          {{Kind: OpKind(42)}},
	} {
		if _, err := Replay(context.Background(), c.Gateway, c, Workload{Ops: ops}, 1); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}
