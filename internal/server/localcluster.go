package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"gemmec/internal/peer"
)

// LocalCluster is a whole cluster in one process: a Gateway over n
// members, each a PeerStore directory under root reached through a
// FaultTransport-wrapped local transport. It is the shipping Gateway,
// PeerStore and placement with only the socket left out — what
// E-WORKLOAD, the trace replayer, the objectstore example and the
// deterministic fault tests drive (the wire itself is covered by the
// httptest-peer tests and the ladder's cluster_large workload).
type LocalCluster struct {
	Gateway *Gateway
	Stores  []*PeerStore           // by member ID
	faults  []*peer.FaultTransport // by member ID
}

// NewLocalCluster assembles n members under root. cfg supplies geometry,
// quorum and sizing; its Ring, Transports and SelfID are filled in here.
func NewLocalCluster(root string, n int, cfg GatewayConfig) (*LocalCluster, error) {
	c := &LocalCluster{}
	members := make([]peer.Member, n)
	cfg.Transports = make(map[int]peer.Transport, n)
	for i := range members {
		ps, err := OpenPeerStore(filepath.Join(root, fmt.Sprintf("peer%d", i)))
		if err != nil {
			return nil, err
		}
		ft := peer.NewFaultTransport(NewLocalTransport(ps))
		c.Stores = append(c.Stores, ps)
		c.faults = append(c.faults, ft)
		cfg.Transports[i] = ft
		members[i] = peer.Member{ID: i, Addr: fmt.Sprintf("http://member-%d", i)}
	}
	var err error
	if cfg.Ring, err = peer.NewRing(members); err != nil {
		return nil, err
	}
	cfg.SelfID = 0
	if c.Gateway, err = NewGateway(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Close stops the gateway.
func (c *LocalCluster) Close() { c.Gateway.Close() }

// Fail partitions member id: every call to it fails as unreachable until
// Rebuild brings it back. What it stores stays on disk.
func (c *LocalCluster) Fail(id int) error {
	if id < 0 || id >= len(c.faults) {
		return fmt.Errorf("server: member %d not in the cluster", id)
	}
	c.faults[id].Partition()
	return nil
}

// Rebuild replaces member id with an empty machine at the same ID — its
// directory is wiped and the partition healed — and has the gateway
// restore everything placement assigns it.
func (c *LocalCluster) Rebuild(ctx context.Context, id int) (RebuildStats, error) {
	if id < 0 || id >= len(c.Stores) {
		return RebuildStats{}, fmt.Errorf("server: member %d not in the cluster", id)
	}
	// PeerStore recreates its directories on the next write.
	if err := os.RemoveAll(c.Stores[id].root); err != nil {
		return RebuildStats{}, err
	}
	c.faults[id].Heal()
	return c.Gateway.RebuildNode(ctx, id)
}
