// Objectstore demonstrates an erasure-coded object store on the cluster
// path that ships: a server.Gateway over nine in-process members
// (server.NewLocalCluster — PeerStore directories under a temp root, no
// sockets) stripes objects with a (6+3, 6) code, members fail, reads
// degrade transparently to on-the-fly reconstruction, and replaced
// members are rebuilt with the repair traffic accounted by the gateway's
// own RebuildStats — the deployment pattern of Azure/HDFS-style
// erasure-coded storage that §2 of the paper cites as the motivation for
// fast encoding. cmd/ecserver runs the same Gateway over real peers.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"gemmec/internal/server"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nodes    = 9
		k, r     = 6, 3
		unitSize = 64 << 10
	)
	ctx := context.Background()
	root, err := os.MkdirTemp("", "gemmec-objectstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	c, err := server.NewLocalCluster(root, nodes, server.GatewayConfig{K: k, R: r, UnitSize: unitSize})
	if err != nil {
		return err
	}
	defer c.Close()
	gw := c.Gateway
	rng := rand.New(rand.NewSource(7))

	// get reads name back and checks it against want.
	get := func(name string, want []byte) (degraded bool, err error) {
		o, err := gw.Open(ctx, name)
		if err != nil {
			return false, err
		}
		defer o.Close()
		var got bytes.Buffer
		if _, err := o.Stream(&got); err != nil {
			return false, err
		}
		if !bytes.Equal(got.Bytes(), want) {
			return false, fmt.Errorf("object %s read back wrong", name)
		}
		return o.Degraded(), nil
	}

	// Ingest objects of assorted sizes.
	objects := map[string][]byte{}
	for i, size := range []int{100, unitSize * k, unitSize*k*2 + 777, 3 << 20} {
		name := fmt.Sprintf("obj-%d", i)
		data := make([]byte, size)
		rng.Read(data)
		objects[name] = data
		if _, _, err := gw.Put(ctx, name, bytes.NewReader(data), int64(size)); err != nil {
			return err
		}
		fmt.Printf("put %s: %d bytes\n", name, size)
	}

	// Fail r members — the worst any stripe tolerates.
	failed := []int{1, 4, 7}
	for _, id := range failed {
		if err := c.Fail(id); err != nil {
			return err
		}
		fmt.Printf("member %d failed\n", id)
	}

	// Degraded reads must still return correct data.
	for name, want := range objects {
		degraded, err := get(name, want)
		if err != nil {
			return err
		}
		fmt.Printf("get %s: ok (degraded=%v)\n", name, degraded)
	}

	// Replace and rebuild each failed member, accounting repair traffic.
	for _, id := range failed {
		st, err := c.Rebuild(ctx, id)
		if err != nil {
			return err
		}
		if len(st.Errors) > 0 {
			return fmt.Errorf("member %d: rebuild left objects unrepaired: %v", id, st.Errors)
		}
		fmt.Printf("member %d rebuilt: %d shards, read %.1f MB from peers, wrote %.1f MB (%.0fx amplification)\n",
			id, st.ShardsRebuilt, float64(st.BytesRead)/1e6, float64(st.BytesWritten)/1e6, st.Amplification())
	}

	// Cluster-wide scrub: nothing left to heal, and reads are clean again.
	rep := gw.ScrubAll(ctx)
	if !rep.Clean() {
		return fmt.Errorf("scrub after rebuild: healed %v, errors %v", rep.Healed, rep.Errors)
	}
	if degraded, err := get("obj-3", objects["obj-3"]); err != nil || degraded {
		return fmt.Errorf("reads not clean after rebuild (degraded=%v, err=%v)", degraded, err)
	}
	fmt.Printf("cluster healthy: %d objects scrubbed clean, reads no longer degraded\n", rep.Objects)
	return nil
}
