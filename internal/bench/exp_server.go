package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"gemmec/internal/server"
)

func init() {
	register(Experiment{
		ID:    "server",
		Paper: "§8 \"integrate into real storage systems\": the daemon path (HTTP + disk + pipeline)",
		Title: "ecserver daemon: put/get/degraded-get throughput through the full HTTP stack",
		Run:   runServer,
	})
}

// runServer stands up a real internal/server store behind httptest (the
// exact handler cmd/ecserver serves) and measures end-to-end object
// throughput: streaming PUT, clean GET, degraded GET with one and two node
// directories destroyed (the latter is the r=2 worst case, reconstructing
// every stripe), and GET again after a scrub sweep heals the damage. Unlike
// E-CLUSTER this path pays for everything the paper's integration argument
// is about: HTTP framing, shard files on disk, per-unit CRC32C
// verification, and the pipelined kernel.
func runServer(w io.Writer, cfg Config) error {
	const (
		k, r    = 4, 2
		nodes   = k + r // each node dir holds exactly one shard per object
		stripes = 16
	)
	root, err := os.MkdirTemp("", "gemmec-bench-server")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	store, err := server.Open(server.StoreConfig{
		Root: root, Nodes: nodes, K: k, R: r, UnitSize: cfg.UnitSize,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	ts := httptest.NewServer(server.NewHandler(store, server.Config{}))
	defer ts.Close()
	url := ts.URL + "/o/bench-object"

	payload := RandomBytes(cfg.Seed, stripes*k*cfg.UnitSize)
	wantSum := sha256.Sum256(payload)

	put := func() error {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.ContentLength = int64(len(payload))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("put: status %s", resp.Status)
		}
		return nil
	}
	get := func(verify bool) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("get: status %s", resp.Status)
		}
		if verify {
			h := sha256.New()
			if _, err := io.Copy(h, resp.Body); err != nil {
				return err
			}
			if !bytes.Equal(h.Sum(nil), wantSum[:]) {
				return fmt.Errorf("get: payload checksum mismatch")
			}
			return nil
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}

	t := NewTable(fmt.Sprintf("E-SERVER: ecserver daemon over HTTP (k=%d, r=%d, %d node dirs, %d B object)",
		k, r, nodes, len(payload)),
		"operation", "GB/s", "per-op")
	row := func(m Measurement) { t.AddF(m.Name, fmt.Sprintf("%.2f", m.GBps()), m.PerOp().String()) }

	m, err := Measure("put (streaming encode)", len(payload), cfg.MinTime, put)
	if err != nil {
		return err
	}
	row(m)
	if m, err = Measure("get (clean)", len(payload), cfg.MinTime, func() error { return get(false) }); err != nil {
		return err
	}
	row(m)

	// Destroy failure domains. Every node holds one shard of the object, so
	// killing the node dirs of shards 0 and 1 costs two data shards — the
	// r=2 worst case, forcing reconstruction of every stripe.
	meta, err := store.Stat("bench-object")
	if err != nil {
		return err
	}
	for down := 1; down <= r; down++ {
		node := meta.Placement[down-1]
		if err := os.RemoveAll(filepath.Join(root, fmt.Sprintf("node_%03d", node))); err != nil {
			return err
		}
		if err := get(true); err != nil { // degraded bytes must still be exact
			return err
		}
		name := fmt.Sprintf("get (degraded, %d node dir(s) down)", down)
		if m, err = Measure(name, len(payload), cfg.MinTime, func() error { return get(false) }); err != nil {
			return err
		}
		row(m)
	}

	rep := store.ScrubAll(context.Background())
	if got := rep.ShardsHealed(); got != r {
		return fmt.Errorf("server: scrub healed %d shards, want %d", got, r)
	}
	if second := store.ScrubAll(context.Background()); !second.Clean() {
		return fmt.Errorf("server: sweep after heal not clean: %+v", second)
	}
	if m, err = Measure(fmt.Sprintf("get (after scrub healed %d shards)", rep.ShardsHealed()),
		len(payload), cfg.MinTime, func() error { return get(false) }); err != nil {
		return err
	}
	row(m)
	return t.Fprint(w)
}
