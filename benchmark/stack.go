package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gemmec/internal/obs"
	"gemmec/internal/peer"
	"gemmec/internal/server"
	"gemmec/internal/vfs"
)

// The fixed configuration of every workload: cmd/ecserver's defaults. Two
// stated departures, both for repeatability: the serving-loop tuner is off
// (TuneTrials 0 — an idle-gated executor swap in the middle of a run is
// noise, so every number is on the boot schedule) and no Scrubber runs.
const (
	codeK       = 4
	codeR       = 2
	unitSize    = 128 << 10 // the paper's unit size; one stripe = 512 KiB of data
	nodeDirs    = 6
	peerCount   = 6
	writeQuorum = 1
	traceSample = 16 // the daemon's own /tracez head sampling, as ecserver ships it
	traceRing   = 512
	slowRequest = time.Second

	stripeBytes   = codeK * unitSize
	clusterSecret = "ladder-benchmark"
)

// stack is one daemon started in process: a Store (or a Gateway over six
// PeerStores) behind the daemon's HTTP handler on a loopback listener.
type stack struct {
	root    string
	url     string // object API base, "http://127.0.0.1:port"
	backend server.Backend

	store *server.Store // single-node stacks

	gateway *server.Gateway // cluster stacks
	peers   []*server.PeerStore
	clients []*peer.Client

	closers []func() // run in reverse by close
}

// listen serves h on a fresh loopback port and returns its base URL; the
// server is shut down, and its Serve goroutine waited for, by close.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	s.closers = append(s.closers, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// handlerConfig is ecserver's handler wiring minus the access log.
func handlerConfig(m *server.Metrics) server.Config {
	return server.Config{
		Metrics:              m,
		Tracer:               obs.NewRecorder(obs.RecorderConfig{Capacity: traceRing, SampleEvery: traceSample, Slow: slowRequest}),
		SlowRequestThreshold: slowRequest,
	}
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// openNodeStack starts the single-node daemon on root. rec == nil builds
// it exactly as ecserver does; otherwise every seam carries a wrapper.
func openNodeStack(root string, slabThreshold int64, rec *recorder) (*stack, error) {
	s := &stack{root: root}
	cfg := server.StoreConfig{
		Root: root, Nodes: nodeDirs, K: codeK, R: codeR, UnitSize: unitSize,
		SlabThreshold: slabThreshold,
	}
	if rec != nil {
		cfg.FS = &tracedFS{inner: vfs.OS, rec: rec}
	}
	store, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	s.store, s.backend = store, store
	s.closers = append(s.closers, store.Close)
	metrics := server.NewMetrics(nil)
	store.SetMetrics(metrics)

	var h http.Handler
	if rec == nil {
		h = server.NewHandler(store, handlerConfig(metrics))
	} else {
		h = &tracedHandler{rec: rec, layer: layerHTTP, inner: server.NewBackendHandler(
			&tracedBackend{inner: store, rec: rec, layer: layerStore}, handlerConfig(metrics))}
	}
	if s.url, err = s.listen(h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// openClusterStack starts six peers, each a PeerStore behind the internal
// peer API on its own loopback listener, and member 0's Gateway — local
// transport to itself, five HTTP peer clients — behind the object API,
// the way six `ecserver -peers ...` processes would be wired.
func openClusterStack(root string, rec *recorder) (*stack, error) {
	s := &stack{root: root}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	members := make([]peer.Member, peerCount)
	front := http.NewServeMux() // member 0 serves both roles on one listener
	for i := range members {
		ps, err := server.OpenPeerStore(filepath.Join(root, fmt.Sprintf("peer%d", i)))
		if err != nil {
			return fail(err)
		}
		s.peers = append(s.peers, ps)
		var api http.Handler = server.NewPeerAPI(ps, clusterSecret, nil)
		if rec != nil {
			api = &tracedHandler{inner: api, rec: rec, layer: layerPeerAPI}
		}
		if i == 0 {
			front.Handle("/internal/", api)
			continue
		}
		addr, err := s.listen(api)
		if err != nil {
			return fail(err)
		}
		members[i] = peer.Member{ID: i, Addr: addr}
	}
	frontURL, err := s.listen(front)
	if err != nil {
		return fail(err)
	}
	members[0] = peer.Member{ID: 0, Addr: frontURL}
	s.url = frontURL

	ring, err := peer.NewRing(members)
	if err != nil {
		return fail(err)
	}
	transports := make(map[int]peer.Transport, peerCount)
	for i, m := range members {
		var t peer.Transport
		if i == 0 {
			t = server.NewLocalTransport(s.peers[0])
		} else {
			c := peer.NewClient(m, peer.ClientConfig{Secret: clusterSecret})
			s.clients = append(s.clients, c)
			s.closers = append(s.closers, c.Close)
			t = c
		}
		if rec != nil {
			t = &tracedTransport{inner: t, rec: rec}
		}
		transports[i] = t
	}
	gw, err := server.NewGateway(server.GatewayConfig{
		Ring: ring, Transports: transports, SelfID: 0,
		K: codeK, R: codeR, UnitSize: unitSize, WriteQuorum: writeQuorum,
	})
	if err != nil {
		return fail(err)
	}
	s.gateway, s.backend = gw, gw
	s.closers = append(s.closers, gw.Close)
	metrics := server.NewMetrics(nil)
	gw.SetMetrics(metrics)
	if rec == nil {
		front.Handle("/", server.NewBackendHandler(gw, handlerConfig(metrics)))
	} else {
		front.Handle("/", &tracedHandler{rec: rec, layer: layerHTTP, inner: server.NewBackendHandler(
			&tracedBackend{inner: gw, rec: rec, layer: layerGateway}, handlerConfig(metrics))})
	}
	return s, nil
}

// diskBytes sums the sizes of the regular files under root.
func diskBytes(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // a file committed or removed while we walked
			}
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
