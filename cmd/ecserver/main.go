// Command ecserver is the networked erasure-coded object daemon: an HTTP
// object store that stripes every uploaded object across distinct failure
// domains through the gemmec streaming pipeline, serves reads with
// transparent degraded-read reconstruction when shards are missing or
// corrupt, and runs a background scrubber that heals damage on a jittered
// interval.
//
// Start a 6-node store and exercise a failure:
//
//	ecserver -addr :8080 -root /var/lib/ecserver -nodes 6 -k 4 -r 2
//	eccli put -server http://localhost:8080 -name big.bin -in big.bin
//	rm -r /var/lib/ecserver/node_002            # lose a failure domain
//	eccli get -server http://localhost:8080 -name big.bin -out restored.bin
//	                                            # degraded read, bytes intact
//	curl -X POST http://localhost:8080/scrub    # or wait for the scrubber
//
// Endpoints: PUT/GET/HEAD/PATCH/DELETE /o/<name>, GET /objects, POST
// /scrub, GET /statusz, GET /healthz (503 when the scrub loop is wedged),
// GET /metricsz (Prometheus text format), GET /tracez. SIGINT/SIGTERM
// drain in-flight requests and the in-flight scrub sweep before exiting.
//
// Cluster mode (-peers or -peers-file) turns N ecserver processes into
// one erasure-coded cluster of real networked peers: every process
// stores individual shards for the ring (the /internal/ shard-transfer
// API, authenticated by -cluster-secret) and any of them serves as a
// client-facing gateway, striping each object's k+r shards across
// distinct members. Writes commit on a k+(-write-quorum) shard-ack
// quorum and are abandoned cleanly otherwise; reads fetch surviving
// shards from live peers and reconstruct transparently; a lost member is
// restored with -rebuild-node (or POST /rebuild/{id}). A three-peer
// walkthrough lives in the README's Cluster section. Both modes run the
// same serving path; they differ in the backend behind it and the
// /internal/ mount. A flag only one mode honours (-nodes, -slab-*,
// -shard-read-timeout for a single node;
// -peer-id, -cluster-secret, -write-quorum, -rebuild-node for a cluster)
// set explicitly in the other mode is an error (exit 2).
//
// Observability: every request gets an X-Gemmec-Request-Id and a JSON
// access-log line on stderr (silence with -access-log=false or redirect
// with -access-log-file); requests slower than -slow-request are called
// out; 1 in -trace-sample requests (plus every errored or slow one) is
// recorded as a span waterfall in the /tracez flight recorder, with
// cross-peer spans merged in over X-Gemmec-Trace in cluster mode;
// -debug-addr starts a second listener carrying net/http/pprof — kept
// off the data-plane address so profiling endpoints are never reachable
// from the object port.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gemmec"
	"gemmec/internal/obs"
	"gemmec/internal/peer"
	"gemmec/internal/server"
)

// backend is what the serving path needs of a Store or a Gateway.
type backend interface {
	server.Backend
	SetMetrics(*server.Metrics)
	Counters() server.Stats
	Close()
}

// clusterOnly maps every flag only one mode honours to whether that mode
// is cluster mode.
var clusterOnly = map[string]bool{
	"peer-id": true, "cluster-secret": true, "write-quorum": true, "rebuild-node": true,
	"nodes": false, "slab-threshold": false, "slab-window": false, "slab-max-bytes": false,
	"shard-read-timeout": false,
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	root := flag.String("root", "ecserver-data", "storage root (node directories + metadata, or this member's shard store, live here)")
	nodes := flag.Int("nodes", 6, "number of node directories (failure domains), >= k+r")
	k := flag.Int("k", 4, "data shards per stripe")
	r := flag.Int("r", 2, "parity shards per stripe")
	unit := flag.Int("unit", gemmec.DefaultUnitSize, "shard unit size in bytes")
	workers := flag.Int("workers", 0,
		"size of the shared encode/decode worker pool every request's stripe work runs on (0 = GOMAXPROCS, capped at 8)")
	maxQueue := flag.Int("max-queue", 0,
		"max concurrently admitted streaming requests; past it PUT/GET are shed with 429 + Retry-After (0 = unbounded)")
	slabThreshold := flag.Int64("slab-threshold", 0,
		"pack PUTs at or below this many bytes into shared group-committed slabs instead of per-object shard sets (0 disables)")
	slabWindow := flag.Duration("slab-window", 0,
		"max latency a small PUT waits for its slab batch to commit (0 = 2ms)")
	slabMaxBytes := flag.Int64("slab-max-bytes", 0,
		"commit a slab batch early once its payload reaches this many bytes (0 = 4MiB)")
	scrubEvery := flag.Duration("scrub-interval", time.Minute,
		"target interval between background scrub sweeps, jittered +/-50% (0 disables the scrubber)")
	drain := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	debugAddr := flag.String("debug-addr", "",
		"listen address for the debug mux (net/http/pprof); empty disables it")
	slowReq := flag.Duration("slow-request", time.Second,
		"log and count requests slower than this (0 disables the check)")
	traceSample := flag.Int("trace-sample", 16,
		"head-sample 1 in N requests into the /tracez flight recorder; errored and slow requests are always kept (0 disables head sampling)")
	traceRing := flag.Int("trace-ring", 512,
		"how many finished request traces the /tracez flight recorder retains")
	accessLog := flag.Bool("access-log", true, "emit one JSON access-log line per request")
	accessLogFile := flag.String("access-log-file", "",
		"append access-log lines to this file instead of stderr")
	reqTimeout := flag.Duration("request-timeout", 0,
		"per-request deadline: cancel any request (and its encode/decode pipeline) running longer than this (0 disables)")
	maxObject := flag.Int64("max-object-size", 0,
		"reject PUT bodies larger than this many bytes with 413 (0 = unlimited)")
	shardReadTimeout := flag.Duration("shard-read-timeout", 0,
		"per-shard read deadline during GETs: a shard stalling past this is demoted and the read completes degraded (0 disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second,
		"how long a connection may take to send its request headers (slowloris guard; 0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute,
		"how long an idle keep-alive connection is held open (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 0,
		"hard cap on writing one whole response; 0 (default) leaves large streaming GETs unbounded — prefer -request-timeout")
	peers := flag.String("peers", "",
		"cluster membership as id=url pairs (\"0=http://a:8080,1=http://b:8080,...\"); enables cluster mode")
	peersFile := flag.String("peers-file", "",
		"file with one id=url member per line (# comments); enables cluster mode")
	peerID := flag.Int("peer-id", -1, "this process's member id in the cluster (required with -peers/-peers-file)")
	clusterSecret := flag.String("cluster-secret", "",
		"shared secret authenticating the internal peer API (empty disables auth — trusted networks only)")
	writeQuorum := flag.Int("write-quorum", 1,
		"q in the k+q shard acks a cluster PUT needs to commit (clamped to [0, r])")
	rebuildNode := flag.Int("rebuild-node", -1,
		"rebuild every shard this member id should hold, print the stats, and exit (cluster mode only; runs as a coordinator over HTTP — -root is not used)")
	flag.Parse()

	cluster := *peers != "" || *peersFile != ""
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if only, ok := clusterOnly[f.Name]; ok && only != cluster {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		mode := "single-node mode"
		if cluster {
			mode = "cluster mode (-peers/-peers-file)"
		}
		sort.Strings(ignored)
		fmt.Fprintf(os.Stderr, "ecserver: %s not honoured in %s\n", strings.Join(ignored, ", "), mode)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	var (
		b       backend
		ps      *server.PeerStore // cluster mode: this member's shard store
		peerAPI http.Handler      // cluster mode: its /internal/ API
		labels  = []obs.Label{obs.L("mode", "single")}
	)
	if cluster {
		ring, err := loadRing(*peers, *peersFile, *peerID)
		if err != nil {
			logger.Fatalf("ecserver: %v", err)
		}
		if *clusterSecret == "" {
			logger.Printf("ecserver: WARNING: cluster mode without -cluster-secret — the internal peer API is unauthenticated")
		}
		// A one-shot rebuild (-rebuild-node) is a coordinator, not a member:
		// it owns no shard data, so every member — including the one named
		// by -peer-id — is reached over HTTP and -root is never opened. A
		// serving process short-circuits its own member through the local
		// store.
		transports := make(map[int]peer.Transport, ring.Len())
		if *rebuildNode < 0 {
			if ps, err = server.OpenPeerStore(*root); err != nil {
				logger.Fatalf("ecserver: %v", err)
			}
			transports[*peerID] = server.NewLocalTransport(ps)
			peerAPI = server.NewPeerAPI(ps, *clusterSecret, logger.Printf)
		}
		for _, m := range ring.Members() {
			if transports[m.ID] == nil {
				c := peer.NewClient(m, peer.ClientConfig{Secret: *clusterSecret})
				defer c.Close()
				transports[m.ID] = c
			}
		}
		gw, err := server.NewGateway(server.GatewayConfig{
			Ring: ring, Transports: transports, SelfID: *peerID,
			K: *k, R: *r, UnitSize: *unit, Workers: *workers, MaxStreams: *maxQueue,
			WriteQuorum: *writeQuorum, Logf: logger.Printf,
		})
		if err != nil {
			logger.Fatalf("ecserver: %v", err)
		}
		if *rebuildNode >= 0 {
			rebuild(logger, gw, *rebuildNode, ring.Len())
			gw.Close()
			return
		}
		b = gw
		labels = []obs.Label{obs.L("mode", "cluster"), obs.L("member", strconv.Itoa(*peerID))}
		logger.Printf("ecserver: cluster member %d (of %d) gateway on %s (k=%d r=%d unit=%d, write quorum k+%d)",
			*peerID, ring.Len(), *addr, *k, *r, *unit, *writeQuorum)
	} else {
		store, err := server.Open(server.StoreConfig{
			Root: *root, Nodes: *nodes, K: *k, R: *r, UnitSize: *unit,
			Workers: *workers, MaxStreams: *maxQueue,
			SlabThreshold: *slabThreshold, SlabWindow: *slabWindow, SlabMaxBytes: *slabMaxBytes,
			ShardReadTimeout: *shardReadTimeout,
		})
		if err != nil {
			logger.Fatalf("ecserver: %v", err)
		}
		b = store
		logger.Printf("ecserver: serving %s on %s (k=%d r=%d unit=%d, %d node dirs)",
			*root, *addr, *k, *r, *unit, *nodes)
	}
	defer b.Close()

	metrics := server.NewMetrics(nil)
	b.SetMetrics(metrics)
	obs.RegisterBuildInfo(metrics.Registry, append(labels,
		obs.L("k", strconv.Itoa(*k)), obs.L("r", strconv.Itoa(*r)), obs.L("unit", strconv.Itoa(*unit)))...)
	tracer := obs.NewRecorder(obs.RecorderConfig{
		Capacity:    *traceRing,
		SampleEvery: *traceSample,
		Slow:        *slowReq,
	})

	var scrubber *server.Scrubber
	if *scrubEvery > 0 {
		scrubber = server.StartScrubber(b, *scrubEvery, logger.Printf)
		logger.Printf("ecserver: background scrubber every ~%v (jittered)", *scrubEvery)
	}

	hcfg := server.Config{
		Logf:                 logger.Printf,
		Metrics:              metrics,
		Tracer:               tracer,
		Scrubber:             scrubber,
		SlowRequestThreshold: *slowReq,
		RequestTimeout:       *reqTimeout,
		MaxObjectSize:        *maxObject,
	}
	if *accessLog {
		dst := os.Stderr
		if *accessLogFile != "" {
			f, err := os.OpenFile(*accessLogFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				logger.Fatalf("ecserver: %v", err)
			}
			defer f.Close()
			dst = f
		}
		hcfg.AccessLog = obs.NewLogger(dst)
	}

	if *debugAddr != "" {
		// pprof lives on its own mux and listener: the DefaultServeMux
		// registrations net/http/pprof does at init are deliberately not
		// served, so the data-plane port never exposes profiling.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/metricsz", metrics.Registry.Handler())
		dbg.Handle("/tracez", tracer.Handler())
		go func() {
			logger.Printf("ecserver: debug mux (pprof, metricsz, tracez) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Printf("ecserver: debug mux: %v", err)
			}
		}()
	}

	// One listener: the client object API, and in cluster mode the peer API
	// under /internal/ (other members' shard traffic).
	handler := server.NewBackendHandler(b, hcfg)
	if peerAPI != nil {
		mux := http.NewServeMux()
		mux.Handle("/internal/", peerAPI)
		mux.Handle("/", handler)
		handler = mux
	}
	// baseCtx is the ancestor of every request context; canceling it at
	// drain-deadline time makes still-running pipelines stop between
	// stripes instead of racing srv.Close's connection teardown.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slowloris guard: a connection that trickles its headers cannot
		// pin a goroutine forever. WriteTimeout defaults to 0 because it
		// would cap whole streaming GETs regardless of progress; the
		// per-request deadline (-request-timeout) is the progress-aware
		// bound.
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
		WriteTimeout:      *writeTimeout,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Fatalf("ecserver: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish in-flight requests, then let
	// any in-flight scrub sweep complete so no shard is left half-healed.
	// If the drain deadline passes, cancel the base context — every
	// in-flight request's pipeline stops between stripes and cleans up —
	// and close whatever connections remain.
	logger.Printf("ecserver: shutting down, draining in-flight requests (timeout %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("ecserver: drain incomplete (%v), canceling in-flight requests", err)
		cancelBase()
		srv.Close()
	}
	if scrubber != nil {
		scrubber.Stop()
	}
	// Counters, not Stats: counting objects would list the catalog, across
	// peers that may be shutting down too.
	st := b.Counters()
	line := fmt.Sprintf("%d puts, %d gets (%d degraded), %d shards healed",
		st.Puts, st.Gets, st.DegradedGets, st.ShardsHealed)
	if ps != nil {
		pst := ps.Stats()
		line += fmt.Sprintf("; member %d: %d quorum failures, %d shard puts, %d shard gets",
			*peerID, st.QuorumFailures, pst.ShardPuts, pst.ShardGets)
	}
	fmt.Fprintf(os.Stderr, "ecserver: exiting — %s\n", line)
}

// loadRing builds the ring from -peers-file, or else -peers, and checks
// that self is in it.
func loadRing(peers, peersFile string, self int) (*peer.Ring, error) {
	members, err := peer.ParseMembers(peers)
	if peersFile != "" {
		members, err = peer.LoadMembers(peersFile)
	}
	if err != nil {
		return nil, err
	}
	ring, err := peer.NewRing(members)
	if err != nil {
		return nil, err
	}
	if _, ok := ring.Member(self); !ok {
		return nil, fmt.Errorf("-peer-id %d is not in the membership (have %d members)", self, ring.Len())
	}
	return ring, nil
}

// rebuild is -rebuild-node: reconstruct every shard member id should hold,
// push them to its current address, print the stats and exit non-zero if
// any object was left unrepaired.
func rebuild(logger *log.Logger, gw *server.Gateway, id, members int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("ecserver: rebuilding member %d across %d members...", id, members)
	st, err := gw.RebuildNode(ctx, id)
	if err != nil {
		logger.Fatalf("ecserver: rebuild: %v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck
	logger.Printf("ecserver: rebuilt %d shard(s) across %d object(s): %d bytes read, %d written (amplification %.2f)",
		st.ShardsRebuilt, st.Objects, st.BytesRead, st.BytesWritten, st.Amplification())
	if len(st.Errors) > 0 {
		logger.Fatalf("ecserver: rebuild left %d object(s) unrepaired", len(st.Errors))
	}
}
