# gemmec build/test entry points. Everything is plain `go` underneath;
# `make ci` is the full gate the repository must pass.

GO ?= go

.PHONY: all build vet cross fmt nodeprecated norefs test race race-hot stress-fault stress-load stress-cluster stress-obs stress-range fuzz-smoke bench bench-json bench-smoke ladder-smoke loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Build tags keep the writeback hint (sync_file_range) to the Linux
# targets whose syscall package has it, and the bench harness's CPU clock
# to getrusage (Unix) or GetProcessTimes (Windows); the tree must still
# build where they differ: macOS, 32-bit arm Linux and Windows.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=arm $(GO) build ./...
	GOOS=windows $(GO) build ./...

# gofmt must have nothing to say about the tree (benchmark/ is a separate
# module, frozen to all but [benchmark] PRs).
fmt:
	@out=$$(gofmt -l . | grep -v '^benchmark/'); \
		if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# No shims for users that do not exist: a non-test source file outside the
# frozen benchmark/ module may not carry a `// Deprecated:` marker — what is
# deprecated here is deleted, with its compat test, in the same PR.
nodeprecated:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '^[[:space:]]*// Deprecated:' . || true); \
		if [ -n "$$out" ]; then echo "deprecated API left in the tree:"; echo "$$out"; exit 1; fi

# ROADMAP items are cited by title, not number, in the source and in the
# documents that describe the current tree: a renumbering would silently
# point every numbered reference at another item. Of the documents at the
# root only NOREFS_DOCS are checked; ROADMAP.md and the change logs may
# number items. The frozen benchmark/ module is left out until a
# [benchmark] PR can edit it.
NOREFS_DOCS = README.md DESIGN.md EXPERIMENTS.md PAPER.md PAPERS.md SNIPPETS.md
norefs:
	@out=$$(find . \( -path ./.git -o -path ./.bench_build -o -path ./benchmark \) -prune -o \
		-type f ! -regex '\./[^/]*\.md' -print0 | \
		xargs -0 grep -n 'ROADMAP item [0-9]' $(NOREFS_DOCS) /dev/null || true); \
		if [ -n "$$out" ]; then echo "numbered ROADMAP references (cite the item's title):"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The packages with real lock/goroutine traffic (the daemon's concurrent
# PUT/GET/scrub paths, the stripe loop and the scheduler it queues on, the
# shard-file encode whose kernel tasks write units and stripe sums from
# several workers at once, the kernel whose parallel schedules write the
# caller's unit slices from several goroutines, the engine's shared
# decoder cache, and the root package's stream tests, which drive that
# loop through the public API in both modes) get a -race pass on every CI
# run; `make race` remains the full-tree version.
race-hot:
	$(GO) test -race ./internal/server ./internal/pipeline ./internal/sched ./internal/tuned ./internal/shardfile ./internal/te ./internal/core
	$(GO) test -race -run 'Stream|Scheduler' .

# Short seeded fault/cancellation stress: the faultfs-driven tests (injected
# errors, stalls, torn writes), the client-disconnect/timeout e2e tests and
# the Put/Delete lock storm, run twice under -race. Fault firing is
# deterministic per seed, so a failure here replays locally byte for byte.
stress-fault:
	$(GO) test -race -count=2 -run 'Fault|Stall|Torn|Cancel|Disconnect|Timeout|LockRace|MaxObjectSize|DeadContext' \
		./internal/faultfs ./internal/shardfile ./internal/server .

# Seeded heavy-traffic stress under -race: the shared scheduler's
# fairness/shutdown paths, admission-control 429s, slab pack/unpack through
# degraded reads and scrub, slow-GET vs PUT starvation, and the bounded
# goroutine guarantee. Deterministic inputs, so failures replay locally.
# The slab pack/unpin/reclaim drills then run 200 times without -race: a
# slab pin that outlives its batch's last PUT, or a sweep that reclaims a
# slab whose members are still committing, loses a run in hundreds, which
# two runs rarely catch.
stress-load:
	$(GO) test -race -count=2 -run 'Sched|Queue|Admission|Slab|Starve|BoundedGoroutines|Scheduler|Overload' \
		./internal/sched ./internal/server .
	$(GO) test -count=200 -run 'TestSlabPackUnpack|TestSlabUnpinnedWhenBatchReturns|TestSlabReclaimRace' ./internal/server

# Seeded multi-peer cluster drill under -race: quorum writes abandoned
# cleanly across a partition fired mid-PUT (no committed metadata, no
# orphaned shards), slow/torn peers demoted mid-stream, degraded reads
# over real peer HTTP, majority metadata reads (n/2+1 asks, one more per
# silent member, stale replicas outranked), clean reads that ask no
# member they do not read, and rebuild-to-empty-node byte-identity — plus the
# admission-control 429 guarantee in gateway mode, and the seeded trace
# replays (internal/trace: put/get/range/delete under member churn on the
# Gateway and on the Store, every read checked against a shadow copy) —
# and the PeerStore's recycled shard files: a reader opened before its
# shard's delete reads the old bytes to the end, and racing uploads into
# pooled files still end with one first-writer winner, and an upload's
# writeback windows are queued while it streams, ahead of the unchanged
# file fsync → link → directory fsync.
# Fault injection is deterministic (FaultTransport rules, seeded
# payloads), so a failure here replays locally byte for byte.
stress-cluster:
	$(GO) test -race -count=2 -run 'TestCluster|TestQuorum|TestTorn|TestGateway|TestPeerAPIAuth|TestPeerStore|TestFault|TestPlacement|TestDelete|TestReadMeta|TestPutShard|TestReplay' \
		./internal/server ./internal/peer ./internal/trace

# Observability drill under -race: the flight recorder's concurrent
# scrape-vs-finish paths, tail-retention and wire round-trip properties,
# cross-peer trace propagation through a real 3-peer HTTP cluster, and
# the member-labeled peer metrics fed by the client observer hooks.
stress-obs:
	$(GO) test -race -count=2 -run 'Trace|Tracez|Span|Waterfall|Retention|RingEviction|PeerMetrics|WireRoundTrip|NilSafety' \
		./internal/obs ./internal/server ./internal/peer

# Range/patch drill under -race: the read plan — random geometries,
# windows and faults against the payload, its I/O shape through a counting
# filesystem, the gateway's per-member fetch counts — windowed decodes at
# every boundary class (healthy, degraded, slab members, adversarial
# bounds), the HTTP Range surface (206/200/416 taxonomy), and the PATCH
# commit protocol — in-place XOR parity updates crosschecked
# byte-identical against full re-encodes, crash-injected journal replay,
# stale-journal discard, and the cluster's read-modify-write fallback.
stress-range:
	$(GO) test -race -count=2 -run 'Range|Patch|ReadPlan' \
		./internal/shardfile ./internal/server

# Every fuzz target of the root package (codec and stream round trips),
# internal/gf (the fused XOR kernels against a byte-wise reference),
# internal/shardfile (manifest parser, read plan), internal/server (Range
# and PATCH positioning header parsers) and internal/obs (trace wire
# headers) for FUZZTIME each, seed corpus first: a kernel, a parser or a
# planner that a few seconds of mutation can break does not get past CI.
# `go test -fuzz` takes one target per run, hence the loop.
FUZZTIME ?= 3s
fuzz-smoke:
	@for pkg in . ./internal/gf ./internal/shardfile ./internal/server ./internal/obs; do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Machine-readable result of the one measurement the closed-loop ladder
# does not make: the heavy-traffic open-loop run — sustained RPS,
# small/large tails, shed count, goroutine bound (BENCH_load.json).
# BENCH_ARGS="-quick" shrinks it for smoke runs. Every other serving-path
# number (PUT/GET/degraded-GET latency and throughput, shard-set decode,
# range and patch, the networked cluster's gateway latency, rebuild MB/s
# and repair amplification, tracing overhead) comes from the ladder
# (`bash benchmark/run.sh --trace 1`: the end-to-end metrics and the
# store.*, http.*, shardfile.*, gateway.* and trace.overhead_frac rungs).
bench-json:
	$(GO) run ./cmd/ecbench -exp load-json -json BENCH_load.json $(BENCH_ARGS)

# Smoke pass over the bench-json experiment, the E-TUNE search-vs-grid
# table at the quick profile and the ectune CLI users pin schedules from:
# the gate is that they RUN to completion, not what numbers they print.
# Output lands in a throwaway directory so the checked-in BENCH_load.json
# stays the full-scale result from `make bench-json`.
bench-smoke:
	rm -rf .bench-smoke && mkdir -p .bench-smoke
	$(GO) run ./cmd/ecbench -exp load-json -quick -json .bench-smoke/load.json
	$(GO) run ./cmd/ecbench -exp tune -quick
	$(GO) run ./cmd/ectune -k 4 -r 2 -unit 4096 -trials 3 -log .bench-smoke/tune.jsonl
	rm -rf .bench-smoke

# The ladder benchmark (benchmark/) is its own module compiled against this
# tree's exported surface — shardfile.WriteStreamPaths/OpenStreamPaths (+
# StreamReader.Decode/DecodeRange)/ScrubPaths/PlanPatch/ApplyPatch/Opts/
# Manifest, vfs.FS/File, peer.Transport/NewClient/NewRing/NewFaultTransport,
# server.Open/NewGateway/OpenPeerStore/NewPeerAPI/NewLocalTransport,
# server.Backend/ObjectStream/RangedStream/RangeOpener/Patcher,
# server.Config/StoreConfig/GatewayConfig, server.NewHandler/
# NewBackendHandler/NewMetrics, tuned.NewRegistry/Config, core.New/Options/
# Engine.Shape/Params/CodingMatrix/ReadDecoderCacheCounters, autotune.Compile,
# te.NewBuffer/PackMask, bitmatrix.FromGF and obs.NewRecorder/
# RecorderConfig. Its harness tests run here so a change that breaks that
# surface fails CI, not the perf gate.
ladder-smoke:
	cd benchmark && $(GO) test ./...

# Non-test Go source lines per package (benchmark/ excluded): the number a
# PR claiming a simplification quotes before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# The allocation guards on the streaming hot paths (TestStreamSteadyStateAllocs,
# TestDecodeStreamSteadyStateAllocs and the full-server
# TestServerSteadyStateAllocs) run as part of `test`, so `ci` gates on the
# encode, verified-decode and daemon PUT/GET paths staying allocation-free.
ci: build vet cross fmt nodeprecated norefs test race-hot stress-fault stress-load stress-cluster stress-obs stress-range fuzz-smoke bench-smoke ladder-smoke
