GO ?= go

.PHONY: build loc vet test test-short test-race race tcp partition fuzz-wire chaos torture torture-pinned torture-faulty torture-partition fuzz bench bench-check bench-pair figures-smoke figures bench-micro bench-micro-smoke ci clean

build:
	$(GO) build ./...

# Non-test Go lines per package outside benchmark/ and examples/, then the
# total: the code-size figure simplicity changes quote before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './examples/*' ! -path './.*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); \
			if (d == "") d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# vet plus formatting: any file gofmt would rewrite fails the target (and CI).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l *.go benchmark cmd examples internal); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Full test suite, including the chaos tests (fault injection + recovery).
test:
	$(GO) test ./...

# Short mode skips the chaos tests and other long-running suites.
test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Race CI job: vet plus the short suite under the race detector. Short
# mode keeps the sampled torture sweep at 50 cases so the job stays fast,
# but skips the engine's chaos, confined-recovery, watchdog and torn-write
# tests, which restore fork state from checkpoints: those run in full on
# top (the checkpoint package already runs in full in the short suite).
# Last, three times over: the lock managers' and the GAS engine's
# batch-recycling, model and allocation tests, where the race detector is
# what would see a recycled batch still being read; and the barrierless
# termination tests (BAP, the GAS guard and latency cases), where it is
# what would see a worker's hold released while a handler still runs; and
# the message store's concurrent appliers and readers, where a replica
# store's appliers, local broadcasts and readers share unread words with no
# lock between them, and an unordered (SyncNone) store's readers overlap
# its writers and only its source locks order them; and the engine's
# SyncNone cells (frontier matrix, transport equivalence, PageRank), the
# engine runs whose replica reads overlap writes; and the mutation rebuild
# that masks a replica's added in-edges, under BSP and Async. The short
# suite's torture sweep under -race is the other check that catches a
# missing source lock.
race: vet
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 -run 'Chaos|Confined|Watchdog|Torn' ./internal/engine/
	$(GO) test -race -count=3 -run 'Recycle|ModelBatched|Alloc|BAP|MaxExecutions|Latency|SSSPMatchesReference$$|WCCMatchesReference$$|Phased|ConcurrentAppliers|MissesLastBroadcast|Frontier|TransportEquivalence|PageRankConvergesAllSyncs' ./internal/chandy/ ./internal/engine/ ./internal/gas/ ./internal/msgstore/

# Fault-injection and recovery gate: the chaos and confined-recovery /
# watchdog suites under the race detector, then a 200-case torture sweep
# restricted to crash-plan scenarios (every case schedules at least one
# worker crash; recovery mode and checkpoint cadence still vary). Runs
# nightly in CI alongside the long randomized sweep.
chaos:
	$(GO) test -race ./internal/engine/ -run 'Chaos|Confined|Watchdog|Torn' -v
	$(GO) test -race ./internal/fault/ ./internal/msgstore/ ./internal/checkpoint/
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.faulty -torture.root=0xc4a05 -timeout=20m

# Long randomized model-checking sweep (nightly). Replay one case with:
#   go test ./internal/torture -run TestTorture -torture.seed=0x...
# and stress it with -torture.repeat=N, which runs that case N times and
# reports how many of the N failed (add -race to run them under the race
# detector); a schedule-dependent failure shows as k/N with 0 < k < N.
torture:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -v -count=1 \
		-torture.n=2000 -timeout=30m

# Pinned serializability sweep: 200 cases from a fixed root seed, so every
# CI run executes the identical case list. This is the regression gate for
# the staged message paths (thread-local staging, batched remote apply);
# the nightly `torture` target still covers a larger randomized sweep.
torture-pinned:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -timeout=15m

# Crash-plan sweep (PR CI): 1000 cases from a fixed root seed, each of
# which schedules at least one worker crash, so the sweep drives in-run
# recovery (full and confined, with and without checkpoints) through every
# oracle. The nightly chaos target runs the first 200 of the same list.
torture-faulty:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=1000 -torture.faulty -torture.root=0xc4a05 -timeout=20m

# Wire-transport gate: the transport contract on both backends three times
# over (so Send/Close races get shaken on each), the cluster, codec and dist
# suites (the dist suite runs every catalog algorithm across two peers
# against its in-process answer), the cross-transport equivalence matrix
# and the real multi-process run, all under the race detector.
tcp:
	$(GO) test -race -count=3 ./internal/cluster/ -run TestTransportContract
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/wire/ ./internal/dist/
	$(GO) test -race -count=1 ./internal/engine/ -run TestTransportEquivalenceMatrix -v
	$(GO) test -race -count=1 ./cmd/graphrun/ -run TestGraphrunMultiProcess -v

# Locality-aware partitioning gate: the streaming partitioner and
# relabeling unit suites under the race detector, the partitioner
# equivalence matrix (every mode × technique × partitioner cell bitwise
# against the hash baseline), the distributed rebuild conformance cell,
# and the quality acceptance cell without the race detector (community
# graph, P = 256: balance bound, >=25% boundary-fraction and
# cross-partition byte reductions vs hash, bitwise BSP PageRank).
partition:
	$(GO) test -race -count=1 ./internal/partition/ ./internal/graph/
	$(GO) test -race -count=1 ./internal/engine/ -run TestPartitionerEquivalenceMatrix -v
	$(GO) test -race -count=1 ./internal/dist/ -run TestDistStreamingPartitioners
	$(GO) test -count=1 ./internal/engine/ -run 'TestPartitionerEquivalenceMatrix/community' -v

# Streaming-partitioner torture row (nightly): the pinned sweep rerun with
# every case forced onto LDG or Fennel placement (split by a seed bit), so
# all serializability and recovery oracles run against locality-aware maps.
torture-partition:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -torture.streampart -timeout=15m

# 30-second fuzz smoke over the frame decoder: truncated/corrupt/oversized
# frames must error, never panic or over-allocate; plus a shorter pass over
# the batched fork/token frame against its golden fixture corpus.
fuzz-wire:
	$(GO) test ./internal/wire/ -fuzz FuzzFrameDecode -fuzztime=30s -run '^$$'
	$(GO) test ./internal/wire/ -fuzz FuzzCtrlBatchFrame -fuzztime=15s -run '^$$'

# Short fuzz pass over the graph loader/symmetrize targets.
fuzz:
	$(GO) test ./internal/graph/ -fuzz FuzzEdgeListSymmetrize -fuzztime=60s

# The one fixed benchmark (BENCHMARK.json, benchmark/README.md): six
# workloads through the public entry points, every answer checked.
# Arguments pass through, e.g. `make bench ARGS="-trace 1"`.
bench:
	bash benchmark/run.sh $(ARGS)

# Smoke test of the benchmark module (its own go.mod, invisible to
# `go test ./...` at the root): tiny sizes, every workload and metric, <10s.
bench-check:
	$(GO) test -C benchmark ./...

# Paired measurement of this checkout against a base commit, the protocol a
# claimed gain needs: N alternating base/change runs of one workload with
# the order flipped every pair, both medians and quartiles, and the wins.
#   make bench-pair BASE=HEAD~1 WORKLOAD=sssp_sparse N=10 SEED=7
BASE ?= HEAD~1
WORKLOAD ?= sssp_sparse
N ?= 10
SEED ?= 1
bench-pair:
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(WORKLOAD) -n $(N) -seed $(SEED)

# The paper's figures end to end: every benchtab experiment (Table 1 to
# the ablations, recovery and partition) at full dataset scale on
# four workers, ≈ 5 s of runs. Fails on any cell whose answer misses its
# oracle and on any experiment gate.
figures-smoke:
	$(GO) run ./cmd/benchtab -exp all -workers 4

# The paper's figures at figure scale (nightly): every experiment on 16 and
# 32 workers, ≈ 2 min. Every serializable cell's recorded history must
# pass C1, C2 and 1SR at the worker counts the paper reports, and every
# answer and experiment gate is checked as in figures-smoke.
figures:
	$(GO) run ./cmd/benchtab -exp all -workers 16,32

# Hot-path microbenchmarks: the message store's put/read paths (per-message
# vs. batched, all three semantics, 1-8 goroutines), the dense data path
# layer by layer with allocations (Overwrite PutBatch on a table larger
# than the cache; an Async worker's local broadcasts and reads, with and
# without SyncNone's source locks; the batch codec; a batch from Send over
# a loopback socket to PutBatch), the engine's local-delivery benchmark, which exercises
# thread-local staging end to end, Run's set-up layer (building the workers
# and lock managers of pl_coloring's shape), the lock path: a contended fork
# ping-pong between two managers and a serializable GAS colouring, and the
# load path: symmetrising pl_coloring's edge list through a Builder, and
# its UK x4 input in two steps (generate: draw the edges and lay out the
# CSR; symmetrize: merge it into the undirected graph).
bench-micro:
	$(GO) test ./internal/msgstore/ -run '^$$' -bench '^Benchmark(Put|PutBatch|Read)$$' -benchtime $(or $(MICRO_BENCHTIME),2000x)
	$(GO) test ./internal/msgstore/ -run '^$$' -bench 'BenchmarkStore(OverwritePutBatch|PutBatchFanOut|Broadcast|OverwriteRead)$$' -benchtime $(or $(MICRO_BENCHTIME),20000000x) -benchmem
	$(GO) test ./internal/wire/ -run '^$$' -bench BenchmarkBatchCodec -benchtime $(or $(MICRO_BENCHTIME),20000000x) -benchmem
	$(GO) test ./internal/cluster/ -run '^$$' -bench BenchmarkTCPDataRoundTrip -benchtime $(or $(MICRO_BENCHTIME),20000x) -benchmem
	$(GO) test ./internal/engine/ -run '^$$' -bench BenchmarkLocalDelivery -benchtime $(or $(MICRO_BENCHTIME),5x)
	$(GO) test ./internal/engine/ -run '^$$' -bench BenchmarkRunSetup -benchtime $(or $(MICRO_BENCHTIME),20x) -benchmem
	$(GO) test ./internal/chandy/ -run '^$$' -bench BenchmarkChandyRing -benchtime $(or $(MICRO_BENCHTIME),200000x) -benchmem
	$(GO) test ./internal/gas/ -run '^$$' -bench BenchmarkGASColoring -benchtime $(or $(MICRO_BENCHTIME),10x) -benchmem
	$(GO) test ./internal/graph/ -run '^$$' -bench BenchmarkBuildUndirected -benchtime $(or $(MICRO_BENCHTIME),10x) -benchmem
	$(GO) test ./internal/generate/ -run '^$$' -bench BenchmarkPowerLawUK -benchtime $(or $(MICRO_BENCHTIME),5x) -benchmem

# Every bench-micro benchmark run once, so none of them can rot; seconds.
bench-micro-smoke:
	$(MAKE) bench-micro MICRO_BENCHTIME=1x

ci: build vet test-race

clean:
	$(GO) clean ./...
