GO ?= go

.PHONY: build loc vet test test-short test-race race tcp flow partition fuzz-wire chaos torture torture-pinned torture-budget torture-partition fuzz bench bench-check bench-pair bench-json bench-smoke bench-micro ci clean

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
race: vet
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 -run 'Chaos|Confined|Watchdog|Torn' ./internal/engine/

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

# Wire-transport gate: the transport contract on both backends three times
# over (so Send/Close races get shaken on each), the cluster, codec and dist
# suites, the cross-transport equivalence matrix and the real multi-process
# run, all under the race detector.
tcp:
	$(GO) test -race -count=3 ./internal/cluster/ -run TestTransportContract
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/wire/ ./internal/dist/
	$(GO) test -race -count=1 ./internal/engine/ -run TestTransportEquivalenceMatrix -v
	$(GO) test -race -count=1 ./cmd/graphrun/ -run TestGraphrunMultiProcess -v

# Bounded-memory message-plane gate: the credit-window and spill-tier unit
# suites under the race detector, then the budget equivalence matrix (every
# sync technique × algorithm × {unbounded, tiny, huge} budget, bitwise
# checks) and the tiny-budget-over-TCP cell.
flow:
	$(GO) test -race -count=1 ./internal/cluster/ -run 'Flow|Credit'
	$(GO) test -race -count=1 ./internal/msgstore/ -run 'Spill'
	$(GO) test -race -count=1 ./internal/engine/ -run 'TestBudget' -v

# Locality-aware partitioning gate: the streaming partitioner and
# relabeling unit suites under the race detector, the partitioner
# equivalence matrix (every mode × technique × partitioner cell bitwise
# against the hash baseline), the distributed rebuild conformance cell,
# and the full-size quality acceptance run (balance bound, >=25%
# boundary-fraction and cross-partition byte reductions vs hash).
partition:
	$(GO) test -race -count=1 ./internal/partition/ ./internal/graph/
	$(GO) test -race -count=1 ./internal/engine/ -run TestPartitionerEquivalenceMatrix -v
	$(GO) test -race -count=1 ./internal/dist/ -run TestDistStreamingPartitioners
	$(GO) test -count=1 ./internal/bench/ -run TestPartitionQuality -v

# Streaming-partitioner torture row (nightly): the pinned sweep rerun with
# every case forced onto LDG or Fennel placement (split by a seed bit), so
# all serializability and recovery oracles run against locality-aware maps.
torture-partition:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -torture.streampart -timeout=15m

# Tiny-budget torture row (nightly): the pinned sweep rerun with a forced
# tiny message-plane budget, so credit windows sit at the floor and the BSP
# spill tier cuts runs on nearly every superstep.
torture-budget:
	$(GO) test ./internal/torture/ -run 'TestTorture$$' -count=1 \
		-torture.n=200 -torture.root=0xdecaf -torture.tinybudget -timeout=15m

# 30-second fuzz smoke over the frame decoder: truncated/corrupt/oversized
# frames must error, never panic or over-allocate; plus a shorter pass over
# the Credit grant frame and the batched fork/token frame against their
# golden fixture corpora.
fuzz-wire:
	$(GO) test ./internal/wire/ -fuzz FuzzFrameDecode -fuzztime=30s -run '^$$'
	$(GO) test ./internal/wire/ -fuzz FuzzCreditFrame -fuzztime=15s -run '^$$'
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

# Machine-readable perf baseline: the Fig. 1 spectrum with per-technique
# metrics snapshots and superstep phase traces. BENCH_NNNN.json files at
# the repo root are successive perf-trajectory points made this way.
BENCH_JSON ?= bench.json
BENCH_SCALE ?= 0.1
bench-json:
	SERIALGRAPH_SCALE=$(BENCH_SCALE) $(GO) run ./cmd/benchtab -exp fig1 \
		-workers 16 -trace -json $(BENCH_JSON) -label "fig1 scale=$(BENCH_SCALE)"

# CI benchmark smoke: one iteration of the Fig. 1 spectrum benchmark,
# emitting the JSON report for artifact upload.
bench-smoke:
	SERIALGRAPH_SCALE=$(BENCH_SCALE) SERIALGRAPH_BENCH_JSON=$(BENCH_JSON) \
		$(GO) test -run '^$$' -bench BenchmarkFig1Spectrum -benchtime 1x .

# Hot-path microbenchmarks: the message store's put/read paths (per-message
# vs. batched, all three semantics, 1-8 goroutines), the dense data path
# layer by layer with allocations (Overwrite PutBatch on a table larger
# than the cache, the batch codec, a batch from Send over a loopback socket
# to PutBatch), the engine's local-delivery benchmark, which exercises
# thread-local staging end to end, the lock path: a contended fork
# ping-pong between two managers and a serializable GAS colouring, and the
# load path: symmetrising pl_coloring's edge list through a Builder, and
# generating and symmetrising its UK x4 input.
bench-micro:
	$(GO) test ./internal/msgstore/ -run '^$$' -bench '^Benchmark(Put|PutBatch|Read)$$' -benchtime 2000x
	$(GO) test ./internal/msgstore/ -run '^$$' -bench 'BenchmarkStore(OverwritePutBatch|PutBatchFanOut)$$' -benchtime 20000000x -benchmem
	$(GO) test ./internal/wire/ -run '^$$' -bench BenchmarkBatchCodec -benchtime 20000000x -benchmem
	$(GO) test ./internal/cluster/ -run '^$$' -bench BenchmarkTCPDataRoundTrip -benchtime 20000x -benchmem
	$(GO) test ./internal/engine/ -run '^$$' -bench BenchmarkLocalDelivery -benchtime 5x
	$(GO) test ./internal/chandy/ -run '^$$' -bench BenchmarkChandyRing -benchtime 200000x -benchmem
	$(GO) test ./internal/gas/ -run '^$$' -bench BenchmarkGASColoring -benchtime 10x -benchmem
	$(GO) test ./internal/graph/ -run '^$$' -bench BenchmarkBuildUndirected -benchtime 10x -benchmem
	$(GO) test ./internal/generate/ -run '^$$' -bench BenchmarkPowerLawUK -benchtime 5x -benchmem

ci: build vet test-race

clean:
	$(GO) clean ./...
