# Developer entry points. `make check` is the gate for hot-path and
# networking changes: gofmt (no file may need reformatting), vet, the race
# detector over the concurrent packages (server, client, dist — including
# the chaos, kill/restart recovery, and lease-timer lifecycle tests), the
# durability layer (journal store, snapshot rotation, recovery's rejection
# of out-of-range players), the packages the perf pass touched (billboard,
# wire), the DISTILL variants (core, whose tests run replications in
# parallel), the metrics registry and its scrape-under-load tests (obs,
# server metrics), the shard chaos + scatter-gather suite (sharded digests,
# single-shard kill/restart, lane data plane) doubled under -race, the
# parallel-commit suite (the serial-vs-parallel determinism golden and the
# seal-race shard-bounce stress) doubled under -race, the
# replicated-coordinator election + failover suite (quorum commit, leader
# kill, isolation step-down, failover chaos digests) doubled under -race,
# the pacing suite (stamp closure, the round deadline's policy in each
# mode, sync-vs-epoch digest convergence under chaos, close-during-commit
# seal audit, the stale-arrival re-stamp, the closure-counter edges in both
# modes) doubled under -race, the scenario-replay golden (same file + seed
# → byte-identical digest) doubled under -race plus the open-world swarm
# dynamics suite and a `cmd/experiments -scenario` smoke test, and a
# 1-iteration bench smoke so a broken benchmark cannot land silently.

GO ?= go

.PHONY: build test check fuzz bench bench-diff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -race ./internal/obs/... ./internal/billboard/... ./internal/wire/... ./internal/journal/... ./internal/server/... ./internal/client/... ./internal/dist/... ./internal/core/...
	$(GO) test -race -run 'TestChaosServerKillRestart|TestPersist|TestCloseStopsLeaseTimers|TestResumeStopsLeaseTimer' -count=2 ./internal/server ./internal/dist
	$(GO) test -race -run 'TestChaosShard|TestSharded|TestKillRestartShard' -count=2 ./internal/server ./internal/dist
	$(GO) test -race -run 'TestShardCommitDeterminismGolden|TestSealRaceShardBounce' -count=2 ./internal/server
	$(GO) test -race -run 'TestReplica|TestLeader|TestChaosReplica|TestChaosLeader' -count=2 ./internal/server ./internal/dist
	$(GO) test -race -run 'TestSwarm' -count=2 ./internal/swarm ./internal/dist
	$(GO) test -race -run 'TestEpoch|TestStale|TestCloseDuringCommit|TestClosure|TestBarrierDeadline' -count=2 ./internal/server ./internal/swarm ./internal/dist
	$(GO) test -race -run 'TestGoldenScenarioReplay' -count=2 .
	$(GO) test -race -run 'TestSwarmDynamics|TestEngineReplayDeterministic|TestClusterReplayDeterministic' -count=2 ./internal/dist ./internal/scenario
	$(GO) test -race -run 'TestScenario' ./cmd/experiments
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/server > /dev/null

# Short passes over every fuzz harness: the byte-level decoders (client and
# replica wire frames, the journal) and the billboard state machine. Each
# -fuzz pattern is anchored: go test fuzzes one target per run, and a bare
# FuzzDecodeRep would also match FuzzDecodeRepAck.
fuzz:
	$(GO) test ./internal/wire -run xxx -fuzz '^FuzzDecodeRequest$$' -fuzztime 30s
	$(GO) test ./internal/wire -run xxx -fuzz '^FuzzDecodeResponse$$' -fuzztime 30s
	$(GO) test ./internal/wire -run xxx -fuzz '^FuzzDecodeRep$$' -fuzztime 30s
	$(GO) test ./internal/wire -run xxx -fuzz '^FuzzDecodeRepAck$$' -fuzztime 30s
	$(GO) test ./internal/journal -run xxx -fuzz '^FuzzReplay$$' -fuzztime 30s
	$(GO) test ./internal/journal -run xxx -fuzz '^FuzzWriteReplayRoundTrip$$' -fuzztime 30s
	$(GO) test ./internal/billboard -run xxx -fuzz '^FuzzBoardInvariants$$' -fuzztime 30s
	$(GO) test ./internal/billboard -run xxx -fuzz '^FuzzWindowCounts$$' -fuzztime 30s

# Regenerate the recorded benchmark baseline (BENCH_PR2.json). Two passes:
# a 1-iteration sweep over every benchmark (the experiment benches run a full
# scaled experiment per iteration, so once is enough for their wall time),
# then a timed pass over the substrate micro-benchmarks whose ns/op needs
# real iteration counts. benchjson merges the passes; the later pass wins on
# name collisions.
bench:
	( $(GO) test -run xxx -bench . -benchmem -benchtime 1x . ./internal/server && \
	  $(GO) test -run xxx -bench 'BenchmarkEngineRoundDistill|BenchmarkBillboard' -benchmem . ) \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR2.json
	@echo "wrote BENCH_PR2.json"

# Gate the hot paths against the recorded baseline: re-time the substrate
# micro-benchmarks and fail when any ns/op grew more than 5% past
# BENCH_PR2.json. Run after touching billboard, wire, or engine internals
# (the observability layer's overhead budget is enforced here too). The
# allocating WindowCountMap variant is deliberately left out: its time is
# dominated by map allocation, which drifts well past 5% run to run on the
# same commit. Alongside the gate, the sharded service benchmarks are
# re-timed and recorded as BENCH_PR7.json (1/4/16-shard post-round and
# scatter-gather window-query points), and the replicated coordinator's
# post-round commit latency is recorded as BENCH_PR6.json: the replicas-1
# point is the repLog bookkeeping with a quorum of self, the replicas-3 point
# adds one follower's durable ack per round — the replication tax, priced,
# not gated.
#
# The sharded recording doubles as a scaling gate on a multi-core box:
# shards-16 must finish a post round in fewer ns/op than shards-1, i.e. the
# parallel lane commit must actually buy throughput. At GOMAXPROCS=1 the 16
# lanes' frames cannot overlap (the round is 16x the RPCs with no CPU to
# run them on), so the gate arms only when at least 4 CPUs are available.
NPROC := $(shell nproc 2>/dev/null || echo 1)
MULTICORE := $(shell [ $(NPROC) -ge 4 ] && echo y)
SCALING_GATE := $(if $(MULTICORE),-faster 'BenchmarkShardedPostBatch/shards-16<BenchmarkShardedPostBatch/shards-1',)

# The swarm recording (BENCH_PR8.json) gates the event-loop driver against
# the goroutine-per-player fleet at matched player counts: the swarm must
# cost fewer ns/player. The 10k pair needs ~20k file descriptors for the
# goroutine side (two per player), so the gate compares at 10k only when
# the descriptor budget allows and falls back to the 2k pair otherwise;
# the swarm-side 10k/100k/1M scale points record regardless.
FDS := $(shell sh -c 'ulimit -n' 2>/dev/null || echo 1024)
BIGFLEET := $(shell [ $(FDS) -ge 20100 ] && echo y)
SWARM_GATE := $(if $(BIGFLEET),-faster 'BenchmarkClusterFleet/swarm-10k<BenchmarkClusterFleet/goroutine-10k',-faster 'BenchmarkClusterFleet/swarm-2k<BenchmarkClusterFleet/goroutine-2k')

bench-diff:
	$(GO) test -run xxx -bench 'BenchmarkEngineRoundDistill$$|BenchmarkBillboardPostCommit$$|BenchmarkBillboardWindowCount$$' -benchmem . \
	  | $(GO) run ./cmd/benchjson -baseline BENCH_PR2.json -max-regress 5
	$(GO) test -run xxx -bench 'BenchmarkSharded' -benchmem ./internal/server \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR7.json $(SCALING_GATE)
	@echo "wrote BENCH_PR7.json (scaling gate: $(if $(MULTICORE),armed,skipped — $(NPROC) CPU(s)))"
	$(GO) test -run xxx -bench 'BenchmarkReplicated' -benchmem ./internal/server \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR6.json
	@echo "wrote BENCH_PR6.json"
	$(GO) test -run xxx -bench 'BenchmarkClusterFleet|BenchmarkSwarmScale' -benchmem -benchtime 1x -timeout 30m ./internal/dist \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR8.json $(SWARM_GATE)
	@echo "wrote BENCH_PR8.json (fleet gate at $(if $(BIGFLEET),10k,2k) players; $(FDS) fds)"
	$(GO) test -run xxx -bench 'BenchmarkEpochPostRound' -benchmem ./internal/server \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR9.json
	@echo "wrote BENCH_PR9.json (sync-vs-epoch posting round; recorded, not gated)"
