# Developer entry points. `make check` is the gate for hot-path and
# networking changes: gofmt (no file may need reformatting), vet, the race
# detector over the concurrent packages (server, client, dist — including
# the chaos, kill/restart recovery, and lease-timer lifecycle tests), the
# durability layer (journal store, snapshot rotation, recovery's rejection
# of out-of-range players), the packages the perf pass touched (billboard,
# wire), the DISTILL variants (core, whose tests run replications in
# parallel), the metrics registry and its scrape-under-load tests (obs,
# server metrics), the kill/restart and persistence suite (whole-server
# kill/restart mid-round, rollback of uncommitted posts, lease timers)
# doubled under -race, the commit determinism golden doubled under -race,
# the replicated-coordinator election + failover suite (quorum commit,
# leader kill, isolation step-down, failover chaos digests) doubled under
# -race,
# the pacing suite (stamp closure, the round deadline's policy in each
# mode, sync-vs-epoch digest convergence under chaos, close-during-commit
# seal audit, the stale-arrival re-stamp, the closure-counter edges in both
# modes) doubled under -race, the scenario-replay golden (same file + seed
# → byte-identical digest) doubled under -race plus the open-world swarm
# dynamics suite and a `cmd/experiments -scenario` smoke test, a
# 1-iteration bench smoke so a broken benchmark cannot land silently, and a
# vet + unit-test pass over perfbench (the repo's benchmark harness, a module
# of its own that imports internal/server, internal/swarm and
# internal/client), so a change to those packages cannot break the
# benchmark's build unnoticed.

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
	$(GO) test -race -run 'TestChaosServerKillRestart|TestChaosKillRestartUnderFaultInjection|TestPersist|TestCloseStopsLeaseTimers|TestResumeStopsLeaseTimer' -count=2 ./internal/server ./internal/dist
	$(GO) test -race -run 'TestShardCommitDeterminismGolden' -count=2 ./internal/server
	$(GO) test -race -run 'TestReplica|TestLeader|TestChaosReplica|TestChaosLeader' -count=2 ./internal/server ./internal/dist
	$(GO) test -race -run 'TestSwarm' -count=2 ./internal/swarm ./internal/dist
	$(GO) test -race -run 'TestEpoch|TestStale|TestCloseDuringCommit|TestClosure|TestBarrierDeadline' -count=2 ./internal/server ./internal/swarm ./internal/dist
	$(GO) test -race -run 'TestGoldenScenarioReplay' -count=2 .
	$(GO) test -race -run 'TestSwarmDynamics|TestEngineReplayDeterministic|TestClusterReplayDeterministic' -count=2 ./internal/dist ./internal/scenario
	$(GO) test -race -run 'TestScenario' ./cmd/experiments
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/server ./internal/journal ./internal/wire > /dev/null
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

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
# same commit. Alongside the gate, three service costs are recorded, not
# gated: the replicated coordinator's post-round commit latency as
# BENCH_PR6.json (the replicas-1 point is the repLog bookkeeping with a
# quorum of self, the replicas-3 point adds one follower's durable ack per
# round — the replication tax, priced), the swarm fleet's cost per player,
# from 2k to 1M players, as BENCH_PR8.json, and the sync-vs-epoch posting
# round as BENCH_PR9.json.

bench-diff:
	$(GO) test -run xxx -bench 'BenchmarkEngineRoundDistill$$|BenchmarkBillboardPostCommit$$|BenchmarkBillboardWindowCount$$' -benchmem . \
	  | $(GO) run ./cmd/benchjson -baseline BENCH_PR2.json -max-regress 5
	$(GO) test -run xxx -bench 'BenchmarkReplicated' -benchmem ./internal/server \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR6.json
	@echo "wrote BENCH_PR6.json"
	$(GO) test -run xxx -bench 'BenchmarkClusterFleet|BenchmarkSwarmScale' -benchmem -benchtime 1x -timeout 30m ./internal/dist \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR8.json
	@echo "wrote BENCH_PR8.json (swarm fleet 2k-1M players; recorded, not gated)"
	$(GO) test -run xxx -bench 'BenchmarkEpochPostRound' -benchmem ./internal/server \
	  | $(GO) run ./cmd/benchjson -o BENCH_PR9.json
	@echo "wrote BENCH_PR9.json (sync-vs-epoch posting round; recorded, not gated)"
