# Mirrors .github/workflows/ci.yml so local and CI invocations stay
# identical: `make build test race bench` is exactly what CI runs.

GO ?= go

.PHONY: all build fmt vet lint test race race-shard race-server fuzz-smoke catbench-test bench bench-sketch bench-engine bench-shard bench-server bench-sweep bench-gate-files bench-diff bench-accept profile-fig8 repro golden golden-check replay-check serve server-check

all: build fmt vet test

# The end-to-end benchmark (bench/catbench) is its own Go module, which
# ./... skips; build it too, so deleting an internal identifier it uses
# fails here. -o /dev/null leaves no binary in the tree.
build:
	$(GO) build ./...
	$(GO) build -C bench/catbench -o /dev/null .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet; the pinned version matches CI's install so
# local and CI lint results stay identical.
lint:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; run: go install honnef.co/go/tools/cmd/staticcheck@2025.1"; \
		exit 1; \
	}
	staticcheck ./...

test:
	$(GO) test ./...

# The experiments package guards its full sweeps behind -short so the
# race pass stays within CI's time budget.
race: race-shard race-server
	$(GO) test -race -short ./...

# The sharded engine's goroutines + merge under the race detector: the
# engine/sim shard suites, then an 8-shard catsim run on the 8-channel
# DDR5 geometry end to end.
race-shard:
	$(GO) test -race -run 'Shard|Affine' ./internal/engine ./internal/sim
	$(GO) run -race ./cmd/catsim -geometry ddr5 -cores 8 -affine -shards 8 -workload black -scheme drcat:counters=64,levels=11 -scale 0.02

# The server's job state, which workers, streams, /result requests and
# the drain all reach, under the race detector ten times over.
race-server:
	$(GO) test -race -count=10 -run 'Lifecycle|Stream|Result|Drain|Panick' ./internal/server ./cmd/catsim-server

# Fuzz smoke: each parser that takes outside input (trace containers, the
# scheme-spec, geometry and arrival grammars, catsim-server job bodies and
# snapshots), plus the protection oracle against its dense reference
# (FuzzOracleMatchesRef) and the recorded-stream word format
# (FuzzRecordRoundTrip), fuzzed for a fixed budget.
# go test -fuzz accepts one package and one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadContainer$$' -fuzztime=10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime=10s ./internal/mitigation
	$(GO) test -run '^$$' -fuzz '^FuzzOracleMatchesRef$$' -fuzztime=10s ./internal/mitigation
	$(GO) test -run '^$$' -fuzz '^FuzzParseGeometry$$' -fuzztime=10s ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrival$$' -fuzztime=10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime=10s ./internal/sim

# The end-to-end benchmark (bench/catbench) is its own Go module, so
# ./... never vets or tests it; do both here (race detector on).
catbench-test:
	cd bench/catbench && $(GO) vet ./... && $(GO) test -race -short ./...

# Benchmark smoke: every benchmark once, no measurement repetition.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Sketch-substrate benchmark trajectory: CI uploads BENCH_sketch.json so
# future PRs can compare the approximate-counting hot path. The stamp step
# prepends commit SHA, CPU model and Go version so cross-run diffs stay
# attributable.
BENCH_SKETCH_TIME ?= 1x
BENCH_COUNT ?= 1
bench-sketch:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCH_SKETCH_TIME) -count=$(BENCH_COUNT) -json ./internal/sketch > BENCH_sketch.json
	$(GO) run ./cmd/benchdiff -stamp BENCH_sketch.json

# Engine hot-path benchmark trajectory: ns/request and allocs/request for
# the epoch engine and its schedulers at 2–256 cores. CI uploads
# BENCH_engine.json; the steady-state alloc *gate* is
# TestSteadyStateZeroAllocs in `make test`, which fails the build on any
# per-request allocation. Raise BENCH_ENGINE_TIME (e.g. 100x) for stable
# local numbers.
BENCH_ENGINE_TIME ?= 1x
bench-engine:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCH_ENGINE_TIME) -count=$(BENCH_COUNT) -json ./internal/engine > BENCH_engine.json
	$(GO) run ./cmd/benchdiff -stamp BENCH_engine.json

# Sharded-engine trajectory: the sequential reference vs the partitioned
# engine at shards=1 (partitioning overhead) and shards=8 (scaling) on
# the 8-channel DDR5 geometry. All three return byte-identical Results,
# so seq/shards=8 is a pure wall-clock speedup — ~parity (partitioning
# overhead) on one hardware core, approaching the channel count on >=8.
BENCH_SHARD_TIME ?= 1x
bench-shard:
	$(GO) test -run='^$$' -bench=BenchmarkShard -benchtime=$(BENCH_SHARD_TIME) -count=$(BENCH_COUNT) -json ./internal/sim > BENCH_shard.json
	$(GO) run ./cmd/benchdiff -stamp BENCH_shard.json

# Streaming-encoder trajectory: ns/sample and allocs/sample of the
# server's per-epoch NDJSON/SSE encoders — the cost every attached stream
# pays per epoch. The allocation *gate* is TestNDJSONEncoderAllocs in
# `make test`; this trajectory tracks the wall-clock trend.
BENCH_SERVER_TIME ?= 1x
bench-server:
	$(GO) test -run='^$$' -bench=BenchmarkServerStream -benchtime=$(BENCH_SERVER_TIME) -count=$(BENCH_COUNT) -json ./internal/server > BENCH_server.json
	$(GO) run ./cmd/benchdiff -stamp BENCH_server.json

# Sweep-throughput trajectory: runs/sec and allocs/run of a 256-seed
# single-cell sweep, one new run context per run (sim.Run) vs one reused
# context (the sweep fast path internal/runner pools). Both return byte-identical
# Results; the benchdiff gate holds ns/op AND B/op/allocs-per-op, so a
# reuse-path change that reintroduces steady-state allocations fails CI.
BENCH_SWEEP_TIME ?= 1x
bench-sweep:
	$(GO) test -run='^$$' -bench=BenchmarkSweep -benchtime=$(BENCH_SWEEP_TIME) -count=$(BENCH_COUNT) -json ./internal/sim > BENCH_sweep.json
	$(GO) run ./cmd/benchdiff -stamp BENCH_sweep.json

# Gate-stable regeneration of both trajectories: time-based benchtime so
# micro- and macro-benchmarks alike get real measurement windows, and
# -count=3 because benchdiff keeps the per-benchmark minimum across
# repetitions (the noise-robust summary).
BENCH_GATE_ENGINE_TIME ?= 200ms
BENCH_GATE_SKETCH_TIME ?= 50ms
BENCH_GATE_SHARD_TIME ?= 200ms
BENCH_GATE_SERVER_TIME ?= 50ms
BENCH_GATE_SWEEP_TIME ?= 2x
bench-gate-files:
	$(MAKE) bench-engine BENCH_ENGINE_TIME=$(BENCH_GATE_ENGINE_TIME) BENCH_COUNT=3
	$(MAKE) bench-sketch BENCH_SKETCH_TIME=$(BENCH_GATE_SKETCH_TIME) BENCH_COUNT=3
	$(MAKE) bench-shard BENCH_SHARD_TIME=$(BENCH_GATE_SHARD_TIME) BENCH_COUNT=3
	$(MAKE) bench-server BENCH_SERVER_TIME=$(BENCH_GATE_SERVER_TIME) BENCH_COUNT=3
	$(MAKE) bench-sweep BENCH_SWEEP_TIME=$(BENCH_GATE_SWEEP_TIME) BENCH_COUNT=3

# The bench-regression gate, exactly as the CI job runs it: regenerate the
# trajectories at gate-stable settings and fail on any >10% ns/op
# regression (noise floor 50 ns) against the blessed baselines.
bench-diff: bench-gate-files
	$(GO) run ./cmd/benchdiff BENCH_engine.json BENCH_sketch.json BENCH_shard.json BENCH_server.json BENCH_sweep.json

# Rebless the baselines after an *intentional* perf change; eyeball the
# diff of bench/baseline/*.json before committing. The re-stamp keeps
# every blessed file attributed to the same (current) commit — the per-
# target stamps ride along from whenever each trajectory last regenerated,
# which historically left the baselines pointing at a mix of commits.
bench-accept: bench-gate-files
	mkdir -p bench/baseline
	cp BENCH_engine.json BENCH_sketch.json BENCH_shard.json BENCH_server.json BENCH_sweep.json bench/baseline/
	$(GO) run ./cmd/benchdiff -stamp bench/baseline/BENCH_engine.json bench/baseline/BENCH_sketch.json bench/baseline/BENCH_shard.json bench/baseline/BENCH_server.json bench/baseline/BENCH_sweep.json

# CPU profile of the paper's Figs. 8/9 matrix at scale 0.01, one worker,
# result cache off (every run simulated, as catbench's fig8 runs it),
# printed flat-sorted so each layer's share can be compared across
# changes. The profile stays at /tmp/catsim-fig8.prof for further pprof
# views (-cum, -peek, -lines).
profile-fig8:
	$(GO) build -o /tmp/catsim-experiments ./cmd/experiments
	/tmp/catsim-experiments -q -scale 0.01 -parallel 1 -cache=false -cpuprofile /tmp/catsim-fig8.prof fig8 > /dev/null
	$(GO) tool pprof -top /tmp/catsim-experiments /tmp/catsim-fig8.prof

# Full reproduction of the paper's tables and figures at default scale,
# all cores, shared result cache.
repro:
	$(GO) run ./cmd/experiments

# The pinned options behind the golden files: every text byte of the CLI
# output at this configuration is locked by golden-check (and the
# per-generator goldens under internal/experiments/testdata/golden by
# TestGoldenText).
GOLDEN_FLAGS = -scale 0.05 -seed 1 -workloads black,comm1 -lfsr-trials 50 -q

# Regenerate the golden files after an *intentional* output change;
# eyeball the diff before committing.
golden:
	$(GO) test ./internal/experiments -run TestGoldenText -update
	$(GO) run ./cmd/experiments $(GOLDEN_FLAGS) > cmd/experiments/testdata/golden-scale005.txt
	$(GO) run ./cmd/experiments -list > cmd/experiments/testdata/list.txt

# CI's golden gate: text output must match the checked-in golden byte for
# byte, and the JSON output must decode as []Report. The text runs twice:
# sequentially (-parallel 1), and with eight workers, several of which
# wait on one recording of a shared request stream. The -list output
# (names, descriptions and presentation order) has its own golden. The
# binary and its outputs go to a fresh temporary directory, removed on
# exit.
golden-check:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/catsim-experiments ./cmd/experiments; \
	$$dir/catsim-experiments -list > $$dir/list.txt; \
	diff -u cmd/experiments/testdata/list.txt $$dir/list.txt; \
	$$dir/catsim-experiments $(GOLDEN_FLAGS) -parallel 1 > $$dir/golden-p1.txt; \
	diff -u cmd/experiments/testdata/golden-scale005.txt $$dir/golden-p1.txt; \
	$$dir/catsim-experiments $(GOLDEN_FLAGS) -parallel 8 > $$dir/golden-p8.txt; \
	diff -u cmd/experiments/testdata/golden-scale005.txt $$dir/golden-p8.txt; \
	$$dir/catsim-experiments $(GOLDEN_FLAGS) -format json > $$dir/golden.json; \
	$$dir/catsim-experiments -validate-json $$dir/golden.json

# The capture/replay determinism gate: a live open-loop run and a replay
# of the same configuration's captured v1 trace must print byte-identical
# Result JSON (the trace pipeline's core contract, also test-enforced in
# internal/sim and cmd/replay). Its files go to a fresh temporary
# directory, removed on exit.
REPLAY_FLAGS = -workload ol-bursty -requests 4000 -attacker 0.25 -threshold 1600 -seed 7
replay-check:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/catsim-replay ./cmd/replay; \
	$$dir/catsim-replay $(REPLAY_FLAGS) -json > $$dir/live.json; \
	$$dir/catsim-replay $(REPLAY_FLAGS) -capture -o $$dir/trace.v1; \
	$$dir/catsim-replay $(REPLAY_FLAGS) -trace $$dir/trace.v1 -json > $$dir/replay.json; \
	diff $$dir/live.json $$dir/replay.json; \
	$$dir/catsim-replay $(REPLAY_FLAGS) -trace $$dir/trace.v1 -scheme sca:counters=128 > /dev/null

# Run the simulation service locally (ctrl-C drains and snapshots).
SERVE_FLAGS ?= -addr 127.0.0.1:8321 -snapshot /tmp/catsim-server.snap
serve:
	$(GO) run ./cmd/catsim-server $(SERVE_FLAGS)

# End-to-end smoke of the simulation service, exactly as the CI job runs
# it: boot the server, submit a job describing the replay-check
# configuration, and require (1) the served result to match a direct
# cmd/replay run of the same parameters (jq -S canonicalises the
# indentation difference), (2) a repeat POST to be a cache hit with zero
# new engine runs, (3) the stream to terminate with that same result, and
# (4) a restart from the snapshot to re-serve the stream byte-identically
# without recomputation. The Go test suites lock the byte-level contracts
# under -race; this target proves the shipped binary wires them together.
# Its binaries, snapshot, log and responses go to a fresh temporary
# directory, removed on exit along with any server still running.
SERVER_CHECK_ADDR = 127.0.0.1:18321
SERVER_CHECK_JOB = {"scheme":"drcat:counters=64,levels=11","workload":"ol-bursty","requests":4000,"attacker":0.25,"threshold":1600,"seed":7}
server-check:
	set -e; dir=$$(mktemp -d); pid=; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/catsim-server ./cmd/catsim-server; \
	$(GO) build -o $$dir/catsim-replay ./cmd/replay; \
	$$dir/catsim-server -addr $(SERVER_CHECK_ADDR) -workers 1 -snapshot $$dir/server.snap > $$dir/server.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do curl -fs http://$(SERVER_CHECK_ADDR)/healthz > /dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fs -X POST -H 'Content-Type: application/json' -d '$(SERVER_CHECK_JOB)' http://$(SERVER_CHECK_ADDR)/v1/jobs > $$dir/post.json; \
	id=$$(jq -r .id $$dir/post.json); \
	curl -fs http://$(SERVER_CHECK_ADDR)/v1/jobs/$$id/result | jq -S . > $$dir/result.json; \
	$$dir/catsim-replay $(REPLAY_FLAGS) -json | jq -S . > $$dir/direct.json; \
	diff $$dir/direct.json $$dir/result.json; \
	curl -fs -X POST -H 'Content-Type: application/json' -d '$(SERVER_CHECK_JOB)' http://$(SERVER_CHECK_ADDR)/v1/jobs | jq -e '.cached == true' > /dev/null; \
	curl -fs http://$(SERVER_CHECK_ADDR)/v1/stats | jq -e '.engine_runs == 1' > /dev/null; \
	curl -fs http://$(SERVER_CHECK_ADDR)/v1/jobs/$$id/stream > $$dir/stream1.ndjson; \
	tail -n 1 $$dir/stream1.ndjson | jq -S .result > $$dir/streamres.json; \
	diff $$dir/direct.json $$dir/streamres.json; \
	kill -TERM $$pid; wait $$pid; pid=; \
	$$dir/catsim-server -addr $(SERVER_CHECK_ADDR) -workers 1 -snapshot $$dir/server.snap >> $$dir/server.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do curl -fs http://$(SERVER_CHECK_ADDR)/healthz > /dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fs http://$(SERVER_CHECK_ADDR)/v1/jobs/$$id/stream > $$dir/stream2.ndjson; \
	diff $$dir/stream1.ndjson $$dir/stream2.ndjson; \
	curl -fs http://$(SERVER_CHECK_ADDR)/v1/stats | jq -e '.engine_runs == 0' > /dev/null; \
	kill -TERM $$pid; wait $$pid; pid=; \
	echo "server-check: OK"
