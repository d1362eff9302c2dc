# Convenience targets for the reproduction. Everything is plain `go` —
# these just bundle the invocations the docs mention.

.PHONY: all build test short race ci chaos sockets perfbench-smoke flake fuzz soak bench bench-md bench-transport repro examples fmt vet

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

test:
	go test ./...

# Short mode skips the 5-node/300-step soak runs.
short:
	go test -short ./...

# Race-detector pass over the short suite (the parallel explorer and the
# concurrent ACC/XACC candidate enumeration run under it).
race:
	go test -short -race ./...

# Mirror of the CI workflow's push/PR job (.github/workflows/ci.yml).
# staticcheck runs when installed (CI installs it; locally it is optional —
# nothing here fetches dependencies).
ci:
	go build ./...
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping (CI runs it)"; fi
	go test -short -race ./...
	go test -race ./internal/transport/

# Mirror of CI's chaos + fuzz smoke: seeded fault-injection runs over every
# registry algorithm, then a short coverage-guided pass over both fuzz
# targets. Each chaos line is replayable — rerun with the printed seed.
chaos:
	go run ./cmd/crdt-sim -chaos -algo rga -nodes 3 -ops 10 -seed 1 -seeds 5
	go run ./cmd/crdt-sim -chaos -algo aw-set -nodes 3 -ops 10 -seed 1 -seeds 5
	go run ./cmd/crdt-sim -chaos -algo rga -nodes 3 -ops 10 -seed 1 -seeds 5 -snapshot-every 4
	@for a in counter g-set lww-register lww-set 2p-set cseq rw-set; do \
		go run ./cmd/crdt-sim -chaos -algo $$a -nodes 3 -ops 10 -seed 1 -seeds 3 | tail -1; done
	go test -run '^$$' -fuzz '^FuzzClusterDelivery$$' -fuzztime 30s ./internal/sim/

# CI's socket-transport smoke job runs this target: the in-repo socket,
# node and manifest tests, then scripts/socket-smoke.sh — crdt-sim processes
# over unix and tcp sockets (two- and three-process demos, batching, late-join
# snapshot catch-up, a multi-object tcp mesh with a late joiner, a
# multi-object unix mesh on a two-shard receive pipeline, and the weighted
# per-object scheduler), each leg checking byte-identical canonical states
# and the ledgers every binary audits.
sockets:
	go test -run 'TestStream|TestNode|TestManifest' ./internal/transport/
	bash scripts/socket-smoke.sh

# CI's perfbench smoke runs this target on every push and PR: the benchmark
# module's own tests, then a short run of every workload over real unix
# sockets. Each run's correctness gate (one replicate sample per effectful
# op, byte-equal canonical states) fails it if causal delivery, snapshot
# catch-up or compaction breaks.
perfbench-smoke:
	cd perfbench && go test ./...
	bash perfbench/run.sh --workload all --seconds 3 --trace 0

# Mirror of the nightly CI flake-rate job: the conformance and transport
# suites 20 times under the race detector at 1, 2 and 4 CPUs. Prints how many
# test runs failed and fails on any. The 60 runs of each package take far
# longer than go test's default 10-minute per-binary limit, hence -timeout.
flake:
	@out=$$(mktemp); \
	go test -race -timeout 3h -count=20 -cpu 1,2,4 ./internal/conformance/ ./internal/transport/ > "$$out" 2>&1; s=$$?; \
	n=$$(grep -c '^--- FAIL' "$$out"); \
	grep -B2 -A20 '^--- FAIL' "$$out" | head -200; \
	tail -5 "$$out"; rm -f "$$out"; \
	echo "flake: $$n failed test run(s)"; \
	if [ $$s -ne 0 ] && [ $$n -eq 0 ]; then echo "flake: go test failed without a failed test run (build error, panic or timeout; see above)"; fi; \
	[ $$s -eq 0 ] && [ $$n -eq 0 ]

fuzz:
	go test -run '^$$' -fuzz '^FuzzCheckACC$$' -fuzztime 30s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzClusterDelivery$$' -fuzztime 30s ./internal/sim/
	go test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 30s ./internal/codec/
	go test -run '^$$' -fuzz '^FuzzPMap$$' -fuzztime 30s ./internal/crdts/xset/
	go test -run '^$$' -fuzz '^FuzzSnapshotInstall$$' -fuzztime 30s ./internal/transport/

soak:
	go test -run TestSoak ./internal/conformance/

# Full benchmark sweep; also regenerates the checked-in machine-readable
# explorer ablation (BENCH_explore.json) that the nightly CI job uploads.
bench:
	go test -bench=. -benchmem . > bench.out; status=$$?; cat bench.out; \
	  [ $$status -eq 0 ] && go run ./cmd/bench-report -json -group ExploreParallel -out BENCH_explore.json < bench.out; \
	  rm -f bench.out; exit $$status

# Pipe benchmarks through the markdown renderer.
bench-md:
	go test -bench=. -benchmem . | go run ./cmd/bench-report

# Mirror of CI's transport-bench job: the stream-throughput sweep (network ×
# batch size × payload × receive-pipeline workers) run 3× and collapsed to
# each case's fastest run (min-of-N damps scheduler noise), rendered to
# bench-current.json and gated against the checked-in BENCH_transport.json —
# any case more than 25% slower, or past +34% allocs/op, fails. The output
# is deliberately NOT named like the baseline: bench-report refuses a -out
# that shadows the baseline's filename outside its canonical path. To
# regenerate the baseline after an intentional perf change, rerun the sweep
# with `-worst -out BENCH_transport.json` (see EXPERIMENTS.md).
bench-transport:
	go test -run '^$$' -bench 'BenchmarkStreamThroughput' -benchtime=0.3s -count=3 -benchmem ./internal/transport/ > bench_transport.out || { s=$$?; cat bench_transport.out; rm -f bench_transport.out; exit $$s; }
	cat bench_transport.out
	go run ./cmd/bench-report -json -group StreamThroughput -best -out bench-current.json -baseline BENCH_transport.json -tolerance 0.25 -alloc-tolerance 0.34 < bench_transport.out; s=$$?; rm -f bench_transport.out; exit $$s

# One-command reproduction of every paper experiment.
repro:
	go run ./cmd/paper-report

examples:
	go run ./examples/quickstart
	go run ./examples/collab-editor
	go run ./examples/shopping-cart
	go run ./examples/client-verify
	go run ./examples/todo-board
	go run ./examples/offline-sync
