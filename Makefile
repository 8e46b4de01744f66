# scAtteR reproduction — build/test/bench entry points.

GO ?= go

.PHONY: all build vet test race cover bench ledger bench-vision bench-dataplane bench-routing bench-autoscale profile-vision fuzz figures examples chaos clean

all: build test

# The arm64 cross-build keeps the pure-Go fallbacks of internal/vision/simd
# compiling where its assembly does not; vet's asmdecl pass checks that
# assembly against its Go declarations.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

# The concurrent layers (live registry, span recorder, runtime workers,
# fault-injection transport, parallel vision kernels) always get a race
# pass. The 1-iteration bench smoke keeps the data-plane benchmarks
# compiling and running without paying full measurement time.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/core ./internal/obs/... ./internal/agent ./internal/transport ./internal/netem ./internal/vision/... ./internal/appaware ./internal/orchestrator ./internal/wire
	$(GO) test -run '^$$' -bench 'WorkerHop|DataplaneEncode' -benchtime=1x ./internal/agent
	$(GO) test -run '^$$' -bench 'Sharding' -benchtime=1x ./internal/vision/lsh
	$(GO) test -run '^$$' -bench 'KernelRank|KernelRatio' -benchtime=1x ./internal/vision/lsh ./internal/vision/match

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Regenerates every paper figure plus the extension experiments.
figures:
	$(GO) run ./cmd/scatter-bench -fig all

# One benchmark per paper figure + micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# The frame ledger (BENCHMARK.json, bench/README.md): every workload on
# the real runtime, end-to-end metrics plus the traced per-layer table.
# This is what a performance change is judged on; one workload at a time
# is `bash bench/run.sh --workload W --seed N --seconds 20 --trace 0`.
ledger:
	$(GO) run ./bench

# Data-plane allocation/throughput benchmarks (codec, transport send,
# full worker hop) with -benchmem, exported to BENCH_dataplane.json so
# regressions in allocs/op and B/op are visible run over run. The
# allocation *budgets* are enforced as plain tests in `make test`
# (internal/wire, internal/transport, internal/agent alloc_test.go);
# this target records the trajectory.
bench-dataplane:
	$(GO) test -run '^$$' -bench 'WorkerHop|DataplaneEncode|Marshal|Unmarshal|Clone|Send180KB' -benchmem \
		./internal/agent ./internal/wire ./internal/transport \
		| $(GO) run ./cmd/benchjson -o BENCH_dataplane.json -note "make bench-dataplane"

# Stats-driven replica selection on the forward path: ns/op and allocs/op
# of StatsRouter.Pick (power-of-two-choices over live windows), exported
# to BENCH_routing.json. The 0 allocs/op budget is enforced as a plain
# test in internal/agent alloc_test.go; this records the latency.
bench-routing:
	$(GO) test -run '^$$' -bench 'ReplicaPick' -benchmem ./internal/agent \
		| $(GO) run ./cmd/benchjson -o BENCH_routing.json -note "make bench-routing"

# Closed-loop autoscaling headline: the simulated 4-client saturation
# ramp under static vs hardware vs qos policies, exported to
# BENCH_autoscale.json. Per policy: time-to-react (react_s; the full run
# length when the policy never acts), delivered FPS per client (fps; the
# paper targets 30), and replicas added (actions). One deterministic
# iteration per policy — the sim is virtual-time, so -benchtime=1x is
# both fast and reproducible.
bench-autoscale:
	$(GO) test -run '^$$' -bench 'AutoscalePolicy' -benchtime=1x ./internal/appaware \
		| $(GO) run ./cmd/benchjson -o BENCH_autoscale.json -note "make bench-autoscale"

# CPU-profiles the vision kernel benchmarks for flamegraph inspection
# (see EXPERIMENTS.md): writes cpu_lsh.pprof / cpu_match.pprof; open
# with `go tool pprof -http=: cpu_lsh.pprof`.
profile-vision:
	$(GO) test -run '^$$' -bench 'Kernel' -benchtime 20x -cpuprofile cpu_lsh.pprof \
		-o /dev/null ./internal/vision/lsh
	$(GO) test -run '^$$' -bench 'Kernel' -cpuprofile cpu_match.pprof \
		-o /dev/null ./internal/vision/match

# Smoke-runs every vision kernel benchmark once at 1, 4, and 8 cores.
# Worker pools size themselves from GOMAXPROCS, so each -cpu row measures
# the pool at that width; see EXPERIMENTS.md for the full scaling recipe.
bench-vision:
	$(GO) test -run '^$$' -bench Vision -benchtime=1x -cpu 1,4,8 .
	$(GO) test -run '^$$' -bench . -benchtime=1x -cpu 1,4,8 ./internal/vision/...
	$(GO) test -run '^$$' -bench Primary720p -benchtime=1x -cpu 1,4,8 ./internal/core

# Short fuzzing passes over the wire/payload decoders.
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalBinary -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzDecodePayload -fuzztime 30s
	$(GO) test ./internal/vision/lsh -fuzz FuzzSketchMatchesHash -fuzztime 30s

# Chaos suite: fault-injected transports, mid-run partitions, machine
# kills, and the end-to-end failover/recovery acceptance run — all under
# the race detector.
chaos:
	$(GO) test -race -run 'Chaos|Failover|Fault|Partition|Reconnect|StatsRouting' -v ./internal/transport ./internal/agent

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multiclient
	$(GO) run ./examples/netem
	$(GO) run ./examples/failover

clean:
	$(GO) clean ./...
	rm -rf internal/wire/testdata internal/core/testdata internal/vision/lsh/testdata
	rm -rf .bench_build bench/out
