# scAtteR reproduction — build/test/bench entry points.

GO ?= go

.PHONY: all build vet test reach race cover bench ledger bench-vision profile-vision fuzz figures examples chaos handover clean

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
# pass. The vision and core oracle tests run a second time with every
# internal/vision/simd kernel on its pure-Go twin (a link-time poke at an
# unexported variable, not a setting), so the fallback an AVX2 host never
# takes stays bit-identical too. The 1-iteration bench smoke keeps the
# data-plane, routing, autoscaling and kernel benchmarks compiling and
# running without paying full measurement time; the allocation budgets
# themselves are plain tests (internal/wire, internal/transport,
# internal/agent alloc_test.go). The last line is the reachability gate.
test:
	$(GO) test ./...
	$(GO) test -ldflags '-X github.com/edge-mar/scatter/internal/vision/simd.forceGo=1' ./internal/vision/... ./internal/core
	$(GO) test -race ./internal/core ./internal/obs/... ./internal/agent ./internal/transport ./internal/netem ./internal/vision/... ./internal/appaware ./internal/orchestrator ./internal/wire
	$(GO) test -run '^$$' -bench 'WorkerHop|DataplaneEncode|ReplicaPick' -benchtime=1x ./internal/agent
	$(GO) test -run '^$$' -bench 'AutoscalePolicy' -benchtime=1x ./internal/appaware
	$(GO) test -run '^$$' -bench 'KernelRank|KernelRatio|KernelAdd|RANSACClip' -benchtime=1x ./internal/vision/lsh ./internal/vision/match
	$(GO) test -run '^$$' -bench 'EncodingClip' -benchtime=1x ./internal/core
	$(GO) test -run '^$$' -bench 'Kernels' -benchtime=1x ./internal/vision/simd
	$(GO) test -run '^$$' -bench 'DetectClip|DescribeClip|Detect320x180' -benchtime=1x ./internal/vision/sift
	$(GO) run ./internal/tools/reach

# Lists every function no binary links (cmd/*, examples/*, bench), built
# without inlining and read with go tool nm; prints nothing and passes
# when the only ones are in internal/tools/reach/allowlist.txt, each with
# its reason.
reach:
	$(GO) run ./internal/tools/reach

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

# CPU-profiles the vision kernel benchmarks for flamegraph inspection
# (see EXPERIMENTS.md): writes cpu_lsh.pprof (queries on the
# bigdb-100k-shaped index, whose arena does not fit a cache),
# cpu_build.pprof (building that index from two goroutines, as its
# set-up does) / cpu_match.pprof, and
# cpu_full.pprof of one whole recognition frame (primary → sift →
# encoding → lsh → matching, BenchmarkFastPathFrame/full) — the split
# EXPERIMENTS and ROADMAP quote. Open with `go tool pprof -http=:
# cpu_full.pprof`.
profile-vision:
	$(GO) test -run '^$$' -bench 'KernelQuery/bigdb-100k' -benchtime 3000x -cpuprofile cpu_lsh.pprof \
		-o /dev/null ./internal/vision/lsh
	$(GO) test -run '^$$' -bench 'KernelBuild/bigdb-100k' -benchtime 5x -cpuprofile cpu_build.pprof \
		-o /dev/null ./internal/vision/lsh
	$(GO) test -run '^$$' -bench 'Kernel' -cpuprofile cpu_match.pprof \
		-o /dev/null ./internal/vision/match
	$(GO) test -run '^$$' -bench 'FastPathFrame/full' -cpuprofile cpu_full.pprof \
		-o /dev/null ./internal/core

# Smoke-runs every vision kernel benchmark once at 1, 4, and 8 cores.
# Worker pools size themselves from GOMAXPROCS, so each -cpu row measures
# the pool at that width; see EXPERIMENTS.md for the full scaling recipe.
bench-vision:
	$(GO) test -run '^$$' -bench Vision -benchtime=1x -cpu 1,4,8 .
	$(GO) test -run '^$$' -bench . -benchtime=1x -cpu 1,4,8 ./internal/vision/...
	$(GO) test -run '^$$' -bench Primary720p -benchtime=1x -cpu 1,4,8 ./internal/core

# Short fuzzing passes over the wire/payload decoders, UDP reassembly, the
# lsh query path against its reference, and every AVX2 kernel against its
# Go twin: the lsh and ratio-test row kernels and the ratio test's float32
# screen, the convolution, the DoG subtraction and extrema scan, the
# gradient patch and the descriptor spread.
# The seed corpora under internal/vision/{lsh,simd}/testdata are
# committed, so plain go test replays them.
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalBinary -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzDecodePayload -fuzztime 30s
	$(GO) test ./internal/vision/lsh -fuzz FuzzQueryMatchesReference -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzDotHighHalfMatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzDot16MatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzSqDist16MatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzSqDistScreen16MatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzConvMatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzGradMatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzDescRowMatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzSubMatchesTwin -fuzztime 30s
	$(GO) test ./internal/vision/simd -fuzz FuzzExtremaMatchesTwin -fuzztime 30s
	$(GO) test ./internal/transport -fuzz FuzzReassembly -fuzztime 30s

# Chaos suite: fault-injected transports, mid-run partitions, machine
# kills, the end-to-end failover/recovery acceptance run, and the node
# wiring tests that arm a fault block — all under the race detector.
chaos:
	$(GO) test -race -run 'Chaos|Failover|Fault|Partition|Reconnect|StatsRouting|NodeDeployFiles' -v ./internal/transport ./internal/agent

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multiclient
	$(GO) run ./examples/netem
	$(GO) run ./examples/failover

# The hand-over check: lists every process a build, test, example or
# ledger run can leave behind (the runtime binaries, go run/test/build and
# their /exe/ children, test binaries, bench/run.sh and its .bench_build
# binaries) and fails if one is still running. Empty quotes split the
# pattern so this recipe's own shell command line cannot match it.
handover:
	@if pgrep -fa '\.bench''_build/|scatter''-(node|orchestrator|client|bench|spans)|\.test( |$$)|/ex''e/|bench/run\.sh|go (run|test|build) '; then \
		echo "make handover: the processes above are still running"; exit 1; fi

clean:
	$(GO) clean ./...
	rm -rf internal/wire/testdata internal/core/testdata internal/transport/testdata
	rm -rf .bench_build bench/out
