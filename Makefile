# Convenience targets; everything also works with plain go commands.

.PHONY: build test race race-par bench bench-quick sweep phase-tables trace-check soak loadgen-smoke

build:
	go build ./...

test:
	go test ./...

# The race lane CI runs: -short trims property-check sample counts.
race:
	go test -race -short ./internal/obs ./internal/bench ./internal/pmem ./internal/core ./internal/wal

# Worker-parallel race lane: the same engine/simulation packages plus the
# crash-consistency oracle, with GOMAXPROCS=4 so the group scheduler's round
# barriers, per-worker timing partitions, and the free-running spin-locked
# paths actually interleave across cores under the race detector.
race-par:
	GOMAXPROCS=4 go test -race -short ./internal/crashtest ./internal/core ./internal/pmem ./internal/bench

# Append a full host-performance run (micro ops, one YCSB cell, the default
# Figure-11 grid) to BENCH_hostperf.json. Compare entries against the first
# (baseline) run; see README "Tracking host performance".
bench:
	go run ./cmd/falcon-hostbench -label "$(shell git rev-parse --short HEAD)"

# Grid-free variant for quick checks (~10 s).
bench-quick:
	go run ./cmd/falcon-hostbench -quick -label "$(shell git rev-parse --short HEAD)-quick"

sweep:
	go run ./cmd/falcon-sweep

# Regenerate the phase-share tables in EXPERIMENTS.md from a fresh Figure-11
# sweep (the marker-delimited generated section; hand-written text survives).
# Regenerate the EXPERIMENTS.md phase-share tables: the per-commit baseline
# grid, then the same grid through leader-based group commit (its own marker
# section, so the two render side by side for the log+flush comparison).
phase-tables:
	go run ./cmd/falcon-sweep -md EXPERIMENTS.md
	go run ./cmd/falcon-sweep -md EXPERIMENTS.md -groupcommit

# Server soak: the serving layer (admission, deadlines, idempotent replay,
# drain) and every loadgen scenario — including overload at 2x the saturation
# knee and the retry storm — under the race detector against in-process
# servers (same lane CI runs).
soak:
	go test -race ./internal/server/... ./internal/loadgen

# End-to-end serving smoke: boot falcon-serve, drive one closed-loop loadgen
# round, check the falcon/loadgen/v1 report stamp and /metrics exposition,
# then SIGTERM-drain (same lane CI runs).
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# Produce a tiny trace and validate it against the Chrome trace-event schema
# (same lane CI runs).
trace-check:
	go run ./cmd/falcon-ycsb -threads 2 -records 2000 -txns 50 -warmup 10 -workloads A -trace /tmp/falcon-trace.json
	go run ./cmd/falcon-tracecheck /tmp/falcon-trace.json
