# Development entry points. `make check` is the CI gate: full build, vet,
# gofmt, race-enabled tests, and the serving layer's self-checking load smoke.

GO ?= go

.PHONY: all build vet fmt test test-short race fuzz-smoke cover smoke obs-smoke chaos-smoke api-smoke check loc bench benchmark bench-ab

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l names the files it would rewrite; any name fails the check.
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

test:
	$(GO) test ./...

# Developer-sized sweep: the 240-job soaks in cmd/hpuserve skip under
# -short, keeping this under ~30s of wall clock.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Seed-corpus replay of the fuzzers for input that arrives from outside the
# process — the wire formats (internal/api) and the persisted calibration
# (internal/autotune): no fuzzing engine, just the f.Add seeds and the
# checked-in testdata/fuzz crashers as ordinary table rows. Continuous
# fuzzing is `go test -fuzz=FuzzReadInt32Frame ./internal/api/`,
# `go test -fuzz=FuzzLoad$$ ./internal/autotune/` and friends; this target is
# the cheap regression gate CI runs on every check.
fuzz-smoke:
	$(GO) test -run '^Fuzz' ./internal/api/ ./internal/autotune/

# Coverage gate. COVER_BASELINE is the recorded floor for the -short suite's
# total statement coverage; lower it only with a PR that explains why.
COVER_BASELINE = 60.0

cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t=$$total -v b=$(COVER_BASELINE) 'BEGIN { \
		if (t + 0 < b + 0) { printf "cover: total %.1f%% is below the %.1f%% baseline\n", t, b; exit 1 } \
		printf "cover: total %.1f%% meets the %.1f%% baseline\n", t, b }'

# 5-second self-checking load test of the job server on the native backend:
# mixed algorithms and strategies, random priorities and cancellations.
# Exits nonzero on any failed job, accounting mismatch, or goroutine leak.
smoke:
	$(GO) run ./cmd/hpuserve --smoke

# Observability smoke: same load with the HTTP endpoints served on a
# loopback port, then a self-scrape of /metrics asserting the queue-depth,
# per-priority latency, and transfer-byte metrics advanced under load.
obs-smoke:
	$(GO) run ./cmd/hpuserve --obs-smoke --duration 2s

# Chaos soak under the race detector: 240 jobs through a seeded fault
# injector (~20% device-fault rate), retry/hedge/fallback policies and the
# circuit breaker active. Exits nonzero on any wrong result, unbounded
# shedding, silent reliability metrics, or goroutine leak; writes the fault
# report CI uploads as an artifact. The second run soaks a 2-device pool
# with faults injected into one device only: that device must trip its
# breaker and auto-drain, every job must still verify, and no healthy job
# may be shed with ErrDegraded.
chaos-smoke:
	$(GO) run -race ./cmd/hpuserve --chaos --chaos-report CHAOS_report.json
	$(GO) run -race ./cmd/hpuserve --chaos --chaos-devices 2 --chaos-fault-rate 0.4 --chaos-report CHAOS_pool_report.json

# Remote-serving smoke over real TCP: boots the HTTP/JSON job API, drives 64
# concurrent clients with a mixed mergesort/scan/sum workload (every result
# verified bit-identical against a local reference), asserts overload
# surfaces as 429 + Retry-After, streams /events for per-level progress,
# scrapes /metrics, then SIGTERMs itself and asserts the drain refuses new
# submissions while completing every in-flight job before the listener
# closes.
api-smoke:
	$(GO) run ./cmd/hpuserve --api-smoke

check: build vet fmt race fuzz-smoke smoke

# The size a simplicity PR or a ROADMAP re-anchor quotes: non-test Go lines
# outside bench/ (which is its own module), per package directory and in
# total, smallest first.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -n

bench:
	$(GO) test -bench=. -benchmem .

# The repository's benchmark (BENCHMARK.json, bench/README.md): one pass of
# all five workloads through the library, the simulator and the serving
# stack, every result verified against plain Go, written to
# bench/out/result.json. `bash bench/run.sh --workload W --seed N --seconds S
# --trace 0|1` runs one workload.
benchmark:
	bash bench/run.sh --runs 1

# A performance claim, measured the way it has to be reported: BASE is
# unpacked with git archive under .bench_build/ab/, both sides are built by
# their own bench/run.sh, and WORKLOAD — one name, a comma-separated list, or
# `all` for the five in BENCHMARK.json — runs as PAIRS alternating pairs (odd
# pairs BASE first, even pairs the working tree first, seed+i on both sides),
# the listed workloads back to back inside each pair, so the claimed row and
# the rows that should not move come from the same minutes of the same host.
# Each side's runs are merged into one result file; a pairs-won / medians /
# IQR table per workload and one `bench/run.sh --compare` give the verdict.
# Optional: SECONDS, SEED, TRACE=1 (traced runs, not compared).
PAIRS ?= 10
bench-ab:
	$(GO) run scripts/benchab.go -base "$(BASE)" -workload "$(WORKLOAD)" -pairs $(PAIRS) \
		$(if $(SECONDS),-seconds $(SECONDS)) $(if $(SEED),-seed $(SEED)) $(if $(TRACE),-trace $(TRACE))
