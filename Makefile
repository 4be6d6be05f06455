# Development entry points. `make check` is the CI gate: full build, vet
# (bench/ and the A/B harness scripts/benchab.go included), gofmt,
# race-enabled tests (the chaos soak and hpuserve's signal drain included)
# and the fuzz seed replay.

GO ?= go

.PHONY: all build vet fmt test test-short race fuzz-smoke cover check loc bench benchmark bench-ab

all: check

build:
	$(GO) build ./...

# bench/ is its own module, so the root ./... does not compile it; vetting it
# here catches a deleted name that the harness still uses. scripts/benchab.go
# is `//go:build ignore` (a `go run` script), which ./... skips too. The
# frame codec has a big-endian branch that no little-endian host runs:
# vetting internal/api for s390x keeps it compiling.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	$(GO) vet scripts/benchab.go
	GOARCH=s390x $(GO) vet ./internal/api/...

# gofmt -l names the files it would rewrite; any name fails the check.
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

test:
	$(GO) test ./...

# Developer-sized sweep: the 240-job chaos soak (TestChaosSoak) skips under
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

check: build vet fmt race fuzz-smoke

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
