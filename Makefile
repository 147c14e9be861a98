# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test lint fuzz bench bench-smoke

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs formatting, go vet, and the repository's own simlint suite
# (internal/analysis): determinism, map-order, checkpoint-coverage,
# atomic-write and telemetry-handle contracts. See DESIGN.md §11.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/simlint ./...

# fuzz exercises the trace and decision codecs from their committed seed
# corpora (internal/{workload,telemetry}/testdata/fuzz) and the checkpoint
# envelope from its in-code seeds for a short, CI-sized budget.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzTraceCodec -fuzztime=20s ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzDecisionCodec -fuzztime=20s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=20s ./internal/checkpoint

# bench regenerates the committed run-summary baseline, BENCH_runs.json,
# which the CI regression gate checks with `arrayreport check`. Run it after
# a deliberate performance or metrics change and commit the diff; CI never
# regenerates the file.
#
# The guard refuses to regenerate the baseline from a dirty working tree
# (changes to BENCH_runs.json itself are fine): a baseline must describe
# exactly one committed tree, or the numbers are unattributable. Override
# with BENCH_ALLOW_DIRTY=1 for local experiments you won't commit.
bench:
	@if [ -z "$$BENCH_ALLOW_DIRTY" ] && \
		! git diff --quiet HEAD -- . ':!BENCH_runs.json'; then \
		echo "bench: working tree has uncommitted changes beyond BENCH_runs.json;"; \
		echo "bench: commit them first so the baseline maps to one tree,"; \
		echo "bench: or set BENCH_ALLOW_DIRTY=1 to override."; \
		exit 1; fi
	rm -rf .bench-runs
	$(GO) run ./cmd/experiments -fig 7 -scale 0.02 -runs-dir .bench-runs
	$(GO) run ./cmd/arrayreport baseline -store .bench-runs -command "make bench" -out BENCH_runs.json
	rm -rf .bench-runs

# bench-smoke compiles and runs every benchmark once — a fast CI-sized
# check that the benchmarks themselves still work.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
