GO ?= go
DATE := $(shell date +%F)

.PHONY: all check build test vet test-race race bench bench-short benchmark benchmark-smoke microbench fuzz fuzz-seeds tools-smoke triage-smoke chaos-short chaos cache-warm study variability figures clean

all: check

# check is the default gate: build, vet, full test suite, the
# race-detector pass over the concurrency-bearing packages, the fuzz
# seed corpus, a short benchmark smoke run (proving the harness and
# every scenario still execute; numbers are not recorded), the study
# benchmark's smoke pass (every workload's paths and its digest gate),
# the file-based tools on one trace file, the tiered triage threshold
# sweep, and the bounded chaos soak.
check: build vet test test-race fuzz-seeds bench-short benchmark-smoke tools-smoke triage-smoke chaos-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# test-race covers the packages with real goroutine concurrency: the
# DES engine's cross-goroutine Stop, the campaign worker pool, the
# triage scheduler + classifier the tiered campaign drives from its
# workers, and the trace cache's singleflight path that those workers
# contend on. The network models run single-threaded on one engine and
# hold no goroutines or atomics, so simnet is not in the list.
test-race:
	$(GO) test -race ./internal/des/... ./internal/core/... ./internal/triage/... ./internal/classifier/... ./internal/tracecache/...

# race adds mfact, whose goroutine-per-rank reference replayer runs
# under its tests.
race: test-race
	$(GO) test -race ./internal/mfact/

# bench runs the pinned benchmark scenarios (cmd/bench) over the fixed
# trace set and writes a dated BENCH_<date>.json snapshot. Pass
# BASELINE=<file> to embed a comparison against a previous snapshot.
bench:
ifdef BASELINE
	$(GO) run ./cmd/bench -out BENCH_$(DATE).json -baseline $(BASELINE)
else
	$(GO) run ./cmd/bench -out BENCH_$(DATE).json
endif

# bench-short is the smoke variant wired into `make check`: one short
# measurement per scenario, results printed but not written. The
# scenario list includes trace/codec-open-v3, so this smoke run
# exercises the zero-copy mmap open path end to end.
bench-short:
	$(GO) run ./cmd/bench -short -out ""

# benchmark runs the study benchmark of BENCHMARK.json (benchmark/):
# four named campaign workloads, end-to-end metrics from real
# `tradeoff -spec` runs, then per-layer metrics from a traced run, with
# the report in benchmark/out/report.json (about four minutes). Compare
# two reports with `go run ./benchmark -compare A.json B.json`.
benchmark:
	$(GO) run ./benchmark

# benchmark-smoke is the variant wired into `make check`: two 16-rank
# traces per workload, checking every path and the clock-free digest
# gate (repetitions, 1 vs 2 workers, real run vs walk, cold vs warm),
# not times.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

# microbench runs the in-package go test benchmarks (finer-grained
# than cmd/bench's scenario snapshots).
microbench:
	$(GO) test -bench=. -benchmem ./...

# fuzz-seeds replays the committed fuzz corpora as ordinary tests
# (plain `go test` already includes them; this target names them so a
# corpus regression fails loudly on its own).
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/core/ ./internal/mpisim/ ./internal/trace/ ./internal/tracecache/ ./internal/spec/

# fuzz runs coverage-guided fuzzing on the checkpoint loader.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzCheckpointLoader -fuzztime=$(FUZZTIME) ./internal/core/

# tools-smoke drives the file-based tools end to end in a temporary
# directory: tracegen writes one codec-v3 trace, traceinfo, mfact
# (sweep and grid) and sstsim read it back, and dumpiconv converts the
# two-rank DUMPI fixture for traceinfo to read.
DUMPI_FIXTURE := internal/trace/testdata/dumpi
tools-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && set -e && \
	$(GO) build -o "$$dir/bin/" ./cmd/tracegen ./cmd/traceinfo ./cmd/mfact ./cmd/sstsim ./cmd/dumpiconv && \
	"$$dir/bin/tracegen" -out "$$dir/traces" -app FT -class S -ranks 16 > /dev/null && \
	trace=$$(ls "$$dir"/traces/*.htrc) && \
	"$$dir/bin/traceinfo" -v "$$trace" > /dev/null && \
	"$$dir/bin/mfact" "$$trace" > /dev/null && \
	"$$dir/bin/mfact" -grid "$$trace" > /dev/null && \
	"$$dir/bin/sstsim" -model flow "$$trace" > /dev/null && \
	"$$dir/bin/dumpiconv" -out "$$dir/imported.htrc" $(DUMPI_FIXTURE)/rank0.txt $(DUMPI_FIXTURE)/rank1.txt > /dev/null && \
	"$$dir/bin/traceinfo" "$$dir/imported.htrc" > /dev/null && \
	echo "tools-smoke: ok"

# triage-smoke is the threshold-sweep smoke wired into `make check`:
# the differential/property suites for the tiered scheduler, then one
# reduced tiered campaign at each threshold endpoint and one interior
# point, proving the full cmd wiring (flags, policy, report) executes.
triage-smoke:
	$(GO) test -run 'TestTriage|TestFrontier|TestPlan|TestParseTriageBudget' ./internal/core/ ./internal/triage/
	$(GO) run ./cmd/tradeoff -stride 24 -maxranks 64 -q -triage -triage-threshold 0 > /dev/null
	$(GO) run ./cmd/tradeoff -stride 24 -maxranks 64 -q -triage -triage-threshold 0.5 -triage-budget 8 > /dev/null
	$(GO) run ./cmd/tradeoff -stride 24 -maxranks 64 -q -triage -triage-threshold 1 > /dev/null

# chaos-short is the bounded soak wired into `make check`: 20 seeded
# fault schedules against the campaign pipeline, each run twice for
# reproducibility, killed, and resumed (see cmd/chaos for the
# invariants). Deterministic: the same seeds always inject the same
# faults.
CHAOS_SEEDS ?= 20
chaos-short:
	$(GO) run ./cmd/chaos -seed 1 -runs $(CHAOS_SEEDS)

# chaos is the long soak: more seeds, a larger suite, all four schemes.
chaos:
	$(GO) run ./cmd/chaos -seed 1 -runs 200 -traces 12 -schemes mfact,packet,flow,packetflow

# cache-warm pre-populates the trace cache for the small-suite
# manifest, so a following `cmd/tradeoff -trace-cache $(CACHE_DIR)`
# campaign runs entirely on verified mmap hits. STRIDE/MAXRANKS take
# the same meaning as tracegen's flags.
CACHE_DIR ?= .tracecache
STRIDE ?= 1
MAXRANKS ?= 0
cache-warm:
	$(GO) run ./cmd/tracegen -warm $(CACHE_DIR) -stride $(STRIDE) -maxranks $(MAXRANKS)

# variability regenerates the committed platform-variability study:
# per-scheme prediction error vs measured as link jitter, node
# heterogeneity, and OS-noise amplification are swept in the
# ground-truth stamping (schemes stay noise-blind; see DESIGN.md §16).
# The table lands on stdout; results/variability.txt archives it with
# a provenance header.
variability:
	$(GO) run ./cmd/tradeoff -spec specs/variability.yaml -q

# The full 235-trace study (Tables I-II, Figures 1-5, Table IV, rates).
study:
	$(GO) run ./cmd/tradeoff -save results/results.json -figdir results/figures | tee results/study.txt
	$(GO) run ./cmd/predictor -load results/results.json | tee results/prediction.txt
	$(GO) run ./cmd/diffreport -load results/results.json > results/diffreport.txt
	$(GO) run ./cmd/diffreport -load results/results.json -frontier > results/frontier.txt

clean:
	rm -f test_output.txt bench_output.txt
