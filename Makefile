GO ?= go

.PHONY: build test check check-noanalyze race lint analyze allocs bench bench-smoke bench-pairs demo demo-lossy

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package so
# order-dependent tests (shared globals, leftover registry state) fail
# loudly instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# check is the pre-merge gate: the bsvet static-analysis suite, the
# allocation budgets without -race, and everything in check-noanalyze.
check: analyze allocs check-noanalyze

# check-noanalyze is the gate list itself, and the CI split of check
# (check.yml runs analyze as its own parallel job with its own build
# cache and a diagnostics artifact on failure): lint, go vet, and the
# whole suite once under the race detector, shuffled, with the test
# cache defeated (-count=1) so the crash matrices, the layout goldens,
# the fan-out hand-off and the federation merge always touch the
# filesystem and the scheduler. No test needs a name a regex here
# matches. Local runs should use plain `make check`.
check-noanalyze: lint
	$(GO) vet ./...
	$(GO) test -race -shuffle=on -count=1 ./...

# analyze runs booterscope's repo-invariant static-analysis suite
# (cmd/bsvet): determinism (no wall-clock or global-rand reads in
# simulation packages), batchownership (no use of a pipe.Batch after
# hand-off), telemetry (registry registration, metric-name prefixes,
# label-cardinality caps), lockdiscipline (//bsvet:guards mutex
# invariants), goroutinelifecycle (every goroutine in a long-running
# package has a shutdown path), and deadcode (on this whole-module
# load: nothing exported from internal/ without an outside caller,
# nothing unexported without a caller). A //bsvet: directive other
# than allow and guards is itself a finding. Diagnostics come out in
# the standard vet file:line:col format and any finding fails the
# build.
analyze:
	$(GO) run ./cmd/bsvet -timings ./...

# allocs runs the per-record allocation budgets — every package's
# TestHotPathAllocs table (testing.AllocsPerRun, each row's budget and
# reason beside it) and the other *Allocs tests — without -race: under
# it sync.Pool.Put drops a quarter of its items, so the rows on pooled
# slabs skip in check-noanalyze and are gated only here.
allocs:
	$(GO) test -count=1 -run 'Allocs$$' ./internal/...

# bench runs the repo's benchmark harness (bench/README.md): the replay,
# ingest and live paths end to end, five workloads declared in
# BENCHMARK.json, written as one artifact with its environment block.
# BENCH_latest.json is git-ignored; compare two artifacts with
# `go run ./bench -compare A.json B.json`. BENCH_4/7/8/9.json are frozen
# history from before the harness and are regenerated by nothing.
bench:
	$(GO) run ./bench -out BENCH_latest.json

# bench-pairs runs one workload in N alternated pairs, PARENT's ./bench
# against the working tree's, each built once, and prints every run's
# end-to-end metrics, each side's median [q1, q3] and the pairs each
# side won (scripts/bench-pairs.sh). BENCH_ARGS passes flags through,
# e.g. BENCH_ARGS='-smoke --seconds 1'.
PARENT ?= HEAD~1
WORKLOAD ?= live_paced
N ?= 10
SEED ?= 17
bench-pairs:
	scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(N) $(SEED) $(BENCH_ARGS)

# bench-smoke runs the federated-scan, flowstore, classify (classifier,
# the monitor's row add and BenchmarkMonitorAddCols — columnar slabs
# whose bins spill their source sets and expire, as in production — and
# the Figure 5 attack counter's columnar add), Figure 2(b)'s victim
# scatter, Section 5.2 (Figure 4, Figure 5, full pipeline,
# Welch-vs-rank ablation), the classifier ablations (size threshold,
# conservative rules, sampling rate) and generator
# (BenchmarkDayTier2, BenchmarkDayIXP: records per day and bytes
# allocated per record) benchmarks for one iteration — no timing
# claims, just proof they still execute (go vet already compiles every
# benchmark; the full `make bench` run is manual, and
# bench/bench_test.go smokes its five workloads in the suite).
bench-smoke:
	$(GO) test ./internal/core -run xxx -bench BenchmarkFederatedScan -benchtime 1x -count=1
	$(GO) test ./internal/flowstore -run xxx -bench . -benchtime 1x -count=1
	$(GO) test ./internal/classify -run xxx -bench . -benchtime 1x -count=1
	$(GO) test . -run xxx -bench 'Figure2bVictimScatter|Figure4ReflectorTraffic|Figure5AttackCounts|TakedownFullPipeline|AblationWelchVsRank|AblationSizeThreshold|AblationConservativeRules|AblationSamplingRate' -benchtime 1x -count=1
	$(GO) test ./internal/takedown -run xxx -bench . -benchtime 1x -count=1
	$(GO) test ./internal/trafficgen -run xxx -bench 'BenchmarkDayTier2|BenchmarkDayIXP' -benchtime 1x -count=1

# lint enforces formatting. The telemetry-registration rule that used
# to live in scripts/lint-telemetry.sh is now the type-aware telemetry
# analyzer in `make analyze`.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

demo:
	$(GO) run ./cmd/collector -demo -listen 127.0.0.1:0

# demo-lossy routes the demo traffic through the chaos proxy and prints
# the fault ledger next to the collector's loss accounting.
demo-lossy:
	$(GO) run ./cmd/collector -demo -listen 127.0.0.1:0 -loss 0.05 -reorder 0.01
