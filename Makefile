# pyro — build/test entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs and CI runs are identical.

GO ?= go

.PHONY: build test race race-serve chaos run-patterns bench fuzz-smoke perf-ab fmt vet lint-pyro loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: a smoke test that the benchmark
# harness itself stays healthy, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Every fuzz target for 10 s each, past its seed corpus: a smoke pass that
# the codec, store, limit, page-format, spill-plan, kept-tail cut and
# governor-level invariants still hold on inputs nobody wrote down, not a campaign.
# `go test -fuzz` takes one target per run, so they run one after another.
FUZZ_TARGETS = \
	./internal/keys:FuzzFixedPrefixAgreesWithFullCompare \
	./internal/keys:FuzzCodecAgreesWithComparator \
	./internal/keys:FuzzAppendEncoded \
	./internal/xsort:FuzzStoreBackedSort \
	./internal/xsort:FuzzMRSLimit \
	./internal/xsort:FuzzSpillPlan \
	./internal/xsort:FuzzTailCut \
	./internal/govern:FuzzGovernorLevel \
	./internal/storage:FuzzReadChunk \
	./internal/types:FuzzDecodeTuple \
	./internal/types:FuzzEncodedTupleLen
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $${t#*:}"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 10s "$${t%%:*}" || exit 1; \
	done

# Paired end-to-end A/B of the benchmark (cmd/pyro-perf): BASE's committed
# files against the working tree, PAIRS alternating pairs at seeds 1..PAIRS,
# verdict per workload and metric from `pyro-perf -compare`. What a change
# that claims (or must rule out) a performance effect runs, e.g.
#   make perf-ab BASE=HEAD~1 WORKLOAD=sort_spill PAIRS=10
# TRACE=1 makes both sides traced runs, for the per-layer rows. OUT=FILE
# also writes the run's trajectory record (medians, quartiles, pairs won,
# verdicts) — the BENCH_<pr>.json a PR commits.
BASE ?= HEAD
WORKLOAD ?= all
PAIRS ?= 10
SECS ?= 20
TRACE ?= 0
OUT ?=
perf-ab:
	scripts/perf-ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SECS) $(TRACE) $(OUT)

# The serving layer's concurrency under the race detector at a forced
# GOMAXPROCS: governor fairness/starvation, admission, plan cache, the
# concurrent-cursor tests and the chunked executor's pooled-buffer paths.
RACE_SERVE_RUN = Govern|Gate|Admission|Concurrent|Starv|PlanCache|Serving|Grant|Chunk
race-serve:
	GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(RACE_SERVE_RUN)' ./...

# Fault-sweep harness at full resolution: every page transfer of every
# plan-matrix arm is failed (and panicked) in turn, under the race
# detector with GOMAXPROCS forced, plus the temp-quota ENOSPC arm, the
# four context-deadline tests and the in-call abort of every looping
# operator. The default `make test` runs the same sweep strided.
CHAOS_RUN = Chaos|QueryTimeoutAbortsSort|WithDeadlineInPast|DeadlineWhile|InCallAbortReachesEveryLoop
chaos:
	PYRO_CHAOS_FULL=1 GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(CHAOS_RUN)' .

# Every `|` alternative of the race-serve and chaos -run patterns must still
# match a test: a renamed or deleted test must not leave a target quietly
# running less than it says (scripts/check-run-patterns.sh).
run-patterns:
	GO="$(GO)" scripts/check-run-patterns.sh '$(RACE_SERVE_RUN)' ./...
	GO="$(GO)" scripts/check-run-patterns.sh '$(CHAOS_RUN)' .

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# pyro's own static-analysis suite (internal/lint, cmd/pyro-lint): arena
# release discipline, abort polling, %w error wrapping, I/O-ledger routing
# and counter determinism, proved over the whole module with zero
# pyro:nolint suppressions allowed. Stdlib-only — needs nothing beyond
# the Go toolchain.
lint-pyro:
	$(GO) run ./cmd/pyro-lint -max-suppressions 0 ./...

# Go source lines per package, non-test and test files apart, and in total
# (`go list` names each package's files, `wc` counts them): the size a change
# adds or removes, package by package. With BASE given, e.g.
#   make loc BASE=HEAD~1
# it also prints each package's change against BASE's committed files.
loc:
	@GO="$(GO)" scripts/loc.sh $(if $(filter command line environment,$(origin BASE)),$(BASE))

ci: build vet fmt lint-pyro run-patterns test race race-serve chaos bench fuzz-smoke
