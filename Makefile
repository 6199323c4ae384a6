# Standard-library-only Go module; these targets just bundle the
# invocations CI and contributors run by hand.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check build vet lint test bench bench-compare stress scenarios fuzz-short docs-drift

## check: the full gate — build everything, lint (gofmt + vet), verify
## the metric docs are in sync, test under -race (including the
## fast-path and per-thread-log equivalence properties in
## internal/sched and internal/core), stress the search engine, run
## the failure-injection matrix and generator sweep, and give every
## fuzz target a short budget (which includes the per-thread merge
## fuzzer FuzzShardMergeRoundTrip and the scenario-generator
## round-tripper FuzzScenarioGen). The bench comparison is advisory
## here (the leading -): recorded BENCH numbers came from whatever
## host wrote them, so a drift warning must not fail an unrelated
## change — run bench-compare directly for the enforcing exit code.
check: build lint docs-drift stress scenarios fuzz-short
	$(GO) test -race ./...
	-$(GO) run ./cmd/benchcmp

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: formatting and static checks — fail if any file needs gofmt,
## then go vet everything.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

## stress: the concurrency gate — the work-stealing search (core) and
## the experiment cell pool (harness) twice under -race, so the
## dedup/commit/cache/dispatch paths get different goroutine schedules
## on each pass.
stress:
	$(GO) test -race -count=2 ./internal/core/...
	$(GO) test -race -count=2 -run 'TestPool|TestJobs|TestMetricsDeterministic' ./internal/harness/...
	$(GO) test -race -count=2 -run 'TestProp|TestRunCancellation' ./internal/sched/...

## scenarios: the failure-injection matrix (every app x failure class
## driven to its declared outcome and replayed to reproduction) plus a
## 100-seed generated-program sweep (buggy variants manifest and
## reproduce, patched variants stay clean). The in-test sweep slice and
## the exhaustive ground-truth prover run under go test; the wide sweep
## goes through the presgen CLI.
scenarios:
	$(GO) test -run 'TestMatrix|TestGen|TestInject' ./internal/scenario ./internal/sched
	$(GO) run ./cmd/presgen -sweep 100

## fuzz-short: run every native fuzz target in internal/trace and
## internal/scenario for FUZZTIME each (the canonical-key
## collision-freedom targets, the decoder robustness targets, and the
## generator round-tripper), seeded from testdata/fuzz corpora.
fuzz-short:
	@set -e; for pkg in ./internal/trace ./internal/scenario; do \
		for t in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$t ($(FUZZTIME)) [$$pkg]"; \
			$(GO) test -run NONE -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

## bench: substrate micro-benchmarks, including the observability
## overhead pairs (SchedulingPointMetricsOff/On, ReplaySearchMetricsOff/On)
## that back OBSERVABILITY.md's disabled-means-free claim, the
## wire-format/harness-pool benches (BenchmarkEncodeSketch*,
## BenchmarkHarnessMatrix*), and the grant-loop trio
## (BenchmarkSchedulingPoint/SingleStep/Batch) with its zero-alloc
## gate (TestSchedGrantLoopAllocFree). presperf distills the headline
## numbers — encode bytes/entry and ns/entry per scheme v1 vs v2,
## E2/E8 matrix wall-clock at -j1 vs -j GOMAXPROCS, the run-grant
## fast path's per-app steps/sec, handoffs/step, and allocs/step
## before vs after (at each -procs setting), the record path's
## global-log vs per-thread-log fleet throughput across the -procs
## sweep, and the always-on record path's epoch-ring-off vs
## epoch-ring-on before/after — into BENCH_pr10.json. A -procs value
## above the host's CPU count is warned about and its rows are marked
## above_num_cpu.
bench:
	$(GO) test -run TestSchedGrantLoopAllocFree -bench . -benchtime 1s .
	$(GO) run ./cmd/presperf -out BENCH_pr10.json -procs 1,2,4

## bench-compare: diff the two newest BENCH_*.json reports (presperf
## output) and fail if a shared headline — per-app best steps/sec,
## per-scheme encoded bytes/entry — regressed by more than 10%.
bench-compare:
	$(GO) run ./cmd/benchcmp

## docs-drift: every pres_-prefixed metric name registered anywhere in
## the source (internal/obs wiring in sched/core/harness/cmd) must have
## a row in OBSERVABILITY.md, every pres_ metric row in OBSERVABILITY.md
## must name a "pres_..." literal in non-test code under internal/ or
## cmd/, and every CLI flag README.md mentions in
## inline code (`-flag`) must be registered by some tool in cmd/; a
## metric or flag documented without code (or vice versa) fails the
## gate. FLAG_ALLOW lists README tokens that look like flags but are
## not ours (e.g. go test's -race).
FLAG_ALLOW = race bench benchtime
docs-drift:
	@set -e; \
	names=$$(grep -ohrE '"pres_[a-z_]+"' --include='*.go' --exclude='*_test.go' internal cmd | tr -d '"' | sort -u); \
	missing=0; \
	for n in $$names; do \
		if ! grep -q "$$n" OBSERVABILITY.md; then \
			echo "docs-drift: metric $$n is registered in code but missing from OBSERVABILITY.md"; missing=1; \
		fi; \
	done; \
	rows=$$(grep -oE '^\| `pres_[a-z_]+' OBSERVABILITY.md | sed 's/^| `//' | sort -u); \
	for n in $$rows; do \
		if ! echo "$$names" | grep -qx "$$n"; then \
			echo "docs-drift: metric $$n is documented in OBSERVABILITY.md but no non-test code registers it"; missing=1; \
		fi; \
	done; \
	flags=$$(grep -ohE '[`]-[a-z][a-z0-9-]*' README.md | sed 's/^..//' | sort -u); \
	for f in $$flags; do \
		case " $(FLAG_ALLOW) " in *" $$f "*) continue;; esac; \
		if ! grep -qrE "\"$$f\"" --include='*.go' cmd; then \
			echo "docs-drift: flag -$$f is documented in README.md but no tool in cmd/ registers it"; missing=1; \
		fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-drift: $$(echo "$$names" | wc -l) pres_ metrics, $$(echo "$$rows" | wc -l) OBSERVABILITY.md rows and $$(echo "$$flags" | wc -l) README flags all in sync"
