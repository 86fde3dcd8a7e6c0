# Build, test, and static-analysis entry points. `make ci` is what the
# GitHub Actions workflow runs; keep the two in sync.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet gob-free retired docrefs lint lint-json lint-fixtures test race fuzz datcheck datcheck-faults datcheck-overload datcheck-wide datcheck-sweep datcheck-long obs-smoke perf-check perf-frozen perf-claim perf-claim-dry ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# One codec (DESIGN.md §11): encoding/gob is a test oracle inside
# internal/wire and must not be linked into any non-test package.
gob-free:
	! $(GO) list -deps ./... | grep -qx encoding/gob

# What a deletion PR removed stays removed: scripts/retired.txt lists the
# retired identifiers (one extended regex a line, with the PR and DESIGN
# section that retired it), and no non-test Go file outside frozen perf/
# may match one. A new deletion adds a line there, not a target here.
retired:
	! grep -v '^#' scripts/retired.txt | grep -rnE -f - --include='*.go' --exclude='*_test.go' --exclude-dir=perf .

# Every DESIGN.md section a Go comment cites ("DESIGN.md §N") is a
# "## N." heading there, so a renumbered or deleted section cannot leave
# a citation pointing nowhere.
docrefs:
	bash scripts/docrefs.sh

# datlint: the project-specific analyzer suite (ringcmp, locksafe,
# simclock, senderr, wirereg, detorder, hooklock, goroleak, routever). See
# DESIGN.md §7. Exits non-zero on any finding or stale ignore pragma.
lint:
	$(GO) run ./cmd/datlint ./...

# Machine-readable findings for CI artifacts; fails like `lint` but
# always leaves datlint.json behind for upload.
lint-json:
	$(GO) run ./cmd/datlint -json ./... > datlint.json

# Fast re-run of the analyzer fixture suite while iterating on a new
# analyzer or fixture (-short skips the whole-repo lint gate, which
# `lint` covers separately).
lint-fixtures:
	$(GO) test -short ./internal/lint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# datcheck: the deterministic simulation-testing harness (DESIGN.md §8).
# The default target runs the fixed PR-gating seed corpus; datcheck-long
# sweeps DATCHECK_SEEDS fresh seeds from DATCHECK_BASE (the nightly
# workflow passes a date-derived base so coverage grows over time).
# Replay a failure with:
#   go test ./internal/datcheck -run TestDatcheckReplay -datcheck.seed=N -v
DATCHECK_SEEDS ?= 25
DATCHECK_BASE ?= 1000000
datcheck:
	$(GO) test ./internal/datcheck -v -run TestDatcheckCorpus

# datcheck-faults: the delivery-fault profile — targeted mid-round
# parent/root crashes with in-chaos no-lost-subtrees probes, swept over
# DATCHECK_FAULT_SEEDS seeds above datcheck.FaultSeedBase — plus the
# batching-fault profile: crashes inside the send machine's coalescing
# window (DATCHECK_BATCH_SEEDS seeds above datcheck.BatchSeedBase) and
# the paired-seed batched-vs-unbatched equivalence check.
DATCHECK_FAULT_SEEDS ?= 8
DATCHECK_BATCH_SEEDS ?= 6
datcheck-faults:
	$(GO) test ./internal/datcheck -v \
		-run 'TestDatcheckFaults|TestDatcheckBatchFaults|TestDatcheckBatchEquivalence' \
		-datcheck.faultseeds $(DATCHECK_FAULT_SEEDS) \
		-datcheck.batchseeds $(DATCHECK_BATCH_SEEDS)

# datcheck-overload: the overload profile — slow-parent, ack-blackhole,
# and burst-fanin stimuli under tight batch thresholds (seeds above
# datcheck.OverloadSeedBase), with the send queues' structural bound
# checked at every settle, plus the whole-corpus equivalence check against
# a breaker threshold nothing reaches.
DATCHECK_OVERLOAD_SEEDS ?= 6
datcheck-overload:
	$(GO) test ./internal/datcheck -v \
		-run 'TestDatcheckOverloadFaults|TestDatcheckOverloadEquivalence' \
		-datcheck.overloadseeds $(DATCHECK_OVERLOAD_SEEDS)

# datcheck-wide: the wide sweep every behavioural change reports —
# fresh seeds of the long sweep and of every fault family, a few seconds
# in all. A seed of it that a change turns green joins the corpus.
datcheck-wide:
	$(GO) test ./internal/datcheck \
		-run 'TestDatcheckLong|TestDatcheckFaults|TestDatcheckBatchFaults|TestDatcheckOverloadFaults' \
		-datcheck.long -datcheck.seeds 60 -datcheck.faultseeds 40 \
		-datcheck.overloadseeds 40 -datcheck.batchseeds 20

# datcheck-sweep: the 600-seed sweep, the wide sweep's families at
# more seeds (about 10 s; not part of ci). Every behavioural change
# reports its failing set next to its parent's. Until ROADMAP item 2
# lands it fails three seeds, each no-lost-subtrees after a root crash:
# 9000000098 (TestDatcheckFaults), 10000000090 and 10000000098
# (TestDatcheckBatchFaults).
datcheck-sweep:
	$(GO) test ./internal/datcheck \
		-run 'TestDatcheckLong|TestDatcheckFaults|TestDatcheckBatchFaults|TestDatcheckOverloadFaults' \
		-datcheck.long -datcheck.seeds 200 -datcheck.faultseeds 150 \
		-datcheck.overloadseeds 150 -datcheck.batchseeds 100

datcheck-long:
	$(GO) test -race ./internal/datcheck -v -run TestDatcheckLong \
		-datcheck.long -datcheck.seeds $(DATCHECK_SEEDS) -datcheck.base $(DATCHECK_BASE) \
		-datcheck.artifacts $(CURDIR)/datcheck-artifacts -timeout 45m

# Boot a live datnode with -obs.addr and verify /metrics, /healthz and
# the debug pages respond with non-empty 200s (DESIGN.md §9).
obs-smoke:
	bash scripts/obs-smoke.sh

# perf/ is a module of its own (BENCHMARK.json runs `go -C perf run .`):
# the root `go build/vet/test ./...` and datlint never visit it, so a
# change to an exported API it uses would only surface when the
# benchmark runs. Vet it, run its quick tests, lint it.
perf-check:
	$(GO) -C perf vet ./...
	$(GO) -C perf test -short ./...
	cd perf && $(GO) run repro/cmd/datlint ./...

# The benchmark judges a change against its parent, so a change that
# claims a gain must leave perf/ and BENCHMARK.json as BASE has them.
# CI passes the PR's base commit; locally the default compares the
# working tree with HEAD.
BASE ?= HEAD
perf-frozen:
	git diff --exit-code $(BASE) -- perf BENCHMARK.json

# perf-claim: the claim protocol of ROADMAP's Standing gates as one
# command — >= 10 alternating parent/change pairs of every workload on
# SEEDS, a traced run per side, the -compare table and the simulated-
# counter equality check, written as results/BENCH_pr$(PR).json (about
# 45 minutes; not part of ci). For example:
#   make perf-claim WORKLOAD=live-fanin METRIC=cpu_us_per_op BASE=HEAD~1 PR=16
# perf-claim-dry checks, builds both sides and runs one 1-second pair of
# the claimed workload, writing nothing: ci runs it so the script cannot
# rot. Give ci the PR's own WORKLOAD and METRIC to dry-run its claim:
#   make ci WORKLOAD=live-discovery METRIC=latency_p50_ms BASE=HEAD~1
METRIC ?= cpu_us_per_op
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
PR ?=
perf-claim: WORKLOAD ?= live-fanin
perf-claim:
	bash scripts/perf-claim.sh --workload $(WORKLOAD) --metric $(METRIC) --base $(BASE) --seeds "$(SEEDS)" $(if $(PR),--pr $(PR))

perf-claim-dry: WORKLOAD ?= sim-trees-churn
perf-claim-dry:
	bash scripts/perf-claim.sh --dry-run --workload $(WORKLOAD) --metric $(METRIC) --base $(BASE)

# Short, bounded runs of every fuzz target — a smoke pass, not a soak.
# Each -fuzz invocation must target a single package, hence the loop.
fuzz:
	$(GO) test ./internal/ident -run '^$$' -fuzz FuzzSpaceArithmetic -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ident -run '^$$' -fuzz FuzzLocalityHashMonotone -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEngineOrder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chord -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/maan -run '^$$' -fuzz FuzzResultRunDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzHandleBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rpcudp -run '^$$' -fuzz FuzzEndpointFrame -fuzztime $(FUZZTIME)

ci: build vet gob-free retired docrefs lint test datcheck-wide race fuzz obs-smoke perf-check perf-frozen perf-claim-dry
