GO ?= go

.PHONY: check build vet test race audit bench-json bench-smoke bench-compare bench-ab fuzz-smoke daemon-smoke shard-smoke trace-smoke ci stress

# check is the CI gate: static analysis plus the full suite under the race
# detector (the parallel sweep runner is on by default).
check: vet race

build:
	$(GO) build ./...

# vet fails on any Go file gofmt would rewrite (dot directories such as
# .bench_build/, which holds other checkouts, are skipped as ./... skips
# them). It also runs the allocation guards: the obs layer's cost must be a
# fixed setup delta, and the core loop's allocations must be per-run setup
# only — never per-cycle, per-branch or per-event work. staticcheck and
# govulncheck run when installed (the build must not require fetching them);
# install locally for the full gate.
GOFMT ?= gofmt
vet:
	@unformatted=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "vet: not gofmt-clean:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -run 'TestObsAllocGuard|TestCoreLoopAllocGuard' -count=1 .
	$(GO) test -race -count=1 ./internal/shard
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "vet: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "vet: govulncheck not installed, skipping"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# audit reruns the full suite with the integrity auditor and golden-model
# oracle forced on for every simulation (LBP_AUDIT=1): every retirement is
# cross-checked against the in-order model and every invariant is live.
audit:
	LBP_AUDIT=1 $(GO) test ./...

# bench-json regenerates the machine-readable, timestamped throughput
# baseline (BENCH_baseline.json): ns/op, ns/inst, ns/cycle, allocs/op and
# B/op for the obs-disabled and obs-enabled core loop.
bench-json:
	$(GO) run ./cmd/lbpbench -out BENCH_baseline.json

# bench-smoke is the fast benchmark-path sanity gate (< 10 s): one in-memory
# core-loop run and one LBP2 file-backed core-loop-stream run of the same
# short trace must succeed, agree exactly (the two paths are bit-identical by
# contract), and stay within the allocation budget. It gates "the benchmark
# paths still work", not performance.
bench-smoke:
	$(GO) run ./cmd/lbpbench -smoke -insts 30000

# bench-compare gates the trajectory: exits non-zero when NEW regressed
# ns/op or allocs/op against OLD by more than 10% (a toolchain mismatch
# between the two files warns but does not fail).
OLD ?= BENCH_pr5.json
NEW ?= BENCH_pr10.json
bench-compare:
	$(GO) run ./cmd/lbpbench -compare -old $(OLD) -new $(NEW)

# bench-ab is the same-host A/B of the benchmark in BENCHMARK.json: it
# builds the simulator at BASE and at the working tree and runs ten
# alternating-order pairs of every workload, then prints per-metric medians,
# quartiles, the share of pairs won and a verdict against the bounds. Ten
# pairs of four workloads take about 50 minutes, so it is not part of ci.
#   make bench-ab BASE=HEAD~1
bench-ab:
	@test -n "$(BASE)" || { echo "bench-ab: set BASE=<rev>, e.g. BASE=HEAD~1"; exit 2; }
	cd perfbench && $(GO) run ./ab -base $(BASE) -pairs 10

# fuzz-smoke gives each native fuzz target a short budget; failures minimize
# into testdata/fuzz corpora as usual.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoopPredictor -fuzztime=10s ./internal/bpu/loop
	$(GO) test -fuzz=FuzzTAGE -fuzztime=10s ./internal/bpu/tage
	$(GO) test -fuzz='FuzzReadTraceLBP2$$' -fuzztime=10s ./internal/trace

# daemon-smoke is the end-to-end lbpd check (< 30 s): build the real binary,
# submit a job, stream progress over SSE, SIGKILL it mid-run, restart on the
# same journal, verify exactly-once completion + cache hit + clean drain.
daemon-smoke:
	$(GO) test -run TestDaemonSmoke -count=1 -v ./cmd/lbpd

# shard-smoke is the end-to-end sharded-sweep check (< 60 s): a 3-worker
# quick sweep with one worker SIGKILLed mid-shard, its lease expired and the
# shard reassigned, then `-merge` verified bit-identical to a single-process
# sweep of the same experiments — zero lost, zero duplicated results.
shard-smoke:
	$(GO) test -run 'TestShardSweepChaosKillBitIdentical|TestShardWorkerLeaseHeld' -count=1 -v ./cmd/lbpsweep

# trace-smoke is the end-to-end trace-pipeline check (< 30 s): build the real
# lbptrace and lbpsim binaries, generate an LBP2 trace, convert it
# LBP2 -> LBP1 -> LBP2 (byte-identical round trip), and replay both formats
# bit-identically to in-process generation.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 -v ./cmd/lbptrace

# ci is the one-command pipeline: build, static analysis + alloc guards, the
# full suite under the race detector, a fuzz smoke, and a quick
# bench-compare exercise: fresh numbers are measured and run through the
# regression gate end-to-end (self-compare — cross-machine ns/op gating
# belongs in `make bench-compare` against a locally pinned baseline).
ci: build vet race bench-smoke daemon-smoke shard-smoke trace-smoke fuzz-smoke
	$(GO) run ./cmd/lbpbench -insts 60000 -out BENCH_ci.json
	$(GO) run ./cmd/lbpbench -compare -old BENCH_ci.json -new BENCH_ci.json
	rm -f BENCH_ci.json

# stress loops the crash-safety subprocess suites under the race detector:
# interrupt a live sweep (checkpoint resume, zero lost/duplicated results),
# chaos-test the daemon (SIGKILL restarts over the journal, queue floods
# answered with 429s, mid-stream SSE disconnects), and chaos-test the
# sharded fleet (worker SIGKILL + lease reassignment; coordinator SIGKILL
# with orphaned workers). N controls the iteration count.
N ?= 5
stress:
	$(GO) test -race -run TestSweepSIGINTResume -count=$(N) -v ./cmd/lbpsweep
	$(GO) test -race -run TestDaemonChaos -count=$(N) -timeout 60m -v ./internal/daemonchaos
	$(GO) test -race -run 'TestShardSweepChaosKillBitIdentical|TestShardFleetCoordinatorCrash' -count=$(N) -timeout 60m -v ./cmd/lbpsweep ./internal/daemonchaos
