# Developer entry points. Everything here is plain Go tooling — no extra
# dependencies.

GO ?= go
# Recipes run under bash with pipefail, so a failing command on the left of
# a pipe (`go test ... | tee` in bench) fails the target instead of taking
# the exit status of the command on the right.
SHELL := bash
.SHELLFLAGS := -eo pipefail -c
BENCH_FILE := BENCH_$(shell date +%F).json
# The committed benchmark baseline the regression gate diffs against.
BASELINE ?= BENCH_2026-08-08.json

.PHONY: all build test race vet bench benchdiff chaos

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race smoke list; the CI race job runs this target.
race:
	$(GO) test -race \
		-run 'TestParallelSweepSmoke|TestSweepDeterministicAcrossWorkerCounts|TestFaultSweepDeterministicAcrossWorkerCounts|TestFaultRunDeterministic|TestPrepareWindowCrashResolvesInDoubt|TestProbeRetransmissionDeterministicAcrossWorkerCounts|TestReplicatedSweepDeterministicAcrossWorkerCounts|TestReplicatedRunDeterministic|TestCapacitySweepDeterministicAcrossWorkerCounts|TestOpenRunDeterministic|TestPartitionSweepDeterministicAcrossWorkerCounts|TestPartitionRunDeterministic|TestSharedFaultPlanNotMutated|TestCCSweepDeterministicAcrossWorkerCounts|TestScaleSweepDeterministicAcrossWorkerCounts|TestQueCCNoDeadlocksNoProbeTraffic|TestNoProbeStateOutsideDetection' \
		./internal/experiment/ ./internal/testbed/

vet:
	$(GO) vet ./...

# Record a benchmark baseline for perf PRs to diff against: the whole -bench
# suite with allocation stats as a JSON event stream in BENCH_<date>.json.
# Three iterations per benchmark: single-shot numbers swing ±10% run to run,
# which is useless against a 20% regression gate; 3x keeps the suite under a
# few minutes while averaging most of that noise away.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 3x -json ./... | tee $(BENCH_FILE)

# Benchmark-regression gate: re-run the two kernel-gated benchmarks at HEAD
# and fail if either is >20% slower than the committed $(BASELINE). CI runs
# this on every push; run it locally before perf-sensitive PRs.
benchdiff:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulateMB8$$|BenchmarkCapacitySweep$$' -benchmem -benchtime 3x -json . > bench_head.json
	$(GO) run ./cmd/benchdiff -old $(BASELINE) -new bench_head.json

# The chaos audits, run by the CI chaos job: randomized fault plans —
# unreplicated, R=2, R=2 with scheduled network partitions (the split-brain
# audit), one audit per alternative concurrency-control paradigm (QueCC,
# OCC) and the 16-site scale fleet.
chaos:
	$(GO) test -run 'TestChaosAuditClean|TestAuditorCleanOnFaultyRun|TestReplicatedChaosAuditClean|TestReplicatedFaultsAuditClean|TestOpenChaosAuditClean|TestPartitionChaosAuditClean|TestPartitionReplicatedAuditClean|TestQueCCChaosAuditClean|TestOCCChaosAuditClean|TestScaleChaosAuditClean' -v \
		./internal/experiment/ ./internal/testbed/
