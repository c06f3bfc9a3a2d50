# Developer verify loop. `make verify` is the full gate a change must pass:
# formatting, build, vet, the complete test suite, the race detector over
# the concurrency-heavy packages (the search core, the process simulator,
# the cluster, the telemetry, trace and flight recorder the solver
# goroutines write to, the sequence log behind the event, share, span and
# sample streams, and the operators, solution and pareto packages every
# searcher and worker goroutine runs, writing the run's shared telemetry
# counters, and the instance tables — neighbor lists, arc bitset — those
# goroutines build lazily and share), and the zero-allocation assertion
# on the disabled-telemetry hot path. Whether a sweep overlaps evaluation
# with proposal on a helper goroutine depends on GOMAXPROCS, so the sweep
# tests run under the race detector at 1, 2 and 4 processors, and the
# zero-allocation sweep tests at 1 and 2.

GO ?= go

.PHONY: fmt build vet test race allocs bench-smoke metrics-lint service-e2e recover-e2e dynamic-e2e tenant-e2e chaos cluster-e2e flaky-guard fuzz-smoke profile verify

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
	  echo "gofmt required on:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/deme/... ./internal/cluster/... ./internal/telemetry/... ./internal/flight/... \
	  ./internal/seqlog/... ./internal/trace/... ./internal/operators/... ./internal/solution/... ./internal/pareto/... \
	  ./internal/vrptw/...
	$(GO) test -race -count 1 -run 'TestShareSSEFanoutRace|TestShareIngressConcurrentSubscribers' ./internal/service/
	$(GO) test -race -cpu 1,2,4 -count 5 -run 'TestOverlappedSweep|TestHelper' ./internal/operators/

# allocs asserts the observability overhead contract: disabled-path
# telemetry and tracing calls allocate nothing, and a full searcher
# iteration allocates no more with the instruments (or a live trace span)
# than with the layers off — nor does a restarting, sampling step, since
# solver events are built only when a sink is attached.
allocs:
	$(GO) test -run 'TestDisabledZeroAlloc|TestEnabledZeroAlloc' -count 1 -v ./internal/telemetry/
	$(GO) test -run 'TestDisabledZeroAlloc' -count 1 -v ./internal/trace/
	$(GO) test -run 'TestSearcherIterationTelemetryAllocs|TestSearcherIterationTraceAllocs|TestRestartStepTelemetryAllocs' -count 1 -v ./internal/core/

# bench-smoke is the candidate engine's fast perf gate: the zero-alloc
# assertions on the sweep (full and granular) and the searcher's generate
# path, at one processor and at two, where a helper goroutine evaluates
# the sweep's moves, plus one untimed pass over the 400-customer benchmarks — the
# sweeps, each operator's granular draw, the searcher iteration and the
# three start-up steps every job runs, the instance build, the granular
# lists' first build and the I1 construction on R1 and R2 — so a broken
# benchmark fails here. Timed measurements are scripts/tsmobench's job;
# its own module's smoke test runs all four workloads at toy scale with
# their output checks, so a change to an API the benchmark compiles
# against fails here, not in the next benchmark run.
bench-smoke:
	$(GO) test -run 'TestCandidatesZeroAlloc|TestGranularSweepDeterministic' -cpu 1,2 -count 1 -v ./internal/operators/
	$(GO) test -run 'TestGenerateZeroAlloc' -cpu 1,2 -count 1 -v ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkCandidatesInto400|BenchmarkCandidatesGranular400|BenchmarkProposeGranular400' \
	  -benchtime 1x ./internal/operators/
	$(GO) test -run '^$$' -bench 'BenchmarkSearcherIteration' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkGenerate|BenchmarkNeighborLists' -benchtime 1x ./internal/vrptw/
	$(GO) test -run '^$$' -bench 'BenchmarkI1' -benchtime 1x ./internal/construct/
	cd scripts/tsmobench && $(GO) test -count 1 ./...

# metrics-lint boots a real tsmod daemon on an ephemeral port, pushes one
# traced job through it, scrapes GET /metrics twice, and lints the
# Prometheus exposition: well-formed lines, one TYPE per family, no
# duplicate series, monotone cumulative histogram buckets, le="+Inf" equal
# to _count, and no counter decreasing between scrapes.
metrics-lint:
	$(GO) test -count 1 ./scripts/metricslint/
	$(GO) run ./scripts/metricslint

# service-e2e runs the solver-service stack — job queue, HTTP/SSE API,
# daemon signal handling, and the CLI client — under the race detector.
# Covers the acceptance path: submit, stream, cancel, drain on SIGTERM.
service-e2e:
	$(GO) test -race -count 1 ./internal/service/ ./cmd/tsmod/ ./cmd/tsmoctl/

# recover-e2e runs the durability acceptance suite under the race
# detector: checkpoint/resume bit-identity across every variant, a resume
# refusing routes that do not fit its instance (in the core, and at
# submission), the journal replay and crash-snapshot service tests — a
# crash snapshot resuming from ckpt.json alone, an older daemon's journal
# with its start and ckpt records, a torn mutate before such a ckpt
# record, a reused job ID starting in an empty directory — and the
# kill -9 daemon e2e (a real tsmod process SIGKILLed mid-job, restarted,
# and checked against an uninterrupted reference run).
recover-e2e:
	$(GO) test -race -count 1 -run 'TestResumeBitIdentical|TestResumeRejectsMismatch|TestResumeChecksRoutes|TestCheckpointConfigGuards' ./internal/core/
	$(GO) test -race -count 1 \
	  -run 'TestJournal|TestDurable|TestCrashRecovery|TestIdempotent|TestSubmitStartsInEmptyJobDir|TestSubmitRefusesResumeRoutes|TestTornMutateBeforeCkptRecovery' \
	  ./internal/service/
	$(GO) test -race -count 1 -v -run 'TestKill9Recovery' ./cmd/tsmod/

# dynamic-e2e runs the live re-optimization acceptance battery under the
# race detector: the mutation model and splice/repair unit tests with the
# live-equals-resume and bit-identical replay goldens across all variants,
# the mutation primitives with the seeds of the fuzz target that holds the
# neighbor lists a derived instance carries to a fresh build,
# the schedule cache keeping the schedules of shared routes across Reset
# (TestEvalRebind), the service PATCH/SSE/WAL e2e (batch and inline
# mutations, epoch pinning, 409/400 surfaces, flight-recorder marker,
# HTTP-level determinism), the allocations of a PATCH's validation
# projection, the tsmoctl mutate CLI with a timed -script replay, and the
# kill -9 mutation-replay chaos test (a real tsmod
# SIGKILLed in both exactly-once windows).
dynamic-e2e:
	$(GO) test -race -count 1 ./internal/dynamic/
	$(GO) test -race -count 1 -run 'TestMutate|FuzzDerivedListsMatchBuild' ./internal/vrptw/
	$(GO) test -race -count 1 -run 'TestEvalRebind' ./internal/solution/
	$(GO) test -race -count 1 -run 'TestE2EDynamic|TestE2EMutate|TestE2EResumeGranularKMismatch|TestProjectionAllocs' ./internal/service/
	$(GO) test -race -count 1 -run 'TestMutateCommand' ./cmd/tsmoctl/
	$(GO) test -race -count 1 -v -run 'TestKill9MutationReplay' ./cmd/tsmod/

# tenant-e2e runs the multi-tenant admission battery under the race
# detector: the tenant registry and keyfile unit tests, the deficit
# round-robin scheduler contract, the 50:1 fair-share starvation
# scenario, virtual-clock rate-limit determinism, the credential
# rejection table, the mutation-storm chaos test, quota/readyz/deadline
# shedding, the torn mutate-then-ckpt WAL recovery case, the
# coordinator's verbatim Retry-After relay, and the tenant-aware CLI.
tenant-e2e:
	$(GO) test -race -count 1 ./internal/tenant/
	$(GO) test -race -count 1 \
	  -run 'TestScheduler|TestE2EFairShare|TestE2ESubmitRateLimit|TestE2EAuthRejection|TestE2EMutationStorm|TestE2EReadyzAndShed|TestE2EDeadlineShed|TestE2ETenant|TestTornMutateBeforeCkpt' \
	  ./internal/service/
	$(GO) test -race -count 1 -run 'TestSubmitProxyRetryAfterVerbatim' ./internal/cluster/
	$(GO) test -race -count 1 -run 'TestTenantCommands' ./cmd/tsmoctl/

# chaos runs the deterministic fault-injection suite under the race
# detector: every scenario must complete, stay bit-identical across
# repetitions, and no variant may deadlock when a process dies; a traced
# run on the fault decorator records one deme.run span; every backend
# fails a run whose receive has no finite timeout, the goroutine backend
# waits out a finite timeout past the largest Duration instead of
# overflowing it, and fault plans out of range are refused.
chaos:
	$(GO) test -race -count 1 -v \
	  -run 'TestChaosScenarios|TestChaosGoroutineNoDeadlock|TestSyncTrajectoryMatchesSequential|TestMalformedPayloadSurfacesAsError|TestFaultyRunRecordsOneDemeRun' \
	  ./internal/core/
	$(GO) test -race -count 1 -run 'TestFaulty|TestParseFaultPlans|TestGoroutineAlive|TestRecvTimeoutNeedsFiniteTimeout|TestGoroutineRecvTimeoutClamped' ./internal/deme/

# cluster-e2e runs the multi-node acceptance suite under the race
# detector: the 3-node collaborative-share golden (bit-identical replay,
# merged front dominates a same-budget single node), the kill-a-member
# migration chaos test, coordinator partition handling, work stealing, a
# share shard canceled while its sibling waits at an epoch, the
# coordinator's cluster-wide tenant sum and its own healthz, and the
# share fan-out/ingress race tests on the node side.
cluster-e2e:
	$(GO) test -race -count 1 -v \
	  -run 'TestClusterShareGolden|TestClusterShareDominatesSingleNode|TestClusterKillMemberMigrates|TestCoordinatorPartition|TestClusterSteal|TestClusterShareSiblingCanceled|TestCoordinatorTenantsSum|TestCoordinatorHealthz|TestMergeFronts|TestSubmitValidation' \
	  ./internal/cluster/
	$(GO) test -race -count 1 -run 'TestShareSSEFanoutRace|TestShareIngressConcurrentSubscribers' ./internal/service/

# flaky-guard reruns the service and cluster e2e suites three times with a
# shuffled test order to flush order- and timing-dependent failures, then
# the searcher's two yield-timing tests five times, so a regression in
# either yield rule shows up too. CI runs it non-blocking and uploads
# flaky-guard.log as an artifact.
flaky-guard:
	@status=0; \
	$(GO) test -race -count 3 -shuffle on ./internal/service/ ./internal/cluster/ > flaky-guard.log 2>&1 || status=1; \
	$(GO) test -count 5 -run 'TestSearcherYields' ./internal/core/ >> flaky-guard.log 2>&1 || status=1; \
	if [ $$status -ne 0 ]; then tail -n 100 flaky-guard.log; exit 1; fi; \
	tail -n 6 flaky-guard.log

# fuzz-smoke runs each fuzz target for FUZZTIME (default 30s) on top of the
# checked-in seed corpora. The checkpoint decoder's inputs and the SSE
# reader's pinned-stream seeds are kilobytes long, the keyfile, job-spec
# and mutation-batch seeds hundreds of bytes, and one journal seed is a
# megabytes-long line, so their new interesting inputs get a short
# minimization budget — the 60s default would spend the whole run
# minimizing.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDeltaMatchesApply -fuzztime $(FUZZTIME) ./internal/operators/
	$(GO) test -run '^$$' -fuzz FuzzFeasibilityGuard -fuzztime $(FUZZTIME) ./internal/operators/
	$(GO) test -run '^$$' -fuzz FuzzGranularMatchesReference -fuzztime $(FUZZTIME) ./internal/operators/
	$(GO) test -run '^$$' -fuzz FuzzGranularWalkMatchesReference -fuzztime $(FUZZTIME) ./internal/operators/
	$(GO) test -run '^$$' -fuzz FuzzDerivedListsMatchBuild -fuzztime $(FUZZTIME) ./internal/vrptw/
	$(GO) test -run '^$$' -fuzz FuzzClusterMessages -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzParseFaultPlans -fuzztime $(FUZZTIME) ./internal/deme/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzOpenJournal -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzSubmitSpec -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzMutationBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sse/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzParseKeyfile -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/tenant/

# profile runs a short goroutine-backend asynchronous search with the
# observability endpoints live and saves CPU and heap profiles next to a
# JSONL telemetry report. Inspect with: go tool pprof profiles/cpu.prof
profile: build
	mkdir -p profiles
	$(GO) run ./cmd/tsmo -alg asynchronous -procs 4 -backend goroutine \
	  -class R1 -n 200 -evals 60000 \
	  -telemetry profiles/run.jsonl -pprof 127.0.0.1:0 \
	  -cpuprofile profiles/cpu.prof -memprofile profiles/heap.prof
	@echo "profiles written to profiles/{cpu.prof,heap.prof,run.jsonl}"

verify: fmt build vet test race allocs bench-smoke metrics-lint
