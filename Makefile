GO ?= go

.PHONY: check build vet fmtcheck gatecheck fuzzcheck loc test race bench perf microbench benchcheck faultcheck recoverycheck chaoscheck spacecheck fleetcheck quorumcheck migratecheck placecheck scalecheck

## check: full gate — build, vet, race-enabled tests, seeded fault
## matrix, crash-recovery harness, whole-system chaos sweep, space-
## pressure survival, fleet scale, quorum replication, live migration,
## multi-store placement, elastic autoscaling, the smoke test of the
## benchmark/ scoreboard, and five seconds of every fuzz target
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmtcheck
	$(MAKE) gatecheck
	$(GO) test -race ./...
	$(MAKE) faultcheck
	$(MAKE) recoverycheck
	$(MAKE) chaoscheck
	$(MAKE) spacecheck
	$(MAKE) fleetcheck
	$(MAKE) quorumcheck
	$(MAKE) migratecheck
	$(MAKE) placecheck
	$(MAKE) scalecheck
	$(MAKE) benchcheck
	$(MAKE) fuzzcheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmtcheck: every Go file is gofmt-clean.
fmtcheck:
	test -z "$$(gofmt -l cmd internal benchmark *.go)"

## gatecheck: every alternation term of every `-run '…'` below matches
## at least one test in that gate's packages — a renamed or deleted test
## cannot silently leave its gate.
gatecheck:
	GO=$(GO) bash scripts/gatecheck.sh

## fuzzcheck: every Fuzz target `go test -list` finds under internal/ —
## the decoders that read bytes from a device or a wire — runs for five
## seconds on top of its seed corpus. A crasher lands in that package's
## testdata/fuzz/ and fails the gate.
fuzzcheck:
	@$(GO) test -list '^Fuzz' ./internal/... | \
	awk '/^Fuzz/ {names[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2, names[i]; n = 0}' | \
	while read -r pkg fz; do \
		echo "fuzz $$pkg $$fz"; \
		$(GO) test -run '^$$' -fuzz "^$$fz\$$" -fuzztime=5s -fuzzminimizetime=1s $$pkg || exit 1; \
	done

## loc: the non-test line counts ROADMAP tracks (north-star 2), by the
## definition ROADMAP uses, those of the three layers under core's data
## path, and the control plane ROADMAP item 5 tracks, per file and in
## all.
CONTROL_PLANE = placer autoscale migrate promote supervisor
loc:
	@for d in core netback bench objstore storage vm; do \
		printf 'internal/%s %s\n' $$d $$(ls internal/$$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done
	@for f in $(CONTROL_PLANE); do \
		printf 'internal/core/%s.go %s\n' $$f $$(cat internal/core/$$f.go | wc -l); \
	done
	@printf 'control plane (%s) %s\n' "$(CONTROL_PLANE)" $$(cat $(CONTROL_PLANE:%=internal/core/%.go) | wc -l)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## faultcheck: seeded fault-matrix tests under the race detector — the
## self-healing flush pipeline, crash-consistent superblock, and replica
## resume paths driven by the fault-injecting device.
faultcheck:
	$(GO) test -race -count=1 -run 'TestFaultMatrix|TestFault|TestTorn|TestScrub|TestReplica|TestRecovery|TestQuarantine' \
		./internal/core/ ./internal/storage/ ./internal/objstore/ ./internal/netback/

## recoverycheck: validated self-healing restore under the race detector —
## crash-at-every-op harness, epoch quarantine with fallback, lazy-paging
## failover, supervisor auto-restore, bounded SwapIn retry, CLI exit codes.
recoverycheck:
	$(GO) test -race -count=1 -run 'TestRecovery|TestQuarantine|TestCLIRestore|TestRestoreExitCodes|TestCLIEpochs' \
		./internal/core/ ./internal/vm/ ./internal/netback/ ./cmd/sls/

## chaoscheck: whole-system chaos harness under the race detector —
## storage faults, link faults, crashes, a partition+heal, replica
## promotion, and a fenced stale primary composed in one seeded run
## (seeds 1, 7, 42), plus the promote CLI exit codes. The second line is
## the determinism gate: every engine whose report a seed already
## determines — the quorum and placement engines under link faults
## included — must replay it exactly, the space harness must size the
## same device, and every row of the baseline table must match its
## committed BENCH_*.json (wander fields inside their bounds), at 1, 2
## and 4 procs, three times each, under -race (whose slower schedule is
## what used to expose a wire's timing).
chaoscheck:
	$(GO) test -race -count=1 -run 'TestChaos|TestPromote|TestCLIPromote' \
		./internal/core/ ./cmd/sls/
	$(GO) test -race -count=3 -cpu 1,2,4 -run 'TestHarnessReplay|TestBaselines' ./internal/bench .

## spacecheck: graceful degradation under space pressure, race-enabled —
## watermark retention GC with the reachability audit after every
## reclaimed epoch, end-to-end ENOSPC survival on a ~10-epoch device
## (seeds 1, 7, 42), admission-control shedding, the GC interleaving
## property test, and the space-composed chaos run. The second line is
## the regression gate for the ENOSPC wedge that kept tier-1 red on ≥2
## cores (EXPERIMENTS.md "Flush pipeline: one owner per epoch"): the
## bounded-device runs at 1, 2 and 4 procs, three times each.
spacecheck:
	$(GO) test -race -count=1 -run 'TestSpace|TestReclaimer|TestAdmission|TestFlushENOSPC|TestSyncWithReclaim|TestGCInterleaving|TestControlPlaneReserve|TestStatsLiveAndReclaimable|TestCapacityGrowthOnly|TestSetFull|TestCLIGC|TestCLIDF|TestCLISpacePressure' \
		./internal/core/ ./internal/storage/ ./internal/objstore/ ./internal/bench/ ./cmd/sls/
	$(GO) test -count=3 -cpu 1,2,4 -run 'TestSpace' ./internal/bench

## fleetcheck: the fleet-scale sharded-orchestrator harness under the
## race detector — 10k groups per seed (1, 7, 42) driven through
## spawn/checkpoint/crash/restore/unpersist on the shard-worker pool,
## the determinism replay, clone dedup, goroutine-leak teardown checks,
## supervisor restart-budget edges, and the cross-group dedup GC
## property test. Plain `go test` runs the same tests at smoke scale;
## AURORA_SCALE=full is the one switch the three scale gates set.
fleetcheck:
	AURORA_SCALE=full $(GO) test -race -count=1 -timeout 30m \
		-run 'TestFleetSimulation|TestFleetCloneDedup|TestUnpersistWithQueuedEpochsDoesNotLeak|TestCloseReapsFleetWorkers|TestSupervisor|TestDedupCrossGroupGCInterleaving|TestCLIFleet' \
		./internal/core/ ./internal/objstore/ ./cmd/sls/

## quorumcheck: N-replica quorum replication under the race detector —
## the 500-checkpoint minority-kill chaos runs (seeds 1, 7, 42) with a
## kill+restart, a partition+heal, and quorum promotion; the quorum
## durability/latency/floor unit tests; the typed quorum error
## round-trips; the replica-set and compact-delta protocol tests; the
## folded receiver (bounded state, restores that outlive folds,
## read-repair from a folded member, the fold's edge streams, one chain
## walk per restore) and the line-delta safety run; the CLI
## quorum/replicas verbs; and the quorum row of the baseline table
## against the committed BENCH_quorum.json.
quorumcheck:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'TestQuorum|TestErrQuorumLost|TestStaleGenerationUnderQuorum|TestReplicatedQuorum|TestReclaimerQuorum|TestReplicaSetQuorum|TestCompactDelta|TestCLIQuorum|TestReceiverFoldBounded|TestFoldLeavesRestoredProcessItsFrames|TestPromoteQuorumRepairsFromFoldedMember|TestFoldStreams|TestFoldIsTheChainResolved|TestRestoreResolvesItsChainOnce|TestLineDeltaSafety' \
		./internal/core/ ./internal/netback/ ./internal/bench/ ./cmd/sls/
	$(GO) test -race -count=1 -run 'TestBaselines/quorum' .

## migratecheck: live migration and hot standby under the race
## detector — the planned end-to-end migration, every abort phase
## (target dead in pre-copy, mid-blackout, flaky and dead handover),
## the retry-after-abort and double-hop lineage runs, standby
## promotion after source crash, the fault-injected chaos migrations
## (seeds 1, 7, 42) with a mid-pre-copy partition, the supervisor
## fence race regressions, the typed migration-error round-trips, the
## migrate/standby/takeover CLI verbs, and the migrate row of the
## baseline table against the committed BENCH_migrate.json.
migratecheck:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'TestMigrate|TestStandby|TestSupervisorRefusesFencedCrashedGroup|TestSupervisorFenceRaceMidRecover|TestSupervisorReleaseAtomicHandover|TestSupervisorRestoresUnfencedCrash|TestMigrationAbortedRoundTrip|TestMigrationErrorIsNotGenericAborted|TestCLIMigrate|TestCLIStandbyTakeover' \
		./internal/core/ ./cmd/sls/
	$(GO) test -race -count=1 -run 'TestBaselines/migrate' .

## placecheck: the self-healing multi-store placement control plane
## under the race detector — failure-domain-aware spread with hard
## anti-affinity, the store-kill chaos gate at 256 lineages per cell
## (seeds 1, 7, 42 × fault rates 0/1/5%), throttled evacuation with
## ErrEvacuating surfacing, drain-during-evacuation and
## kill-mid-rebalance interleavings, the supervisor evacuation
## exemption, the stores/drain/balance CLI verbs, and the placement
## row of the baseline table against the committed
## BENCH_placement.json. Plain `go test` runs the same chaos cells at
## smoke scale.
placecheck:
	AURORA_SCALE=full $(GO) test -race -count=1 -timeout 30m \
		-run 'TestPlacer|TestPlacementChaos|TestSupervisorEvacuationExemption|TestCLIStores|TestCLIDrain|TestCLIBalance' \
		./internal/core/ ./internal/netback/ ./cmd/sls/
	$(GO) test -race -count=1 -run 'TestBaselines/placement' .

## scalecheck: elastic fleet autoscaling under the race detector —
## the signal-window/hysteresis unit tests (scale-out, scale-in
## completion, both rollback paths, rebalance pacing), the scale-storm
## chaos gate at 48 lineages per cell (seeds 1, 7, 42 × fault rates
## 0/1/5%, fleet ramping 2→6→2 with a dead warm spare mid-scale-out
## and a store kill mid-scale-in), the directory wire-reset churn
## test, the autoscale/signals CLI verbs, and the autoscale row of the
## baseline table against the committed BENCH_autoscale.json. Plain
## `go test` runs the same chaos cells at smoke scale.
scalecheck:
	AURORA_SCALE=full $(GO) test -race -count=1 -timeout 30m \
		-run 'TestAutoscaler|TestAutoscaleChaos|TestRebalanceTickPacing|TestDirectoryConcurrentChurn|TestCLIAutoscale|TestCLISignals' \
		./internal/core/ ./internal/netback/ ./cmd/sls/
	$(GO) test -race -count=1 -run 'TestBaselines/autoscale' .

## bench: regenerate the committed BENCH_*.json baselines — one per row
## of the baseline table in bench_test.go, BENCH_paper.json (Tables 3
## and 4, the claims, the ablations) among them. The only target that
## writes them; plain `go test` runs the same rows and checks them.
bench:
	$(GO) test -count=1 -run '^TestBaselines$$' . -update

## perf: the two-clock, per-layer performance scoreboard (4 workloads,
## untraced pass then traced pass; see benchmark/README.md). Results go
## to benchmark/out/, build products to .bench_build/.
perf:
	bash benchmark/run.sh

## microbench: the per-layer microbenchmarks of the checkpoint, flush,
## replication and restore data paths, where the code lives — COW fault,
## barrier and protect in internal/vm, put and drop (merge-forward) in
## internal/objstore, one epoch's StoreBackend.Flush, its replica encode
## and lazy restore + 64 demand faults + teardown in internal/core, one
## compact delta's receive in internal/netback — on a resident × dirty
## grid, at a fixed iteration count. Not gated; the before/after tables
## are in EXPERIMENTS.md "Checkpoint data path", "Flush data path",
## "Restore data path" and "Sub-page deltas".
microbench:
	$(GO) test -run '^$$' -benchtime=200x -benchmem \
		-bench 'BenchmarkCowFault|BenchmarkBeginCheckpoint|BenchmarkProtectObject|BenchmarkDropEpoch|BenchmarkPutRecord|BenchmarkStoreFlush|BenchmarkLazyRestore|BenchmarkEncodeDeltaCompact|BenchmarkReceiverCompactDelta' \
		./internal/vm/ ./internal/objstore/ ./internal/core/ ./internal/netback/

## benchcheck: the scoreboard's own smoke test, race-enabled. benchmark/
## is a module of its own, so `go test ./...` does not reach it.
benchcheck:
	$(GO) test -C benchmark -race ./...
