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
## path, of vm and of the kernel, vm and core together, the files
## ROADMAP item 5 tracks — the image codec and the control plane, per
## file and the control plane in all — and the two single files ROADMAP
## watches grow: the CLI and the object store's.
CONTROL_PLANE = placer autoscale migrate promote supervisor
loc:
	@for d in core netback bench objstore storage vm kernel; do \
		printf 'internal/%s %s\n' $$d $$(ls internal/$$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done
	@printf 'vm + core %s\n' $$(ls internal/vm/*.go internal/core/*.go | grep -v _test.go | xargs cat | wc -l)
	@for f in image $(CONTROL_PLANE); do \
		printf 'internal/core/%s.go %s\n' $$f $$(cat internal/core/$$f.go | wc -l); \
	done
	@printf 'control plane (%s) %s\n' "$(CONTROL_PLANE)" $$(cat $(CONTROL_PLANE:%=internal/core/%.go) | wc -l)
	@for f in cmd/sls/main.go internal/objstore/store.go; do \
		printf '%s %s\n' $$f $$(cat $$f | wc -l); \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## faultcheck: seeded fault-matrix tests under the race detector — the
## self-healing flush pipeline, crash-consistent superblock, and replica
## resume paths driven by the fault-injecting device; the dirty-line
## masks every sub-page path relies on (seeds 1–50); a line page served
## from any intact copy; a wrong resumed page hash refused, and a write
## the dirty-line mask missed caught by the sampled whole-page check.
faultcheck:
	$(GO) test -race -count=1 -run 'TestFaultMatrix|TestFault|TestTorn|TestScrub|TestReplica|TestRecovery|TestQuarantine|TestLineEntries|TestLinePutFailureLeavesStoreAsFound|TestLineMasksCheckedUnderRace|TestIndexRefusesBadLineEntries|TestRottedLineBaseFailsOverByHash|TestArrayReturnsWhatItBills|TestPeekBillsNothing|TestRecordModel|TestDecodeOrdersPagesAndRefusesDuplicates|TestSyncedIndexIsAFunctionOfState|TestArrayReadBatchAllocatesNothing|TestLinePageFaultIsOneRead|TestDirtyLineMaskProperty|TestFetchBlockTriesEveryLineCopy|TestResumedHashCheckedWholeUnderRace|TestResumeCheckCatchesAnUnmarkedWrite' \
		./internal/core/ ./internal/storage/ ./internal/objstore/ ./internal/netback/ ./internal/vm/

## recoverycheck: validated self-healing restore under the race detector —
## crash-at-every-op harness, epoch quarantine with fallback, lazy-paging
## failover, supervisor auto-restore, CLI exit codes, memory as a cache
## of the store (a clean page evicted under a frame cap writes nothing and
## refaults with one store read, a dirty heap fails typed, a store down at
## refault fails typed, a lazy restore pages a working set twice the cap
## before its first checkpoint; a fork's sides and the epochs they page
## from survive the pager, as does the epoch a process or a segment pages
## from after its group is unpersisted, until the segment is removed, and
## no eviction frees a frame under a copy),
## and `sls send`/`recv`: an image file round-trips, also straight after
## a lazy restore; the first barrier after a lazy restore reads no page
## of its restore source, and its flush reads each page a destination
## lacks once, before handing them out — none into the store it came
## from, what a second store or a replica lacks, each page once for two
## fresh replicas, nothing again for a retried delivery, and what the
## flush did not read for a replica's need-resend — (and fails, typed,
## with the store down, and only where a destination lacked a page it
## could not read); a store keeps what it said it holds until the
## put; and a rollback to it before that flush restores
## bit for bit or, with the store down, fails typed and leaves the group
## running; a rollback to a durable epoch only a sick store owes reads the
## live chain; Encode, and an epoch opened for reading until it is closed,
## hold the frames they read across a release of their chain, and the
## fleet budget charges no page held by name; a fork child
## keeps its parent's sls_mctl hints; a restore of an image that
## holds its pages by name (lazily loaded, or that first barrier unflushed)
## reads none of them before the first fault and pins the epoch it pages
## from; a line page's demand fault
## is one lookup and one device read; the store's records survive
## every put, drop and Sync+Open as a reference model has them; and a
## partly written page's hash resumes from the midstate its previous
## capture left, to the same content hash, whichever way the digest hands
## out its state, from a table the group keeps per object it tracks.
recoverycheck:
	$(GO) test -race -count=1 -run 'TestRecovery|TestMemoryIsACacheOfTheStore|TestForkedMemorySurvivesThePager|TestEvictedPagesPinTheirEpoch|TestUnpersistedProcessKeepsItsEpoch|TestRemovedSegmentLetsItsEpochGo|TestDetachReleasesOwedEpochs|TestReclaimRacesAccesses|TestInheritedPagesFlushByHash|TestRetriedDeliveryReadsNothingAgain|TestNeedResendOfAnImageHeldByName|TestFailedPlanReadFailsOnlyWhoLacksThePage|TestHoldKeepsBlocksUntilThePut|TestForkKeepsMctlHints|TestQuarantine|TestCLIRestore|TestRestoreExitCodes|TestCLIEpochs|TestCLISendRecv|TestImageFileRoundTrip|TestEncodeAfterLazyRestore|TestCLISendAfterLazyRestore|TestFullBarrierReadsNoSourcePage|TestFirstBarrierAfterLazyRestore|TestFailedFetchFailsTheFlushNotTheBarrier|TestRollbackToUnflushedPostRestoreEpoch|TestRollbackWhileRestoreSourceDown|TestEncodeHoldsTheFramesItReads|TestFleetBudgetChargesInheritedPages|TestRestoreAttachesWhatAnImageHoldsByName|TestTrimmedLineChainRestoresBitIdentical|TestRottedLineBaseFailsOverByHash|TestLinePageFaultIsOneRead|TestFaultAsksItsSourceOnce|TestRecordModel|TestDecodeOrdersPagesAndRefusesDuplicates|TestSyncedIndexIsAFunctionOfState|TestPartlyWrittenPagesResumeTheirHash|TestPageHasherMarshalsWithoutAppendBinary|TestMidstateTablesFollowTrackedObjects' \
		./internal/core/ ./internal/vm/ ./internal/netback/ ./internal/objstore/ ./cmd/sls/

## chaoscheck: whole-system chaos harness under the race detector —
## storage faults, link faults, crashes, a partition+heal, replica
## promotion, and a fenced stale primary composed in one seeded run
## (seeds 1, 7, 42), plus the promote CLI exit codes. The second line is
## the determinism gate: every engine whose report a seed already
## determines — the quorum and placement engines under link faults
## included — must replay it exactly, the space harness must size the
## same device, and every row of the baseline table must match its
## committed BENCH_*.json (wander fields inside their bounds), and one
## store state must persist to one index, byte for byte, at 1, 2 and 4
## procs, three times each, under -race (whose slower schedule is what
## used to expose a wire's timing).
chaoscheck:
	$(GO) test -race -count=1 -run 'TestChaos|TestPromote|TestCLIPromote' \
		./internal/core/ ./cmd/sls/
	$(GO) test -race -count=3 -cpu 1,2,4 -run 'TestHarnessReplay|TestBaselines|TestSyncedIndexIsAFunctionOfState' ./internal/bench ./internal/objstore .

## spacecheck: graceful degradation under space pressure, race-enabled —
## watermark retention GC with the reachability audit after every
## reclaimed epoch, end-to-end ENOSPC survival on a ~10-epoch device
## (seeds 1, 7, 42), admission-control shedding, the GC interleaving
## property test, and the space-composed chaos run. The second line is
## the regression gate for the ENOSPC wedge that kept tier-1 red on ≥2
## cores (EXPERIMENTS.md "Flush pipeline: one owner per epoch"): the
## bounded-device runs at 1, 2 and 4 procs, three times each.
spacecheck:
	$(GO) test -race -count=1 -run 'TestSpace|TestReclaimer|TestAdmission|TestFlushENOSPC|TestSyncWithReclaim|TestGCInterleaving|TestControlPlaneReserve|TestStatsLiveAndReclaimable|TestCapacityGrowthOnly|TestSetFull|TestCLIGC|TestCLIDF|TestCLISpacePressure|TestDropEpochOverLinesWritesNoData|TestTrimmedLineChainRestoresBitIdentical|TestRecordModel|TestDecodeOrdersPagesAndRefusesDuplicates|TestSyncedIndexIsAFunctionOfState|TestArrayReadBatchAllocatesNothing|TestLinePageFaultIsOneRead' \
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
		-run 'TestFleetSimulation|TestFleetCloneDedup|TestUnpersistWithQueuedEpochsDoesNotLeak|TestCloseReapsFleetWorkers|TestSupervisor|TestDedupCrossGroupGCInterleaving|TestCLIFleet|TestCLIFleetLinePages' \
		./internal/core/ ./internal/objstore/ ./cmd/sls/

## quorumcheck: N-replica quorum replication under the race detector —
## the 500-checkpoint minority-kill chaos runs (seeds 1, 7, 42) with a
## kill+restart, a partition+heal, and quorum promotion; the quorum
## durability/latency/floor unit tests; the typed quorum error
## round-trips; the replica-set and compact-delta protocol tests; the
## folded receiver (bounded state, restores that outlive folds,
## read-repair from a folded member, the fold's edge streams, one chain
## walk per restore) and the line-delta safety run; the heat oracle (a
## 200-barrier schedule whose heat deltas every holder — chain, memory
## backend, store, folded receiver, reopened store — resolves to the
## barrier's counters); the CLI quorum/replicas verbs; and the quorum
## row of the baseline table against the committed BENCH_quorum.json.
quorumcheck:
	$(GO) test -race -count=1 -timeout 20m \
		-run 'TestQuorum|TestErrQuorumLost|TestStaleGenerationUnderQuorum|TestReplicatedQuorum|TestReclaimerQuorum|TestReplicaSetQuorum|TestCompactDelta|TestCLIQuorum|TestReceiverFoldBounded|TestFoldLeavesRestoredProcessItsFrames|TestPromoteQuorumRepairsFromFoldedMember|TestFoldStreams|TestFoldIsTheChainResolved|TestRestoreResolvesItsChainOnce|TestLineDeltaSafety|TestHeatOracle' \
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
## baseline table against the committed BENCH_migrate.json (blackouts,
## and the stop of each migrated group's first barrier on its target).
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
## internal/objstore, one epoch's StoreBackend.Flush, its page hashes,
## its replica encode and lazy restore + 64 demand faults + teardown in
## internal/core, one
## compact delta's receive in internal/netback — on a resident × dirty
## grid, at a fixed iteration count. Not gated; the before/after tables
## are in EXPERIMENTS.md "Checkpoint data path", "Flush data path",
## "Restore data path", "Sub-page deltas" and "Hash from the first
## written line".
microbench:
	$(GO) test -run '^$$' -benchtime=200x -benchmem \
		-bench 'BenchmarkCowFault|BenchmarkBeginCheckpoint|BenchmarkProtectObject|BenchmarkDropEpoch|BenchmarkPutRecord|BenchmarkStoreFlush|BenchmarkPageHashes|BenchmarkLazyRestore|BenchmarkEncodeDeltaCompact|BenchmarkReceiverCompactDelta' \
		./internal/vm/ ./internal/objstore/ ./internal/core/ ./internal/netback/

## benchcheck: the scoreboard's own smoke test, race-enabled. benchmark/
## is a module of its own, so `go test ./...` does not reach it.
benchcheck:
	$(GO) test -C benchmark -race ./...
