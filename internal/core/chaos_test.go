package core_test

// The whole-system chaos harness: storage faults, link faults, process
// crashes with supervisor restarts, a transient partition with heal,
// one forced replica promotion, and one stale-primary return — all
// composed under one seeded schedule, with the core invariants
// (durable monotonicity, bit-identical restores, released output never
// lost, exactly one primary per lineage) re-checked after every event.
// The engine lives in internal/bench (ChaosRun); this test binds it to
// the seeds the repo's `make chaoscheck` pins.

import (
	"testing"

	"aurora/internal/bench"
)

func chaosConfig(seed int64) bench.ChaosConfig {
	return bench.ChaosConfig{
		Seed:            seed,
		Checkpoints:     24,
		StepsPerEpoch:   3,
		LinkDrop:        0.02,
		LinkDup:         0.05,
		LinkReorder:     0.05,
		LinkCorrupt:     0.01,
		StoreWriteErr:   0.02,
		StoreReadErr:    0.01,
		CrashEvery:      8,
		PartitionAt:     10,
		PartitionLen:    3,
		DivergentEpochs: 4,
		PostEpochs:      6,
	}
}

func runChaos(t *testing.T, seed int64) {
	t.Helper()
	rep, err := bench.ChaosRun(chaosConfig(seed))
	if err != nil {
		t.Fatalf("chaos seed %d: %v", seed, err)
	}
	// The schedule must actually have exercised every event class.
	if rep.Crashes < 1 || rep.Restores < 1 {
		t.Fatalf("seed %d: crashes=%d restores=%d, want >= 1 each", seed, rep.Crashes, rep.Restores)
	}
	if rep.Heals != 1 {
		t.Fatalf("seed %d: heals=%d, want 1 transient partition healed", seed, rep.Heals)
	}
	if rep.Partitions < 2 {
		t.Fatalf("seed %d: partitions=%d, want >= 2 (transient + permanent)", seed, rep.Partitions)
	}
	if rep.LinkDropped == 0 {
		t.Fatalf("seed %d: no frames dropped on the link", seed)
	}
	if rep.PromoteGen < 2 {
		t.Fatalf("seed %d: promotion generation %d, want >= 2", seed, rep.PromoteGen)
	}
	if rep.Floor == 0 || rep.Backfilled == 0 {
		t.Fatalf("seed %d: floor=%d backfilled=%d, want nonzero", seed, rep.Floor, rep.Backfilled)
	}
	if rep.PromoteTTR <= 0 {
		t.Fatalf("seed %d: promotion TTR %v not modeled", seed, rep.PromoteTTR)
	}
	if rep.CatchUp <= 0 {
		t.Fatalf("seed %d: catch-up time %v not modeled", seed, rep.CatchUp)
	}
	if rep.StaleRejected < 2 {
		t.Fatalf("seed %d: staleRejected=%d, want the fenced flush and the refused barrier", seed, rep.StaleRejected)
	}
	if rep.Quarantined < 4 {
		t.Fatalf("seed %d: quarantined=%d, want >= 4 divergent epochs", seed, rep.Quarantined)
	}
	if rep.Released <= rep.Floor {
		t.Fatalf("seed %d: released watermark %d did not advance past the promotion floor %d", seed, rep.Released, rep.Floor)
	}
	t.Logf("seed %d: %d checkpoints, %d crashes, %d partitions, floor %d, gen %d, catch-up %v, promote TTR %v",
		seed, rep.Checkpoints, rep.Crashes, rep.Partitions, rep.Floor, rep.PromoteGen, rep.CatchUp, rep.PromoteTTR)
}

func TestChaosSeed1(t *testing.T)  { runChaos(t, 1) }
func TestChaosSeed7(t *testing.T)  { runChaos(t, 7) }
func TestChaosSeed42(t *testing.T) { runChaos(t, 42) }

// Quorum chaos: 500 checkpoints on a 3-replica set (write quorum 2
// over store + links) with one replica killed mid-run and restarted,
// one replica partitioned and healed, and a deliberately slow last
// link — under seeded frame drop/dup/reorder/corrupt on every link.
// The acceptance bar from the quorum-replication PR: durable reaches
// 500 monotone, the W=2 median durable latency beats the all-backends
// baseline (quorum hides the slow member), the killed replica catches
// back up to the contiguous floor, and restores from every member are
// bit-identical after quorum promotion.
func runQuorumChaos(t *testing.T, seed int64) {
	t.Helper()
	rep, err := bench.QuorumChaosRun(bench.QuorumChaosConfig{
		Seed:        seed,
		Replicas:    3,
		W:           2,
		Checkpoints: 500,
		LinkDrop:    0.01,
		LinkDup:     0.02,
		LinkReorder: 0.02,
		LinkCorrupt: 0.005,
	})
	if err != nil {
		t.Fatalf("quorum chaos seed %d: %v", seed, err)
	}
	if rep.Durable != 500 {
		t.Fatalf("seed %d: durable %d, want 500", seed, rep.Durable)
	}
	if rep.BaselineMedian <= 0 || rep.MedianDurable > rep.BaselineMedian {
		t.Fatalf("seed %d: W=2 median durable latency %v exceeds all-backends baseline %v",
			seed, rep.MedianDurable, rep.BaselineMedian)
	}
	if rep.Kills != 1 || rep.Heals < 2 {
		t.Fatalf("seed %d: kills=%d heals=%d, want 1 kill and >= 2 heals", seed, rep.Kills, rep.Heals)
	}
	if rep.CatchUpEpochs == 0 {
		t.Fatalf("seed %d: restarted replica replayed no catch-up epochs", seed)
	}
	if rep.LinkDropped == 0 || rep.LinkInjected == 0 {
		t.Fatalf("seed %d: link faults not exercised (dropped=%d injected=%d)", seed, rep.LinkDropped, rep.LinkInjected)
	}
	if rep.PagesSkipped == 0 {
		t.Fatalf("seed %d: compact deltas never skipped a page by content hash", seed)
	}
	// Read-repair is not asserted here: by the end every member has
	// folded its history into [base, floor], so none lacks an epoch the
	// elected one holds. netback's TestPromoteQuorumRepairsFromFoldedMember
	// promotes over a member left behind.
	if rep.PromoteGen < 2 {
		t.Fatalf("seed %d: promotion gen=%d, want >= 2", seed, rep.PromoteGen)
	}
	if rep.RestoresVerified < 3 {
		t.Fatalf("seed %d: only %d bit-identical restores verified, want >= 3", seed, rep.RestoresVerified)
	}
	if rep.Released+1 < rep.Durable {
		t.Fatalf("seed %d: released watermark %d lags durable %d", seed, rep.Released, rep.Durable)
	}
	t.Logf("seed %d: durable %d, median %v vs baseline %v, catch-up %d epochs, pages sent/skipped %d/%d, gen %d, repaired %d, restores %d",
		seed, rep.Durable, rep.MedianDurable, rep.BaselineMedian, rep.CatchUpEpochs,
		rep.PagesSent, rep.PagesSkipped, rep.PromoteGen, rep.Repaired, rep.RestoresVerified)
}

func TestQuorumChaosSeed1(t *testing.T)  { runQuorumChaos(t, 1) }
func TestQuorumChaosSeed7(t *testing.T)  { runQuorumChaos(t, 7) }
func TestQuorumChaosSeed42(t *testing.T) { runQuorumChaos(t, 42) }
