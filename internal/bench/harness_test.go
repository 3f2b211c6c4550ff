package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/vm"
)

// TestHarnessReplay is the determinism gate: a seed must determine the
// whole report of every engine whose simulated outcome does not ride on
// real-goroutine flush timing, and must determine the device the space
// harness sizes. Each engine runs twice at smoke scale and the reports
// must be reflect.DeepEqual. Every wire is a netback.Wire, whose link
// delivers a frame on the writer's goroutine, so link faults are in:
// the quorum leg runs 200 checkpoints at 5/5/5/2 % drop/dup/reorder/
// corrupt, the placement leg a fleet whose directory wires fault at 5 %.
//
// Left out, on purpose (ROADMAP item 0 — the deterministic executor —
// is what brings them in):
//   - ChaosRun with link faults or a bounded store: even with link
//     faults off, its StoreInjected wanders (25–29 at 120 checkpoints)
//     because foreground store operations race the background flusher
//     for the fault device's draws — a store-side race, not a wire's.
//   - the rest of SpaceReport: even the unbounded, fault-free control's
//     VirtualTime differs by ~100 ns between two runs.
func TestHarnessReplay(t *testing.T) {
	// vm's object and address-space ID counters are process-global, and
	// their varint width lands in metadata bytes and so in virtual time
	// (ROADMAP item 0): a report moves by nanoseconds when a counter
	// crosses 2^7 or 2^14 between two runs. Park both past 2^14 — the next
	// width change is then two million IDs away — so this test compares
	// what a seed decides, not what ran earlier in the process.
	for vm.NewObject("", 0).ID < 1<<14 {
	}
	for vm.NewAddressSpace(nil, nil).ID < 1<<14 {
	}
	engines := []struct {
		name string
		run  func() (any, error)
	}{
		{"chaos", func() (any, error) {
			return ChaosRun(ChaosConfig{Seed: 7, Checkpoints: 16, StoreWriteErr: 0.02, StoreReadErr: 0.01,
				CrashEvery: 6, PartitionAt: 8, PartitionLen: 3})
		}},
		{"quorum", func() (any, error) {
			return QuorumChaosRun(QuorumChaosConfig{Seed: 7, Checkpoints: 40,
				LinkDrop: 0.01, LinkDup: 0.02, LinkReorder: 0.02, LinkCorrupt: 0.005})
		}},
		{"quorum under link faults", func() (any, error) {
			return QuorumChaosRun(QuorumChaosConfig{Seed: 7, Checkpoints: 200,
				LinkDrop: 0.05, LinkDup: 0.05, LinkReorder: 0.05, LinkCorrupt: 0.02})
		}},
		{"placement under link faults", func() (any, error) {
			return PlacementChaosRun(PlacementChaosConfig{Seed: 7, Groups: 16, Drain: true,
				LinkDrop: 0.05, LinkDup: 0.025, LinkCorrupt: 0.025})
		}},
		{"migrate", func() (any, error) {
			return MigrateChaosRun(MigrateChaosConfig{Seed: 7, LinkDrop: 0.02, LinkDup: 0.01, LinkCorrupt: 0.01,
				StoreWriteErr: 0.01, StoreReadErr: 0.005, Retries: 8, PartitionMid: true, Standby: true})
		}},
		{"autoscale", func() (any, error) {
			return AutoscaleChaosRun(AutoscaleChaosConfig{Seed: 7, PeakGroups: 16, LinkDrop: 0.01, LinkDup: 0.005,
				LinkCorrupt: 0.005, StoreWriteErr: 0.002, StoreReadErr: 0.002})
		}},
	}
	for _, e := range engines {
		first, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		again, err := e.run()
		if err != nil {
			t.Fatalf("%s replay: %v", e.name, err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Errorf("%s: the same config produced two reports:\n%+v\n%+v", e.name, first, again)
		}
	}

	var capacity int64
	for i := 0; i < 8; i++ {
		r, err := SpaceRun(SpaceConfig{Seed: 42, Checkpoints: 40, CapacityEpochs: 20, KeepLast: 16})
		if err != nil {
			t.Fatalf("space run %d: %v", i, err)
		}
		if i > 0 && r.Capacity != capacity {
			t.Errorf("space run %d sized a %d-byte device, run 0 sized %d bytes", i, r.Capacity, capacity)
		}
		capacity = r.Capacity
	}
}

// TestHarnessCheckNamesTheFailure induces a split brain under the
// shared check and requires the message an engine would return to carry
// what a red gate line needs: engine, seed, phase and lineage.
func TestHarnessCheckNamesTheFailure(t *testing.T) {
	h := newHarness("chaos", 7)
	a, b := NewNode("a", 1, 0, 0), NewNode("b", 2, 0, 0)
	h.stores = []*core.StoreNode{a.storeNode(""), b.storeNode("")}
	l, err := h.start(a, workload{pages: 1, seed: 7}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.check("setup"); err != nil {
		t.Fatalf("healthy line rejected: %v", err)
	}
	if err := claimPrimary(b, l.lineage, l.g.Generation()); err != nil {
		t.Fatal(err)
	}
	err = h.check("after promotion")
	if err == nil {
		t.Fatal("two primaries at one generation went unnoticed")
	}
	msg := h.fail(err).Error()
	for _, sub := range []string{"chaos", "seed 7", "after promotion", fmt.Sprintf("lineage %d", l.lineage), "a@gen1", "b@gen1"} {
		if !strings.Contains(msg, sub) {
			t.Errorf("%q does not mention %q", msg, sub)
		}
	}
}
