package core_test

// Unit coverage for core.Autoscaler: window-qualified scale-out with a
// dead warm spare skipped mid-scale-out, hysteresis (no flapping once
// converged), paced rebalance budgets with the per-tick pressure
// re-snapshot and per-lineage cooldown, scale-in completion, both
// rollback paths (ErrNoFeasiblePlacement and mid-drain
// re-pressurization), the drain-abort-then-evacuate regression, and
// ErrScalingInProgress on concurrent manual verbs.

import (
	"errors"
	"testing"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// warmNode builds a StoreNode the way newPlaceRig does, but does not
// admit it — it goes into the autoscaler's warm pool. The node's fault
// device and kernel are registered on the rig so tests can kill it or
// run its workloads after admission.
func (r *placeRig) warmNode(name, domain string, seed int64) *core.StoreNode {
	r.t.Helper()
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock,
		storage.FaultConfig{Seed: seed})
	sn := &core.StoreNode{
		Name:   name,
		Domain: domain,
		O:      o,
		SB:     core.NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock),
		Sup:    core.NewSupervisor(o, core.SupervisorConfig{}),
	}
	r.nodes = append(r.nodes, sn)
	r.fds[name] = fd
	r.kerns[name] = k
	return sn
}

// tickUntil drives the autoscaler until an action (or the budget runs
// out), returning the matching decision.
func tickUntil(t *testing.T, as *core.Autoscaler, budget int, action string) core.ScaleDecision {
	t.Helper()
	for i := 0; i < budget; i++ {
		dec, _ := as.Tick()
		if dec.Action == action {
			return dec
		}
	}
	t.Fatalf("no %q decision within %d ticks; decisions: %+v", action, budget, as.Decisions())
	return core.ScaleDecision{}
}

// TestAutoscalerScaleOut: sustained primary-load pressure admits a
// warm spare; the dead spare ahead of it in the pool is skipped with a
// recorded decision; once the pool is empty further pressure holds.
func TestAutoscalerScaleOut(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{
		stores: 2, domains: 2, seed: 1,
		placer: core.PlacerConfig{PrimaryTarget: 2},
	})
	dead := r.warmNode("warm0", "rack1", 101)
	r.fds["warm0"].Down()
	live := r.warmNode("warm1", "rack0", 102)

	as := core.NewAutoscaler(r.placer, core.AutoscalerConfig{
		Window: 3, Cooldown: 2, MinStores: 2, MaxStores: 6,
	})
	if err := as.AddWarmStore(dead); err != nil {
		t.Fatal(err)
	}
	if err := as.AddWarmStore(live); err != nil {
		t.Fatal(err)
	}

	var pls []*core.Placement
	counters := make(map[uint64]uint64)
	for i := 0; i < 4; i++ {
		pl := r.place()
		pls = append(pls, pl)
		r.load(pl, 5)
	}
	r.freeze(pls, counters)

	out := tickUntil(t, as, 8, "scale-out")
	if out.Store != "warm1" {
		t.Fatalf("scaled out %q, want warm1 (dead spare skipped)", out.Store)
	}
	skipped := false
	for _, dec := range as.Decisions() {
		if dec.Action == "scale-out-skipped" && dec.Store == "warm0" {
			skipped = true
		}
	}
	if !skipped {
		t.Fatal("dead warm spare was not skipped with a recorded decision")
	}
	if live.State() != core.StoreActive {
		t.Fatalf("admitted spare state %s, want active", live.State())
	}

	done := tickUntil(t, as, 24, "scale-out-done")
	if p := r.placer.Utilization(live); p <= 0 {
		t.Fatalf("seeding finished (%s) but the new store carries nothing", done.Reason)
	}
	// Pressure persists (4 primaries cannot sit below 0.85×2 on 3
	// stores) but the pool is empty: the loop must hold, not crash.
	held := false
	for i := 0; i < 8; i++ {
		dec, _ := as.Tick()
		if dec.Action == "hold" && dec.Reason == "warm pool empty" {
			held = true
		}
		if dec.Action == "scale-in-begin" {
			t.Fatalf("flapped into scale-in at tick %d: %+v", dec.Tick, dec)
		}
	}
	if !held {
		t.Fatal("empty warm pool did not surface a hold decision")
	}

	for _, pl := range pls {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			t.Fatalf("lineage %d: %v", pl.Lineage, err)
		}
		if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
			t.Fatalf("lineage %d: counter %d after scale-out, want %d", pl.Lineage, got, counters[pl.Lineage])
		}
	}
	r.assertInvariants()
	if v := as.InvariantViolations(); len(v) != 0 {
		t.Fatalf("autoscaler invariant audit: %v", v)
	}
}

// TestAutoscalerScaleInCompletes: a fleet holding below the low target
// for a full window drains its emptiest store through the paced path
// and fences it, and the cooldown + window reset keep the next
// scale-in from firing immediately.
func TestAutoscalerScaleInCompletes(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{
		stores: 4, domains: 2, seed: 7,
		placer: core.PlacerConfig{PrimaryTarget: 8},
	})
	as := core.NewAutoscaler(r.placer, core.AutoscalerConfig{
		Window: 3, Cooldown: 4, MinStores: 2, DrainBudget: 2,
	})
	var pls []*core.Placement
	counters := make(map[uint64]uint64)
	for i := 0; i < 4; i++ {
		pl := r.place()
		pls = append(pls, pl)
		r.load(pl, 5)
	}
	r.freeze(pls, counters)

	begin := tickUntil(t, as, 8, "scale-in-begin")
	done := tickUntil(t, as, 24, "scale-in-done")
	if begin.Store != done.Store {
		t.Fatalf("began draining %s but finished %s", begin.Store, done.Store)
	}
	n, err := r.placer.Node(done.Store)
	if err != nil {
		t.Fatal(err)
	}
	if n.State() != core.StoreFenced {
		t.Fatalf("drained store state %s, want fenced", n.State())
	}
	// Cooldown + window reset: the very next tick must not begin
	// another drain.
	dec, _ := as.Tick()
	if dec.Action != "hold" {
		t.Fatalf("tick after scale-in-done acted (%s), want hold", dec.Action)
	}
	for _, pl := range pls {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			t.Fatalf("lineage %d: %v", pl.Lineage, err)
		}
		if cur.Primary() == n {
			t.Fatalf("lineage %d still resident on fenced %s", pl.Lineage, n.Name)
		}
		if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
			t.Fatalf("lineage %d: counter %d after scale-in, want %d", pl.Lineage, got, counters[pl.Lineage])
		}
	}
	r.assertInvariants()
	if v := as.InvariantViolations(); len(v) != 0 {
		t.Fatalf("autoscaler invariant audit: %v", v)
	}
}

// TestAutoscalerScaleInRollbackInfeasible: draining the only store of
// its failure domain hits ErrNoFeasiblePlacement on its residents (no
// anti-affine target exists) and the autoscaler rolls the drain back —
// the store is re-admitted active with zero fenced survivors, and a
// subsequent evacuation can still promote onto it (the
// drain-abort-then-evacuate regression).
func TestAutoscalerScaleInRollbackInfeasible(t *testing.T) {
	// 3 stores over 2 domains: store0/store2 in rack0, store1 alone in
	// rack1. Every lineage's replica set spans both racks, so store1's
	// residents have nowhere anti-affine to go.
	r := newPlaceRig(t, placeRigConfig{
		stores: 3, domains: 2, seed: 42,
		placer: core.PlacerConfig{PrimaryTarget: 8},
	})
	as := core.NewAutoscaler(r.placer, core.AutoscalerConfig{
		Window: 3, Cooldown: 2, MinStores: 2,
	})
	var pls []*core.Placement
	counters := make(map[uint64]uint64)
	for i := 0; i < 6; i++ {
		pl := r.place()
		pls = append(pls, pl)
		r.load(pl, 5)
	}
	store1, err := r.placer.Node("store1")
	if err != nil {
		t.Fatal(err)
	}
	if p := r.placer.Utilization(store1); p <= 0 {
		t.Fatal("store1 holds no primaries; the scenario needs residents to strand")
	}
	r.freeze(pls, counters)

	// The automatic picker refuses store1 (sole rack1 store), so the
	// operator forces it — and the loop must save them from it.
	if _, err := as.ScaleIn("store1"); err != nil {
		t.Fatalf("manual scale-in: %v", err)
	}
	// Concurrent manual verbs refuse with the typed error mid-flight.
	if _, err := as.ScaleOut(); !errors.Is(err, core.ErrScalingInProgress) {
		t.Fatalf("ScaleOut mid-drain: err = %v, want ErrScalingInProgress", err)
	}
	if _, err := as.ScaleIn(""); !errors.Is(err, core.ErrScalingInProgress) {
		t.Fatalf("ScaleIn mid-drain: err = %v, want ErrScalingInProgress", err)
	}

	rb := tickUntil(t, as, 8, "scale-in-rollback")
	if rb.Store != "store1" || !errors.Is(rb.Err, core.ErrNoFeasiblePlacement) {
		t.Fatalf("rollback decision %+v, want store1 with ErrNoFeasiblePlacement", rb)
	}
	if store1.State() != core.StoreActive {
		t.Fatalf("rolled-back store state %s, want active", store1.State())
	}
	for _, sn := range r.nodes {
		if sn.State() == core.StoreFenced {
			t.Fatalf("fenced survivor %s after rollback", sn.Name)
		}
	}

	// Drain-abort-then-evacuate: kill the busiest rack0 store; its
	// residents promote onto surviving replicas — which for rack0
	// primaries means the re-admitted store1. The rollback must have
	// left store1's wires handshaken or the promotions stall.
	victim := busiest(pls)
	if victim == store1 {
		t.Fatalf("busiest store is store1; scenario needs a rack0 victim")
	}
	var residents []uint64
	for _, pl := range pls {
		if pl.Primary() == victim {
			residents = append(residents, pl.Lineage)
		}
	}
	r.killAndHeal(victim.Name, residents, false)
	for _, pl := range pls {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			t.Fatalf("lineage %d after evacuation: %v", pl.Lineage, err)
		}
		if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
			t.Fatalf("lineage %d: counter %d after drain-abort-then-evacuate, want %d",
				pl.Lineage, got, counters[pl.Lineage])
		}
	}
	r.assertInvariants()
	if v := as.InvariantViolations(); len(v) != 0 {
		t.Fatalf("autoscaler invariant audit: %v", v)
	}
}

// TestAutoscalerScaleInRollbackRepressurize: load bursting back while
// a drain is mid-flight aborts the scale-in — the half-drained store
// returns to active with its migrated-off residents staying where they
// landed and everything routable.
func TestAutoscalerScaleInRollbackRepressurize(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{
		stores: 4, domains: 2, seed: 1,
		placer: core.PlacerConfig{PrimaryTarget: 4},
	})
	as := core.NewAutoscaler(r.placer, core.AutoscalerConfig{
		Window: 2, Cooldown: 2, MinStores: 2, DrainBudget: 1,
	})
	var pls []*core.Placement
	counters := make(map[uint64]uint64)
	for i := 0; i < 4; i++ {
		pl := r.place()
		pls = append(pls, pl)
		r.load(pl, 5)
	}
	r.freeze(pls, counters)

	begin := tickUntil(t, as, 8, "scale-in-begin")
	drainee, err := r.placer.Node(begin.Store)
	if err != nil {
		t.Fatal(err)
	}
	// Burst: the arrival storm lands while the drain is mid-flight.
	for i := 0; i < 8; i++ {
		pls = append(pls, r.place())
	}
	rb := tickUntil(t, as, 8, "scale-in-rollback")
	if rb.Store != begin.Store {
		t.Fatalf("rolled back %s, want %s", rb.Store, begin.Store)
	}
	if rb.Reason != "fleet re-pressurized mid-drain" {
		t.Fatalf("rollback reason %q", rb.Reason)
	}
	if drainee.State() != core.StoreActive {
		t.Fatalf("rolled-back store state %s, want active", drainee.State())
	}
	for _, sn := range r.nodes {
		if sn.State() == core.StoreFenced {
			t.Fatalf("fenced survivor %s after rollback", sn.Name)
		}
	}
	// The re-admitted store takes new placements again.
	r.freeze(pls, counters)
	for _, pl := range pls {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			t.Fatalf("lineage %d: %v", pl.Lineage, err)
		}
		if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
			t.Fatalf("lineage %d: counter %d after rollback, want %d", pl.Lineage, got, counters[pl.Lineage])
		}
	}
	r.assertInvariants()
	if v := as.InvariantViolations(); len(v) != 0 {
		t.Fatalf("autoscaler invariant audit: %v", v)
	}
}

// TestRebalanceTickPacing: the paced rebalance respects its per-tick
// budget, re-snapshots pressure each tick (a lineage fattened after
// the pacer started is an eligible mover), and the per-lineage
// cooldown keeps a just-moved lineage parked.
func TestRebalanceTickPacing(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{
		stores: 4, seed: 42, capBlks: 256,
		placer: core.PlacerConfig{HighWater: 0.04, MoveCooldownTicks: 8},
	})
	var pls []*core.Placement
	for i := 0; i < 4; i++ {
		pls = append(pls, r.place())
	}
	fatten := func(pl *core.Placement) {
		t.Helper()
		p, err := pl.Primary().O.K.Process(pl.Group().PIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, vm.PageSize)
		for pg := 1; pg <= 8; pg++ {
			for i := range buf {
				buf[i] = byte(pg*13 + i)
			}
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
				t.Fatal(err)
			}
		}
		r.load(pl, 5)
	}
	fatten(pls[0])
	from := pls[0].Primary()

	evs, err := r.placer.RebalanceTick(core.RebalanceOpts{Budget: 1})
	if err != nil {
		t.Fatalf("tick 1: %v", err)
	}
	moves := 0
	for _, ev := range evs {
		if ev.Kind == "rebalanced" {
			moves++
			if ev.Lineage != pls[0].Lineage {
				t.Fatalf("tick 1 moved lineage %d, want the heavy %d", ev.Lineage, pls[0].Lineage)
			}
		}
	}
	if moves != 1 {
		t.Fatalf("tick 1 made %d moves, budget was 1", moves)
	}
	cur, err := r.placer.Lookup(pls[0].Lineage)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Primary() == from {
		t.Fatal("heavy lineage did not move off the pressured store")
	}

	// Fatten a second lineage AFTER the pacer has started: the fresh
	// per-tick snapshot must see it (the stale-snapshot blind spot).
	second := pls[1]
	if cur2, err := r.placer.Lookup(second.Lineage); err != nil {
		t.Fatal(err)
	} else {
		second = cur2
	}
	fatten(second)
	landed := false
	for tick := 0; tick < 8 && !landed; tick++ {
		evs, err := r.placer.RebalanceTick(core.RebalanceOpts{Budget: 1})
		if err != nil {
			t.Fatalf("tick %d: %v", tick+2, err)
		}
		for _, ev := range evs {
			if ev.Kind != "rebalanced" {
				continue
			}
			if ev.Lineage == pls[0].Lineage {
				t.Fatalf("cooldown violated: lineage %d moved again at tick %d", ev.Lineage, tick+2)
			}
			if ev.Lineage == second.Lineage {
				landed = true
			}
		}
	}
	if !landed {
		t.Fatal("lineage fattened mid-pacer never became an eligible mover")
	}
	r.assertInvariants()
}
