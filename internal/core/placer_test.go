package core_test

// Placement churn coverage for core.Placer: failure-domain
// anti-affinity at placement time, infeasible fleets rejected with the
// typed error, store-kill evacuation storms (typed ErrEvacuating while
// queued, bounded concurrency, bit-identical state on the new primary,
// exactly one primary claim at max generation across every store),
// first-class drain, pressure-driven rebalance, and the two adversarial
// interleavings the issue pins: a store killed mid-rebalance and a
// drain issued during an evacuation storm. Seeds 1/7/42 drive the
// fault-injected variants.

import (
	"errors"
	"fmt"
	"testing"

	"aurora/internal/core"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"

	"aurora/internal/kernel"
)

// placeRig is a small fleet wired through the production
// netback.Directory, with per-store fault devices so tests can kill a
// store (fd.Down) or bound its capacity.
type placeRig struct {
	t      *testing.T
	placer *core.Placer
	dir    *netback.Directory
	nodes  []*core.StoreNode
	fds    map[string]*storage.FaultDevice
	kerns  map[string]*kernel.Kernel
	next   int
}

// placeRigConfig shapes the fleet.
type placeRigConfig struct {
	stores   int
	domains  int // 0: max(2, stores/2)
	seed     int64
	capBlks  int64 // nonzero: bound each store's device capacity
	writeErr float64
	readErr  float64
	links    netback.LinkFaultConfig
	placer   core.PlacerConfig
	// wrap, when set, stands between the placer and the directory.
	wrap func(core.PlacerLinks) core.PlacerLinks
}

func newPlaceRig(t *testing.T, cfg placeRigConfig) *placeRig {
	t.Helper()
	r := &placeRig{
		t:     t,
		fds:   make(map[string]*storage.FaultDevice),
		kerns: make(map[string]*kernel.Kernel),
	}
	cfg.links.Seed = cfg.seed
	r.dir = netback.NewDirectory(cfg.links)
	var links core.PlacerLinks = r.dir
	if cfg.wrap != nil {
		links = cfg.wrap(r.dir)
	}
	r.placer = core.NewPlacer(links, cfg.placer)
	domains := cfg.domains
	if domains == 0 {
		domains = cfg.stores / 2
		if domains < 2 {
			domains = cfg.stores
		}
	}
	for i := 0; i < cfg.stores; i++ {
		name := fmt.Sprintf("store%d", i)
		clock := storage.NewClock()
		k := kernel.NewWith(clock, vm.NewPhysMem(0))
		o := core.NewOrchestrator(k)
		params := storage.ParamsOptaneNVMe
		if cfg.capBlks > 0 {
			params.Capacity = cfg.capBlks * objstore.BlockSize
		}
		fd := storage.NewFaultDevice(storage.NewMemDevice(params, clock), clock,
			storage.FaultConfig{Seed: cfg.seed*1000003 + int64(i)*7919, WriteErr: cfg.writeErr, ReadErr: cfg.readErr})
		sn := &core.StoreNode{
			Name:   name,
			Domain: fmt.Sprintf("rack%d", i%domains),
			O:      o,
			SB:     core.NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock),
			Sup:    core.NewSupervisor(o, core.SupervisorConfig{}),
		}
		if err := r.placer.AddStore(sn); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, sn)
		r.fds[name] = fd
		r.kerns[name] = k
	}
	return r
}

// tryPlace spawns one counter workload through the placer.
func (r *placeRig) tryPlace() (*core.Placement, error) {
	name := fmt.Sprintf("app%d", r.next)
	r.next++
	return r.placer.Place(name, func(n *core.StoreNode) (*core.Group, error) {
		p, err := n.O.K.Spawn(0, name)
		if err != nil {
			return nil, err
		}
		p.SetProgram(&migTestCounter{addr: p.HeapBase()})
		return n.O.Persist(name, p)
	})
}

// place is tryPlace on a fleet that must accept the placement.
func (r *placeRig) place() *core.Placement {
	r.t.Helper()
	pl, err := r.tryPlace()
	if err != nil {
		r.t.Fatalf("placing app%d: %v", r.next-1, err)
	}
	return pl
}

// load runs steps quanta on pl's primary, checkpoints, and syncs
// durable; returns the counter value the checkpoint pinned.
func (r *placeRig) load(pl *core.Placement, steps int) uint64 {
	r.t.Helper()
	n := pl.Primary()
	if _, err := r.kerns[n.Name].Run(steps); err != nil {
		r.t.Fatal(err)
	}
	c := counterOnNode(r.t, n, pl.Group())
	if _, err := n.O.Checkpoint(pl.Group(), core.CheckpointOpts{}); err != nil {
		r.t.Fatal(err)
	}
	if err := r.placer.SyncDurable(pl.Lineage); err != nil {
		r.t.Fatal(err)
	}
	return c
}

func counterOnNode(t *testing.T, n *core.StoreNode, g *core.Group) uint64 {
	t.Helper()
	return counterOn(t, &migMach{k: n.O.K, o: n.O}, g)
}

// freeze pins every placement's live state: read the counter,
// checkpoint, sync durable — with no kernel stepping in between, so
// the recorded value, the live value, and the durable image all agree
// (kernel.Run is round-robin over a node's whole process table, so a
// load on one placement advances its neighbors' counters past their
// last checkpoints).
func (r *placeRig) freeze(pls []*core.Placement, counters map[uint64]uint64) {
	r.t.Helper()
	for _, pl := range pls {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			r.t.Fatal(err)
		}
		c := counterOnNode(r.t, cur.Primary(), cur.Group())
		if _, err := cur.Primary().O.Checkpoint(cur.Group(), core.CheckpointOpts{}); err != nil {
			r.t.Fatal(err)
		}
		if err := r.placer.SyncDurable(pl.Lineage); err != nil {
			r.t.Fatal(err)
		}
		counters[pl.Lineage] = c
	}
}

// busiest returns the store holding the most of pls' primaries — the
// kill victim that produces the deepest evacuation storm.
func busiest(pls []*core.Placement) *core.StoreNode {
	counts := make(map[*core.StoreNode]int)
	for _, pl := range pls {
		counts[pl.Primary()]++
	}
	var best *core.StoreNode
	for n, c := range counts {
		if best == nil || c > counts[best] || (c == counts[best] && n.Name < best.Name) {
			best = n
		}
	}
	return best
}

// killAndHeal downs the named store's device, polls the placer until
// the storm drains, and returns the evacuation events. wantEvacuating
// asserts the typed mid-storm Lookup error was observable for one of
// the given lineages.
func (r *placeRig) killAndHeal(victim string, residents []uint64, wantEvacuating bool) []core.PlacerEvent {
	r.t.Helper()
	r.fds[victim].Down()
	sawEvacuating := false
	var evs []core.PlacerEvent
	for poll := 0; poll < 64; poll++ {
		for _, ev := range r.placer.Poll() {
			if ev.Kind == "evac-failed" && !errors.Is(ev.Err, core.ErrNoFeasiblePlacement) {
				r.t.Fatalf("evacuating lineage %d: %v", ev.Lineage, ev.Err)
			}
			if ev.Kind == "evacuated" || ev.Kind == "repaired" {
				evs = append(evs, ev)
			}
		}
		evac, repair := r.placer.QueueDepths()
		if evac > 0 {
			for _, lin := range residents {
				if _, err := r.placer.Lookup(lin); errors.Is(err, core.ErrEvacuating) {
					sawEvacuating = true
				}
			}
		}
		vn, err := r.placer.Node(victim)
		if err != nil {
			r.t.Fatal(err)
		}
		if vn.State() == core.StoreDown && evac == 0 && repair == 0 {
			break
		}
	}
	if evac, repair := r.placer.QueueDepths(); evac != 0 || repair != 0 {
		r.t.Fatalf("storm did not drain: evac=%d repair=%d", evac, repair)
	}
	if wantEvacuating && !sawEvacuating {
		r.t.Fatal("no Lookup surfaced ErrEvacuating mid-storm")
	}
	return evs
}

// assertInvariants checks anti-affinity and the
// exactly-one-primary-at-max-generation fence for every live lineage
// across every store in the fleet, dead ones included.
func (r *placeRig) assertInvariants() {
	r.t.Helper()
	if v := r.placer.AntiAffinityViolations(); len(v) != 0 {
		r.t.Fatalf("anti-affinity violated: %v", v)
	}
	for _, pl := range r.placer.Placements() {
		if _, err := r.placer.Lookup(pl.Lineage); err != nil {
			continue
		}
		var maxGen uint64
		var claims int
		for _, sn := range r.nodes {
			if gen, ok := sn.SB.Store().PrimaryGen(pl.Lineage); ok {
				if gen > maxGen {
					maxGen, claims = gen, 1
				} else if gen == maxGen {
					claims++
				}
			}
		}
		if claims != 1 {
			r.t.Fatalf("lineage %d: %d primary claims at max generation %d, want exactly 1", pl.Lineage, claims, maxGen)
		}
	}
}

// TestPlacerAntiAffinity: placements spread across stores by load and
// never co-locate a lineage's copies in one failure domain.
func TestPlacerAntiAffinity(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{stores: 4, seed: 1})
	perStore := make(map[string]int)
	for i := 0; i < 8; i++ {
		pl := r.place()
		perStore[pl.Primary().Name]++
		if len(pl.Replicas()) != 1 {
			t.Fatalf("placement %d: %d replicas, want 1", i, len(pl.Replicas()))
		}
		if pl.Primary().Domain == pl.Replicas()[0].Domain {
			t.Fatalf("placement %d: primary and replica share domain %s", i, pl.Primary().Domain)
		}
	}
	// Exact counts depend on occupancy tiebreaks (placing writes a seed
	// checkpoint, shifting fractions between picks); the scheduling
	// property is that load lands everywhere, not in one hot spot.
	for _, sn := range r.nodes {
		if perStore[sn.Name] < 1 || perStore[sn.Name] > 3 {
			t.Fatalf("load not spread: %v", perStore)
		}
	}
	r.assertInvariants()
}

// TestPlacerNoFeasiblePlacement: a fleet without enough distinct
// active failure domains refuses placement with the typed error.
func TestPlacerNoFeasiblePlacement(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{stores: 2, domains: 1, seed: 1})
	_, err := r.placer.Place("app", func(n *core.StoreNode) (*core.Group, error) {
		t.Fatal("start ran despite infeasible fleet")
		return nil, nil
	})
	if !errors.Is(err, core.ErrNoFeasiblePlacement) {
		t.Fatalf("err = %v, want ErrNoFeasiblePlacement", err)
	}
}

// TestPlacerEvacuation: a killed store's residents are re-homed by
// standby promotion with state bit-identical and the fleet invariants
// intact; queued lineages surface ErrEvacuating while the bounded
// evacuation queue drains. Seeds 1/7/42 with link and store faults.
func TestPlacerEvacuation(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newPlaceRig(t, placeRigConfig{
				stores: 4, seed: seed,
				writeErr: 0.01, readErr: 0.005,
				links:  netback.LinkFaultConfig{Drop: 0.02, Dup: 0.01, Corrupt: 0.01},
				placer: core.PlacerConfig{EvacConcurrency: 1, Retries: 8, DownAfter: 5},
			})
			var pls []*core.Placement
			counters := make(map[uint64]uint64)
			for i := 0; i < 8; i++ {
				pls = append(pls, r.place())
			}
			for _, pl := range pls {
				counters[pl.Lineage] = r.load(pl, 6)
			}
			victim := busiest(pls)
			var residents []uint64
			for _, pl := range pls {
				if pl.Primary() == victim {
					residents = append(residents, pl.Lineage)
				}
			}
			if len(residents) < 2 {
				t.Fatalf("victim %s holds %d primaries, need ≥ 2 to observe the queue", victim.Name, len(residents))
			}
			evs := r.killAndHeal(victim.Name, residents, true)
			evacuated := 0
			for _, ev := range evs {
				if ev.Kind == "evacuated" {
					evacuated++
					if ev.TTR <= 0 {
						t.Fatalf("lineage %d: TTR %v", ev.Lineage, ev.TTR)
					}
				}
			}
			if evacuated != len(residents) {
				t.Fatalf("evacuated %d of %d residents", evacuated, len(residents))
			}
			for _, lin := range residents {
				pl, err := r.placer.Lookup(lin)
				if err != nil {
					t.Fatalf("lineage %d unroutable after heal: %v", lin, err)
				}
				if pl.Primary() == victim {
					t.Fatalf("lineage %d still resident on dead %s", lin, victim.Name)
				}
				if got := counterOnNode(t, pl.Primary(), pl.Group()); got != counters[lin] {
					t.Fatalf("lineage %d: counter %d after evacuation, want %d", lin, got, counters[lin])
				}
			}
			r.assertInvariants()
			// The fleet keeps taking checkpoints after the heal.
			for _, pl := range pls {
				cur, err := r.placer.Lookup(pl.Lineage)
				if err != nil {
					continue
				}
				before := cur.Group().Durable()
				r.load(cur, 4)
				if cur.Group().Durable() <= before {
					t.Fatalf("lineage %d: durable stuck at %d after heal", pl.Lineage, before)
				}
			}
			r.assertInvariants()
		})
	}
}

// TestPlacerDrain: a planned decommission empties the store through
// live migration and fences it; re-draining and draining a fenced
// store are typed errors.
func TestPlacerDrain(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{stores: 4, seed: 7})
	var pls []*core.Placement
	counters := make(map[uint64]uint64)
	for i := 0; i < 6; i++ {
		pl := r.place()
		pls = append(pls, pl)
		r.load(pl, 5)
	}
	r.freeze(pls, counters)
	target := pls[0].Primary()
	evs, err := r.placer.Drain(target)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	migrated := 0
	for _, ev := range evs {
		if ev.Kind == "migrated" {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatal("drain moved nothing")
	}
	if target.State() != core.StoreFenced {
		t.Fatalf("state %s after drain, want fenced", target.State())
	}
	for _, pl := range pls {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			t.Fatalf("lineage %d: %v", pl.Lineage, err)
		}
		if cur.Primary() == target {
			t.Fatalf("lineage %d still resident on drained %s", pl.Lineage, target.Name)
		}
		for _, rep := range cur.Replicas() {
			if rep == target {
				t.Fatalf("lineage %d still replicates to drained %s", pl.Lineage, target.Name)
			}
		}
		if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
			t.Fatalf("lineage %d: counter %d after drain, want %d", pl.Lineage, got, counters[pl.Lineage])
		}
	}
	r.assertInvariants()
	if _, err := r.placer.Drain(target); !errors.Is(err, core.ErrNoFeasiblePlacement) {
		t.Fatalf("draining a fenced store: err = %v, want ErrNoFeasiblePlacement", err)
	}
}

// TestPlacerRebalance: a store over the space high-watermark sheds its
// heaviest lineage to the emptiest compatible store, state intact.
func TestPlacerRebalance(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{
		stores: 4, seed: 42, capBlks: 256,
		placer: core.PlacerConfig{HighWater: 0.04},
	})
	var pls []*core.Placement
	for i := 0; i < 4; i++ {
		pls = append(pls, r.place())
	}
	// Fatten the first placement until its store crosses the (tiny)
	// watermark.
	heavy := pls[0]
	p, err := heavy.Primary().O.K.Process(heavy.Group().PIDs()[0])
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
	want := r.load(heavy, 5)
	from := heavy.Primary()
	evs, err := r.placer.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	moved := false
	for _, ev := range evs {
		if ev.Kind == "rebalanced" && ev.Lineage == heavy.Lineage {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("pressure did not move the heavy lineage: %+v", evs)
	}
	cur, err := r.placer.Lookup(heavy.Lineage)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Primary() == from {
		t.Fatal("heavy lineage still on the pressured store")
	}
	if got := counterOnNode(t, cur.Primary(), cur.Group()); got != want {
		t.Fatalf("counter %d after rebalance, want %d", got, want)
	}
	r.assertInvariants()
}

// TestPlacerKillStoreMidRebalance: a store dies between rebalance
// rounds; the evacuation storm and the remaining pressure moves must
// both complete without breaking fencing or anti-affinity.
func TestPlacerKillStoreMidRebalance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newPlaceRig(t, placeRigConfig{
				stores: 4, seed: seed, capBlks: 256,
				placer: core.PlacerConfig{HighWater: 0.04, EvacConcurrency: 1},
			})
			var pls []*core.Placement
			counters := make(map[uint64]uint64)
			for i := 0; i < 6; i++ {
				pl := r.place()
				pls = append(pls, pl)
				r.load(pl, 5)
			}
			// Fatten two lineages so their stores cross the watermark
			// and the first rebalance round has real work queued.
			buf := make([]byte, vm.PageSize)
			for _, heavy := range pls[:2] {
				p, err := heavy.Primary().O.K.Process(heavy.Group().PIDs()[0])
				if err != nil {
					t.Fatal(err)
				}
				for pg := 1; pg <= 8; pg++ {
					for i := range buf {
						buf[i] = byte(pg*13 + i)
					}
					if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
						t.Fatal(err)
					}
				}
			}
			r.freeze(pls, counters)
			// First rebalance round: every store is over the tiny
			// watermark, so each pressured store sheds one lineage.
			if _, err := r.placer.Rebalance(); err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			r.assertInvariants()
			// Mid-rebalance kill: down the busiest store before the
			// next round.
			resident := make(map[*core.StoreNode]int)
			for _, pl := range pls {
				cur, err := r.placer.Lookup(pl.Lineage)
				if err != nil {
					t.Fatal(err)
				}
				resident[cur.Primary()]++
			}
			victim := r.nodes[0]
			for _, sn := range r.nodes {
				if resident[sn] > resident[victim] {
					victim = sn
				}
			}
			var residents []uint64
			for _, pl := range pls {
				if cur, err := r.placer.Lookup(pl.Lineage); err == nil && cur.Primary() == victim {
					residents = append(residents, pl.Lineage)
				}
			}
			r.killAndHeal(victim.Name, residents, false)
			// The interrupted rebalance resumes against the surviving
			// fleet.
			if _, err := r.placer.Rebalance(); err != nil {
				t.Fatalf("rebalance after kill: %v", err)
			}
			for _, pl := range pls {
				cur, err := r.placer.Lookup(pl.Lineage)
				if err != nil {
					t.Fatalf("lineage %d: %v", pl.Lineage, err)
				}
				if cur.Primary() == victim {
					t.Fatalf("lineage %d resident on dead %s", pl.Lineage, victim.Name)
				}
				if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
					t.Fatalf("lineage %d: counter %d, want %d", pl.Lineage, got, counters[pl.Lineage])
				}
			}
			r.assertInvariants()
		})
	}
}

// TestPlacerDrainDuringEvacuation: a drain issued while an evacuation
// storm is still queued must complete alongside it — residents of the
// dead store land on neither the dead nor the draining store, and the
// drained store fences.
func TestPlacerDrainDuringEvacuation(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newPlaceRig(t, placeRigConfig{
				stores: 4, seed: seed,
				placer: core.PlacerConfig{EvacConcurrency: 1, DownAfter: 2},
			})
			var pls []*core.Placement
			counters := make(map[uint64]uint64)
			for i := 0; i < 8; i++ {
				pl := r.place()
				pls = append(pls, pl)
				r.load(pl, 5)
			}
			r.freeze(pls, counters)
			victim := busiest(pls)
			var residents []uint64
			for _, pl := range pls {
				if pl.Primary() == victim {
					residents = append(residents, pl.Lineage)
				}
			}
			if len(residents) < 2 {
				t.Fatalf("victim %s holds %d primaries, need ≥ 2 for a mid-storm drain", victim.Name, len(residents))
			}
			r.fds[victim.Name].Down()
			// Poll until the death is declared and the storm is mid-queue.
			for poll := 0; poll < 16; poll++ {
				r.placer.Poll()
				if evac, _ := r.placer.QueueDepths(); victim.State() == core.StoreDown && evac > 0 {
					break
				}
			}
			if evac, _ := r.placer.QueueDepths(); evac == 0 {
				t.Fatal("no evacuation backlog to interleave the drain with")
			}
			// Drain a surviving store in a different domain than the
			// victim, so anti-affinity stays feasible on the remaining
			// pair.
			var drainee *core.StoreNode
			for _, sn := range r.nodes {
				if sn != victim && sn.State() == core.StoreActive && sn.Domain != victim.Domain {
					drainee = sn
					break
				}
			}
			if _, err := r.placer.Drain(drainee); err != nil {
				t.Fatalf("drain during evacuation: %v", err)
			}
			if drainee.State() != core.StoreFenced {
				t.Fatalf("drainee state %s, want fenced", drainee.State())
			}
			// Finish the evacuation storm.
			for poll := 0; poll < 64; poll++ {
				r.placer.Poll()
				if evac, repair := r.placer.QueueDepths(); evac == 0 && repair == 0 {
					break
				}
			}
			if evac, repair := r.placer.QueueDepths(); evac != 0 || repair != 0 {
				t.Fatalf("storm did not drain: evac=%d repair=%d", evac, repair)
			}
			for _, pl := range pls {
				cur, err := r.placer.Lookup(pl.Lineage)
				if err != nil {
					t.Fatalf("lineage %d: %v", pl.Lineage, err)
				}
				if cur.Primary() == victim || cur.Primary() == drainee {
					t.Fatalf("lineage %d resident on %s after heal", pl.Lineage, cur.Primary().Name)
				}
				if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[pl.Lineage] {
					t.Fatalf("lineage %d: counter %d, want %d", pl.Lineage, got, counters[pl.Lineage])
				}
			}
			r.assertInvariants()
		})
	}
}
