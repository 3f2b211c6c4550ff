package core_test

// Coverage for the placer's level-triggered pass: work that no edge
// announces is found (a lineage degraded for want of a failure domain
// heals when a store in that domain is admitted), a refused placement
// leaves nothing behind, and from any seeded schedule of store deaths,
// drains, admissions, arrivals, retirements and load the pass converges
// to a settled fleet and then does nothing.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
)

// TestPlacerDegradedLineageHealsWhenCapacityReturns: the replica's
// store dies in a fleet with no other anti-affine store, so the lineage
// runs with zero replicas — repaired, and no backlog. Admitting a
// healthy store in the missing failure domain must be enough for the
// next polls to restore full strength, and the late replica must be a
// real copy: killing the primary promotes it with nothing lost.
func TestPlacerDegradedLineageHealsWhenCapacityReturns(t *testing.T) {
	r := newPlaceRig(t, placeRigConfig{stores: 2, domains: 2, seed: 1})
	pl := r.place()
	r.load(pl, 5)
	lin, primary, dead := pl.Lineage, pl.Primary(), pl.Replicas()[0]

	r.killAndHeal(dead.Name, nil, false)
	cur, err := r.placer.Lookup(lin)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cur.Replicas()); n != 0 {
		t.Fatalf("%d replicas with the only anti-affine store dead, want 0", n)
	}
	if evac, repair := r.placer.QueueDepths(); evac != 0 || repair != 0 {
		t.Fatalf("a lineage degraded for want of a domain reads as backlog: evac=%d repair=%d", evac, repair)
	}

	late := r.warmNode("late", dead.Domain, 99)
	if err := r.placer.AddStore(late); err != nil {
		t.Fatal(err)
	}
	var repaired *core.PlacerEvent
	for poll := 0; poll < 8 && len(cur.Replicas()) == 0; poll++ {
		for _, ev := range r.placer.Poll() {
			if ev.Kind == "repaired" && ev.Lineage == lin {
				repaired = &ev
			}
		}
	}
	if reps := cur.Replicas(); len(reps) != 1 || reps[0] != late {
		t.Fatalf("%d replicas after a store in %s was admitted, want the late store", len(reps), dead.Domain)
	}
	if repaired == nil || repaired.Err != nil || repaired.Store != late.Name {
		t.Fatalf("repaired event %+v, want one naming %s with no error", repaired, late.Name)
	}
	r.assertInvariants()

	want := r.load(cur, 4)
	evs := r.killAndHeal(primary.Name, []uint64{lin}, false)
	if len(evs) != 1 || evs[0].Kind != "evacuated" || evs[0].To != late.Name {
		t.Fatalf("events %+v after the primary died, want one evacuation onto %s", evs, late.Name)
	}
	cur, err = r.placer.Lookup(lin)
	if err != nil {
		t.Fatalf("lineage lost with a healed replica: %v", err)
	}
	if got := counterOnNode(t, cur.Primary(), cur.Group()); got != want {
		t.Fatalf("counter %d on the late store, want the last durable checkpoint's %d", got, want)
	}
	if err := core.CheckOnePrimary(lin, r.nodes); err != nil {
		t.Fatal(err)
	}
	r.assertInvariants()
}

// flakyLinks is a store directory that links `good` more wires and then
// fails.
type flakyLinks struct {
	core.PlacerLinks
	good int
}

var errLinkDown = errors.New("directory unreachable")

func (f *flakyLinks) Link(src, dst *core.StoreNode, stream uint64) (core.Backend, core.ReplicaSource, error) {
	if f.good--; f.good < 0 {
		return nil, nil, errLinkDown
	}
	return f.PlacerLinks.Link(src, dst, stream)
}

// TestPlacerFailedPlaceLeavesNothingBehind: a placement refused after
// its workload was started (the second of its two replica links fails)
// is unwound — no persisted group, no process, no wire, and no primary
// claim, live or on the device, is left on the store that was going to
// be its primary.
func TestPlacerFailedPlaceLeavesNothingBehind(t *testing.T) {
	links := &flakyLinks{good: 1}
	r := newPlaceRig(t, placeRigConfig{stores: 3, domains: 3, seed: 7,
		placer: core.PlacerConfig{Replicas: 3},
		wrap:   func(d core.PlacerLinks) core.PlacerLinks { links.PlacerLinks = d; return links }})

	var on *core.StoreNode
	var g *core.Group
	_, err := r.placer.Place("app", func(n *core.StoreNode) (*core.Group, error) {
		p, err := n.O.K.Spawn(0, "app")
		if err != nil {
			return nil, err
		}
		p.SetProgram(&migTestCounter{addr: p.HeapBase()})
		on = n
		g, err = n.O.Persist("app", p)
		return g, err
	})
	if !errors.Is(err, errLinkDown) {
		t.Fatalf("Place err = %v, want the link failure", err)
	}
	if n := len(r.placer.Placements()); n != 0 {
		t.Fatalf("%d placements recorded for a refused placement", n)
	}
	if n := len(on.O.Groups()); n != 0 {
		t.Fatalf("%d groups still persisted on %s", n, on.Name)
	}
	if n := len(r.kerns[on.Name].Processes()); n != 0 {
		t.Fatalf("%d processes still on %s", n, on.Name)
	}
	for _, b := range g.Backends() {
		if b != core.Backend(on.SB) {
			t.Fatalf("replica wire %s still attached to the refused group", b.Name())
		}
	}
	if n := r.dir.Wires(); n != 0 {
		t.Fatalf("%d directory wires left for the stream", n)
	}
	if gen, claimed := on.SB.Store().PrimaryGen(g.ID); claimed {
		t.Fatalf("%s still claims the primary role at generation %d", on.Name, gen)
	}
	reopened, err := objstore.Open(r.fds[on.Name], on.O.K.Clock)
	if err != nil {
		t.Fatal(err)
	}
	if gen, claimed := reopened.PrimaryGen(g.ID); claimed {
		t.Fatalf("%s's device still holds the primary claim at generation %d", on.Name, gen)
	}

	// The fleet is as usable as before the refusal.
	links.good = 2
	pl := r.place()
	r.load(pl, 3)
	r.assertInvariants()
}

// TestPlacerReconcileConverges drives a 5-store, 3-domain fleet of 12
// lineages through a seeded schedule of every control-plane input —
// store deaths, BeginDrain/Undrain, admissions, Place, Unplace, load,
// and the three entry points of the pass — then polls to quiescence
// and checks the settled fleet: every surviving lineage at the
// strength the fleet can give it, the standing invariants green, no
// backlog, every live counter bit-identical to its last durable
// checkpoint; and that the pass is idempotent — one more Poll on the
// settled fleet emits no event and takes no checkpoint.
func TestPlacerReconcileConverges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { reconcileConverges(t, seed) })
	}
}

func reconcileConverges(t *testing.T, seed int64) {
	const replicas = 3
	r := newPlaceRig(t, placeRigConfig{stores: 5, domains: 3, seed: seed,
		placer: core.PlacerConfig{Replicas: replicas, EvacConcurrency: 2, DownAfter: 2, PrimaryTarget: 3}})
	rng := rand.New(rand.NewSource(seed))
	killed := make(map[*core.StoreNode]bool)
	counters := make(map[uint64]uint64) // lineage → counter at its last durable checkpoint
	durable := make(core.DurableWatch)  // keyed by group: monotone for as long as one group carries the lineage

	// routable lists the lineages that can take load now.
	routable := func(on *core.StoreNode) []*core.Placement {
		var out []*core.Placement
		for _, pl := range r.placer.Placements() {
			if cur, err := r.placer.Lookup(pl.Lineage); err == nil && !killed[cur.Primary()] && (on == nil || cur.Primary() == on) {
				out = append(out, cur)
			}
		}
		return out
	}
	// load steps one store's kernel and then checkpoints every
	// lineage resident there: kernel.Run advances all of a node's
	// processes, and a placer-initiated seed checkpoint pins
	// whatever is live — so live state and durable state agree
	// for every lineage at all times, whatever the pass does.
	load := func(n *core.StoreNode) {
		if _, err := r.kerns[n.Name].Run(4); err != nil {
			t.Fatal(err)
		}
		r.freeze(routable(n), counters)
	}
	pick := func(want func(*core.StoreNode) bool) *core.StoreNode {
		var cands []*core.StoreNode
		for _, n := range r.placer.Stores() {
			if want(n) {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}
	active := func(n *core.StoreNode) bool { return n.State() == core.StoreActive && !killed[n] }
	draining := func(n *core.StoreNode) bool { return n.State() == core.StoreDraining && !killed[n] }
	observe := func(where string) {
		t.Helper()
		for _, pl := range routable(nil) {
			if err := durable.Observe(pl.Group().ID, pl.Group().Durable()); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if err := core.CheckOnePrimary(pl.Lineage, r.nodes); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
		if v := r.placer.AntiAffinityViolations(); len(v) != 0 {
			t.Fatalf("%s: anti-affinity violated: %v", where, v)
		}
	}

	for i := 0; i < 12; i++ {
		r.place()
	}
	for _, n := range r.placer.Stores() {
		load(n)
	}
	added := 0
	for step := 0; step < 120; step++ {
		where := fmt.Sprintf("step %d", step)
		switch rng.Intn(12) {
		case 0: // a store dies (at most two, so at least two failure domains keep a store)
			if n := pick(active); n != nil && len(killed) < 2 {
				r.fds[n.Name].Down()
				killed[n] = true
			}
		case 1:
			if n := pick(active); n != nil {
				_ = r.placer.BeginDrain(n)
			}
		case 2:
			if n := pick(draining); n != nil {
				if err := r.placer.Undrain(n); err != nil {
					t.Fatalf("%s: undrain %s: %v", where, n.Name, err)
				}
			}
		case 3:
			if added < 3 {
				n := r.warmNode(fmt.Sprintf("late%d", added), fmt.Sprintf("rack%d", rng.Intn(3)), seed*100+int64(added))
				added++
				if err := r.placer.AddStore(n); err != nil {
					t.Fatal(err)
				}
			}
		case 4: // an arrival; refused when a failure domain is missing or the pick is a dead, undeclared store
			if pl, err := r.tryPlace(); err == nil {
				r.freeze([]*core.Placement{pl}, counters)
			}
		case 5:
			if pls := routable(nil); len(pls) > 9 {
				lin := pls[rng.Intn(len(pls))].Lineage
				if err := r.placer.Unplace(lin); err != nil {
					t.Fatalf("%s: unplace %d: %v", where, lin, err)
				}
				delete(counters, lin)
			}
		case 6, 7:
			if n := pick(func(n *core.StoreNode) bool { return active(n) || draining(n) }); n != nil {
				load(n)
			}
		case 8, 9:
			r.placer.Poll()
		case 10:
			if n := pick(draining); n != nil {
				_, _, _ = r.placer.DrainStep(n, 2) // may hit no-feasible-placement; the drain then just stays put
			}
		case 11:
			_, _ = r.placer.RebalanceTick(core.RebalanceOpts{Budget: 1})
		}
		observe(where)
	}

	// Poll to quiescence: every death declared, nothing a pass
	// could act on.
	settled := false
	for poll := 0; poll < 64 && !settled; poll++ {
		r.placer.Poll()
		evac, repair := r.placer.QueueDepths()
		settled = evac == 0 && repair == 0
		for n := range killed {
			settled = settled && n.State() == core.StoreDown
		}
	}
	if !settled {
		evac, repair := r.placer.QueueDepths()
		t.Fatalf("fleet did not settle: evac=%d repair=%d", evac, repair)
	}
	observe("settled")

	// Every surviving lineage has the members the fleet can give
	// it: Replicas-1, or as many as there are other failure
	// domains with a store a member can live on.
	survivors := 0
	for _, pl := range r.placer.Placements() {
		cur, err := r.placer.Lookup(pl.Lineage)
		if err != nil {
			continue // lost: every copy was on the two dead stores
		}
		survivors++
		domains := make(map[string]bool)
		for _, n := range r.placer.Stores() {
			if n.State() == core.StoreActive && n.Domain != cur.Primary().Domain {
				domains[n.Domain] = true
			}
		}
		for _, m := range cur.Replicas() {
			if st := m.State(); st != core.StoreActive && st != core.StoreDraining {
				t.Fatalf("lineage %d: member %s is %s", cur.Lineage, m.Name, st)
			}
			domains[m.Domain] = true // a member parked on a draining store still holds its domain
		}
		if want := min(replicas-1, len(domains)); len(cur.Replicas()) != want {
			t.Fatalf("lineage %d: %d members, want %d (primary %s, members %v)",
				cur.Lineage, len(cur.Replicas()), want, cur.Primary().Name, cur.Replicas())
		}
		if got := counterOnNode(t, cur.Primary(), cur.Group()); got != counters[cur.Lineage] {
			t.Fatalf("lineage %d: counter %d, want the last durable checkpoint's %d", cur.Lineage, got, counters[cur.Lineage])
		}
	}
	if survivors == 0 {
		t.Fatal("no lineage survived the schedule; the property checked nothing")
	}
	kinds := make(map[string]int)
	for _, ev := range r.placer.Events() {
		kinds[ev.Kind]++
	}
	t.Logf("%d of %d lineages survive %d store deaths; events %v", survivors, len(r.placer.Placements()), len(killed), kinds)

	// Idempotence: the settled fleet is a fixed point of the pass.
	epochs := make(map[uint64]uint64)
	for _, pl := range routable(nil) {
		epochs[pl.Lineage] = pl.Group().Epoch()
	}
	if evs := r.placer.Poll(); len(evs) != 0 {
		t.Fatalf("a Poll on the settled fleet acted: %+v", evs)
	}
	for _, pl := range routable(nil) {
		if got := pl.Group().Epoch(); got != epochs[pl.Lineage] {
			t.Fatalf("lineage %d: a Poll on the settled fleet took a checkpoint (epoch %d → %d)", pl.Lineage, epochs[pl.Lineage], got)
		}
	}
}
