package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file implements the multi-store placement control plane: the
// composition of PRs 2/5/6/8 into a fleet that heals itself. A Placer
// spreads persistence groups across N stores — each an independent
// machine with its own orchestrator, objstore, and replica links — by
// failure domain, load, and free space, with hard anti-affinity: a
// lineage's copies never share a failure domain, so no single rack or
// host death can take both.
//
// The placer remembers no work. Poll, DrainStep, Drain, RebalanceTick
// and Rebalance all run one level-triggered pass, reconcileLocked, which
// derives what needs doing from what it observes now — each store's
// lifecycle state, each placement's members and their stores' states,
// store pressure — and closes the gap with two steps: rehomeLocked moves
// a lineage's primary (planned: pre-copy and cutover while the source
// runs; unplanned: standby promotion after the source's store died), and
// rewireLocked brings the replica set back to Replicas-1 anti-affine
// members and seeds them. Because the pass reads state, not edges, work
// no event announced — a lineage that ran degraded until a store was
// admitted, a rewire that failed half way — is found by the next pass.
//
// Throughout, the PR 8 invariants hold: durable never regresses along
// a lineage, and exactly one store claims the primary role at the max
// generation (promotion mints above every witnessed fence; the old
// store's claim survives only at a strictly lower generation).

// Typed placement errors.
var (
	// ErrEvacuating marks a lineage whose primary store died and whose
	// takeover has not landed yet: its placement is in flux.
	ErrEvacuating = errors.New("core: lineage is evacuating")
	// ErrDraining refuses an operation against a draining store
	// (CLI exit code 10).
	ErrDraining = errors.New("core: store is draining")
	// ErrNoFeasiblePlacement means no store satisfies the placement
	// constraints — anti-affinity, liveness, capacity (CLI exit 11).
	ErrNoFeasiblePlacement = errors.New("core: no feasible placement")
	// ErrUnknownLineage rejects a lookup of a lineage the placer never
	// placed (or has lost every copy of).
	ErrUnknownLineage = errors.New("core: unknown lineage")
)

// StoreState is one fleet store's lifecycle state.
type StoreState int

const (
	// StoreActive accepts placements and serves residents.
	StoreActive StoreState = iota
	// StoreDraining is being decommissioned: it serves residents but
	// refuses new placements while Drain moves its residents off.
	StoreDraining
	// StoreDown failed its probe ladder: residents are evacuated.
	StoreDown
	// StoreFenced is a drained store: empty, refusing everything.
	StoreFenced
)

func (s StoreState) String() string {
	switch s {
	case StoreActive:
		return "active"
	case StoreDraining:
		return "draining"
	case StoreDown:
		return "down"
	case StoreFenced:
		return "fenced"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StoreNode is one store of the fleet: an independent machine with its
// own orchestrator (clock, kernel, flush pipeline), its own object
// store, and optionally its own supervisor and space reclaimer.
type StoreNode struct {
	Name   string
	Domain string // failure domain (rack/host/AZ) for anti-affinity
	O      *Orchestrator
	SB     *StoreBackend
	Sup    *Supervisor // optional: crash recovery on this machine
	Rec    *Reclaimer  // optional: space pressure on this machine

	mu         sync.Mutex
	state      StoreState
	probeFails int
}

// State returns the node's lifecycle state.
func (n *StoreNode) State() StoreState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

func (n *StoreNode) setState(st StoreState) {
	n.mu.Lock()
	n.state = st
	n.mu.Unlock()
}

// alive reports whether the store still serves its residents: a
// draining store does until it is fenced.
func (n *StoreNode) alive() bool {
	st := n.State()
	return st == StoreActive || st == StoreDraining
}

// usageFrac is the store's device occupancy fraction (0 when the
// device is unbounded).
func (n *StoreNode) usageFrac() float64 {
	_, _, frac := n.SB.Store().Usage()
	return frac
}

// PlacerLinks is the placer's view of the fleet's replication wiring —
// the store directory. netback.Directory implements it. The placer
// never touches wire details: it asks for a link from a primary node
// to a replica node for one stream and gets back the sender-side
// backend to attach and the receiver-side source promotions read.
type PlacerLinks interface {
	// Link establishes (or returns) the replication wire src→dst for
	// one stream, connected and serving.
	Link(src, dst *StoreNode, stream uint64) (Backend, ReplicaSource, error)
	// Reconnect re-establishes a dropped link connection (the
	// migrator's retry hook).
	Reconnect(src, dst *StoreNode, stream uint64) error
	// Drop tears the wire down for good.
	Drop(src, dst *StoreNode, stream uint64)
}

// PlacerConfig tunes the control plane. Zero values select defaults
// (NewPlacer fills them in).
type PlacerConfig struct {
	// Replicas is the total copy count per lineage, primary included
	// (default 2: primary + one replica).
	Replicas int
	// EvacConcurrency bounds the takeovers, and the replica-set rewires,
	// one pass performs (default 4): the throttle that keeps a dead
	// store's hundreds of residents from re-homing in one indivisible
	// storm.
	EvacConcurrency int
	// DownAfter is the probe ladder: consecutive probe failures before
	// a store is declared down (default 3). Mirrors the PR 2 backend
	// health machine — one failure degrades, the ladder declares down.
	DownAfter int
	// HighWater is the occupancy fraction that triggers rebalance
	// (default 0.80, the PR 5 high watermark).
	HighWater float64
	// Retries is the migrator's per-phase retry budget for every
	// placement-driven move (0 keeps the migrator default). Chaos
	// runs with injected faults need the headroom.
	Retries int
	// PrimaryTarget is the resident-primary count a store is sized for.
	// When set, utilization is the max of device occupancy and
	// primaries/PrimaryTarget, so load pressure (not just space
	// pressure) drives pick ordering, rebalance, and the autoscaler's
	// signals. Zero keeps the pre-elasticity space-only behaviour.
	PrimaryTarget int
	// MoveCooldownTicks is the paced-rebalance ping-pong guard: a
	// lineage moved by RebalanceTick is ineligible to move again for
	// this many ticks (default 4).
	MoveCooldownTicks int
}

// placerMigrateRounds bounds the pre-copy rounds of a drain or
// rebalance migration.
const placerMigrateRounds = 2

// member is one replica of a placement: its node and the two ends of
// the wire from the primary (nil only between a re-home and the rewire
// that links the survivor under the new stream).
type member struct {
	node *StoreNode
	wire Backend       // sender side, attached to the group
	view ReplicaSource // receiver side: floors, images, fences
}

// Placement is one lineage's current home: the primary node running
// the group plus the replica nodes holding acked copies.
type Placement struct {
	Lineage uint64
	Name    string

	// All mutable state below is guarded by the owning placer's mu.
	primary *StoreNode
	members []member
	g       *Group
	lost    bool
}

// Group returns the live group (on the primary node's orchestrator).
func (pl *Placement) Group() *Group { return pl.g }

// Primary returns the node running the lineage.
func (pl *Placement) Primary() *StoreNode { return pl.primary }

// Replicas returns the replica nodes (primary excluded).
func (pl *Placement) Replicas() []*StoreNode {
	out := make([]*StoreNode, len(pl.members))
	for i, m := range pl.members {
		out[i] = m.node
	}
	return out
}

// member returns pl's membership on n, or nil.
func (pl *Placement) member(n *StoreNode) *member {
	for i := range pl.members {
		if pl.members[i].node == n {
			return &pl.members[i]
		}
	}
	return nil
}

// elect returns the standby a takeover promotes — the member on a live
// store with the highest contiguous floor, ties to the lower name —
// and that floor. A member holding no epoch is no copy: with the
// primary gone nothing will ever reach it. A draining store is a legal
// standby (it may hold the last good copy); the drain moves the
// promoted primary along afterwards.
func (pl *Placement) elect() (dst *member, floor uint64) {
	for i := range pl.members {
		m := &pl.members[i]
		f := m.view.ContiguousEpoch(pl.g.ID)
		if f == 0 || !m.node.alive() {
			continue
		}
		if dst == nil || f > floor || (f == floor && m.node.Name < dst.node.Name) {
			dst, floor = m, f
		}
	}
	return dst, floor
}

// orphaned reports whether pl's primary store is gone and no takeover
// has landed yet — what ErrEvacuating surfaces. Observed, never stored.
func (pl *Placement) orphaned() bool { return !pl.lost && !pl.primary.alive() }

// PlacerEvent records one control-plane action.
type PlacerEvent struct {
	Kind    string // "store-down", "evacuated", "repaired", "rebalanced", "drained", "undrained", "unplaced", "evac-failed", ...
	Store   string // the store acted on (down/drained; the members a repair linked)
	Lineage uint64
	From    string // previous home
	To      string // new home
	Gen     uint64 // generation minted by the move
	Floor   uint64 // the epoch the move resumed from
	TTR     time.Duration
	Err     error
}

// Placer is the fleet placement control plane.
type Placer struct {
	links PlacerLinks
	cfg   PlacerConfig

	mu         sync.Mutex
	nodes      []*StoreNode
	placements map[uint64]*Placement
	events     []PlacerEvent

	rebalTick uint64            // paced-rebalance tick counter
	lastMoved map[uint64]uint64 // lineage → tick of its last rebalance move
}

// NewPlacer creates a placer wiring replication through links.
func NewPlacer(links PlacerLinks, cfg PlacerConfig) *Placer {
	cfg.Replicas = cmp.Or(cfg.Replicas, 2)
	cfg.EvacConcurrency = cmp.Or(cfg.EvacConcurrency, 4)
	cfg.DownAfter = cmp.Or(cfg.DownAfter, 3)
	cfg.HighWater = cmp.Or(cfg.HighWater, 0.80)
	cfg.MoveCooldownTicks = cmp.Or(cfg.MoveCooldownTicks, 4)
	return &Placer{
		links:      links,
		cfg:        cfg,
		placements: make(map[uint64]*Placement),
		lastMoved:  make(map[uint64]uint64),
	}
}

// AddStore admits a store into the fleet and stamps its placement
// labels onto the objstore, so the store itself knows its identity.
// The next pass finds the lineages that ran short for want of its
// failure domain.
func (p *Placer) AddStore(n *StoreNode) error {
	if n.Name == "" || n.Domain == "" {
		return fmt.Errorf("core: store needs a name and a failure domain")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ex := range p.nodes {
		if ex.Name == n.Name {
			return fmt.Errorf("core: store %q already admitted", n.Name)
		}
	}
	n.SB.Store().SetLabels(n.Name, n.Domain)
	// Group IDs are minted per orchestrator but compared fleet-wide
	// (lineage keys, PrimaryGen fencing) — give each store a disjoint
	// range so two stores never mint the same lineage.
	n.O.SetIDBase(uint64(len(p.nodes)+1) << 32)
	if n.Sup != nil {
		n.Sup.ExemptEvacuations(p.evacuationOf)
	}
	p.nodes = append(p.nodes, n)
	return nil
}

// Stores lists the fleet's nodes in admission order.
func (p *Placer) Stores() []*StoreNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*StoreNode(nil), p.nodes...)
}

// Node resolves a store by name.
func (p *Placer) Node(name string) (*StoreNode, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("core: no store named %q", name)
}

// Events returns every control-plane event recorded so far.
func (p *Placer) Events() []PlacerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PlacerEvent(nil), p.events...)
}

// Placements lists every placement, sorted by lineage.
func (p *Placer) Placements() []*Placement {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sortedLocked()
}

// sortedLocked is every placement in lineage order, the deterministic
// order the pass acts in.
func (p *Placer) sortedLocked() []*Placement {
	out := make([]*Placement, 0, len(p.placements))
	for _, pl := range p.placements {
		out = append(out, pl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lineage < out[j].Lineage })
	return out
}

// Lookup resolves a lineage's placement. A lineage mid-evacuation
// returns its (stale) placement together with ErrEvacuating; callers
// must not route work to it until a later Lookup succeeds.
func (p *Placer) Lookup(lineage uint64) (*Placement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.placements[lineage]
	if !ok {
		return nil, fmt.Errorf("core: lineage %d: %w", lineage, ErrUnknownLineage)
	}
	if pl.lost {
		return nil, fmt.Errorf("core: lineage %d lost every copy: %w", lineage, ErrUnknownLineage)
	}
	if pl.orphaned() {
		return pl, fmt.Errorf("core: lineage %d: %w", lineage, ErrEvacuating)
	}
	return pl, nil
}

// evacuationOf is the supervisor exemption hook: a crash on a group
// whose primary store is down or draining is the store's fault, not
// the application's, so its recovery must not be charged against the
// crash-loop restart budget.
func (p *Placer) evacuationOf(g *Group) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pl := range p.placements {
		if pl.g == g {
			st := pl.primary.State()
			return st == StoreDown || st == StoreDraining
		}
	}
	return false
}

// primariesLocked counts resident primaries per store in one scan.
func (p *Placer) primariesLocked() map[*StoreNode]int {
	prim := make(map[*StoreNode]int, len(p.nodes))
	for _, pl := range p.placements {
		if !pl.lost {
			prim[pl.primary]++
		}
	}
	return prim
}

// util scores one store's composite utilization: device occupancy,
// raised to primary load against PrimaryTarget when that is
// configured. This is the signal the autoscaler samples and the
// ordering key the picker minimizes.
func (p *Placer) util(space float64, primaries int) float64 {
	if t := p.cfg.PrimaryTarget; t > 0 {
		space = max(space, float64(primaries)/float64(t))
	}
	return space
}

// Utilization reports n's composite utilization (the max of device
// occupancy and resident-primary load against PrimaryTarget).
func (p *Placer) Utilization(n *StoreNode) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.util(n.usageFrac(), p.primariesLocked()[n])
}

// signals reads the fleet for the autoscaler under one lock: a signal
// per store in admission order, the backlog a pass could act on now,
// and the admission sheds summed over every placed group.
func (p *Placer) signals() (stores []StoreSignal, backlog int, sheds int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prim := p.primariesLocked()
	for _, n := range p.nodes {
		space := n.usageFrac()
		stores = append(stores, StoreSignal{
			Store: n.Name, Domain: n.Domain, State: n.State(),
			Util: p.util(space, prim[n]), SpaceFrac: space, Primaries: prim[n], node: n,
		})
	}
	for _, pl := range p.placements {
		t, _ := pl.g.Sheds()
		sheds += t
	}
	evac, repair := p.backlogLocked()
	return stores, evac + repair, sheds
}

// eligible reports whether n can take a new role: active, not in
// exclude, and in a failure domain not in domains.
func eligible(n *StoreNode, exclude map[*StoreNode]bool, domains map[string]bool) bool {
	return n.State() == StoreActive && !exclude[n] && !domains[n.Domain]
}

// pickLocked chooses the best eligible node. Lower utilization wins,
// then fewer resident primaries, then name (deterministic).
func (p *Placer) pickLocked(exclude map[*StoreNode]bool, domains map[string]bool) *StoreNode {
	prim := p.primariesLocked()
	var best *StoreNode
	var bestUtil float64
	for _, n := range p.nodes {
		if !eligible(n, exclude, domains) {
			continue
		}
		u := p.util(n.usageFrac(), prim[n])
		if best == nil || u < bestUtil ||
			(u == bestUtil && prim[n] < prim[best]) ||
			(u == bestUtil && prim[n] == prim[best] && n.Name < best.Name) {
			best, bestUtil = n, u
		}
	}
	return best
}

// Place schedules a new lineage onto the fleet: start is invoked on
// the chosen primary node to spawn and persist the workload there
// (the placer cannot know how to build the application). The placer
// then anchors the lineage on the primary's store, wires Replicas-1
// acked replica links to stores in distinct failure domains, and
// registers the supervisor watch. It fails with ErrNoFeasiblePlacement
// before starting anything if the fleet cannot satisfy anti-affinity;
// a placement that fails after start leaves nothing behind.
func (p *Placer) Place(name string, start func(*StoreNode) (*Group, error)) (*Placement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	need := p.cfg.Replicas
	// Feasibility first: enough distinct live failure domains.
	domains := make(map[string]bool)
	for _, n := range p.nodes {
		if n.State() == StoreActive {
			domains[n.Domain] = true
		}
	}
	if len(domains) < need {
		return nil, fmt.Errorf("core: placing %q needs %d distinct failure domains, fleet has %d live: %w",
			name, need, len(domains), ErrNoFeasiblePlacement)
	}
	primary := p.pickLocked(nil, nil)
	g, err := start(primary)
	if err != nil {
		return nil, fmt.Errorf("core: placing %q on %s: %w", name, primary.Name, err)
	}
	pl := &Placement{Lineage: g.ID, Name: name, primary: primary, g: g}
	if err := p.anchorLocked(pl); err != nil {
		// Nobody would own what start built: take the wires down,
		// renounce the claim the way a handover's source does (best
		// effort: the placement is refused either way), reap.
		for _, m := range pl.members {
			p.unlinkLocked(pl, m)
		}
		_ = primary.SB.Store().Handoff(g.ID, g.Generation())
		_ = primary.O.syncWithReclaim(primary.SB)
		primary.O.retire(g)
		return nil, fmt.Errorf("core: placing %q on %s: %w", name, primary.Name, err)
	}
	if primary.Sup != nil {
		primary.Sup.Watch(g)
	}
	p.placements[g.ID] = pl
	return pl, nil
}

// anchorLocked claims the primary role for a fresh placement on its
// store and wires its replicas. A repair runs a lineage degraded rather
// than dead; a new placement is refused below full strength.
func (p *Placer) anchorLocked(pl *Placement) error {
	primary := pl.primary
	primary.O.Attach(pl.g, primary.SB)
	if err := primary.SB.Store().SetPrimary(pl.Lineage, pl.g.Generation()); err != nil {
		return fmt.Errorf("claiming primary: %w", err)
	}
	// Persisting the claim exercises the store's write path; a flaky
	// (fault-injected) device fails individual publishes without being
	// dead, so retry a few rolls before giving up on the placement.
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if err = primary.O.syncWithReclaim(primary.SB); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("persisting claim: %w", err)
	}
	if err := p.wireLocked(pl); err != nil {
		return err
	}
	if len(pl.members) < p.cfg.Replicas-1 {
		return fmt.Errorf("replica %d has no anti-affine store: %w", len(pl.members)+1, ErrNoFeasiblePlacement)
	}
	return nil
}

// probe checks one store's health: publishing the index exercises the
// device's write path end to end. Transient injected faults fail a
// probe without failing the store — the DownAfter ladder separates a
// flaky device from a dead one, exactly like the PR 2 backend ladder.
func (p *Placer) probe(n *StoreNode) error {
	return n.SB.Store().Sync()
}

// Poll runs one control-plane round: probe every store, declare
// deaths (which queues nothing — the pass finds a dead store's
// residents by looking), and reconcile under the EvacConcurrency
// throttle. It returns the events of this round.
func (p *Placer) Poll() []PlacerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PlacerEvent
	for _, n := range p.nodes {
		if !n.alive() {
			continue
		}
		err := p.probe(n)
		n.mu.Lock()
		if err == nil {
			n.probeFails = 0
		} else if n.probeFails++; n.probeFails >= p.cfg.DownAfter {
			n.state = StoreDown
			out = append(out, PlacerEvent{Kind: "store-down", Store: n.Name, Err: err})
		}
		n.mu.Unlock()
	}
	evs, _ := p.reconcileLocked(budgets{heal: p.cfg.EvacConcurrency})
	out = append(out, evs...)
	p.events = append(p.events, out...)
	return out
}

// budgets is what one reconcile pass may spend, per class; a zero
// field turns its class off.
type budgets struct {
	heal      int        // takeovers, and (counted apart) rewires
	moves     int        // planned moves: the drain's or the rebalance's
	drain     *StoreNode // move class: empty this draining store, then fence it
	highWater float64    // move class: relieve stores at or above this utilization
}

// reconcileLocked is the one pass: it reads the fleet as it is now and
// acts on what it finds, in three classes — takeover, rewire, move —
// each under its own budget. Events are returned, not recorded (the
// entry points differ in what they keep). The error is the move
// class's: a drain stops at its first failed move (the store stays
// draining; the caller retries or rolls back with Undrain), a
// rebalance reports its first and carries on.
func (p *Placer) reconcileLocked(b budgets) ([]PlacerEvent, error) {
	pls := p.sortedLocked()
	var out []PlacerEvent

	// Takeover: lineages whose primary store is down. Hot lineages
	// first — a member caught up to the durable frontier promotes with
	// no catch-up to replay, so the hottest state is back under a
	// primary soonest — then by lineage. Each lands on its target
	// machine's own clock (the storm's members run concurrently); the
	// budget keeps a dead store's residents from re-homing in one burst.
	type orphan struct {
		pl  *Placement
		dst *member // elected standby; nil when no member survives
		hot bool
	}
	var orphans []orphan
	for _, pl := range pls {
		if !pl.orphaned() {
			continue
		}
		// The dead machine's supervisor must not resurrect the group.
		if pl.primary.Sup != nil {
			pl.primary.Sup.Release(pl.g)
		}
		dst, floor := pl.elect()
		orphans = append(orphans, orphan{pl, dst, dst != nil && floor >= pl.g.Durable()})
	}
	sort.SliceStable(orphans, func(i, j int) bool { return orphans[i].hot && !orphans[j].hot })
	// Budgets count what the pass changed, not what it tried: a failed
	// takeover (or rewire) is found again by the next pass and must not
	// starve the lineages sorted behind it meanwhile.
	left := b.heal
	for _, o := range orphans {
		if left == 0 {
			break
		}
		if o.dst == nil {
			o.pl.lost = true
			out = append(out, PlacerEvent{Kind: "evac-failed", Lineage: o.pl.Lineage, From: o.pl.primary.Name,
				Err: fmt.Errorf("core: lineage %d has no surviving replica: %w", o.pl.Lineage, ErrNoFeasiblePlacement)})
			continue
		}
		ev := p.rehomeLocked(o.pl, o.dst.node, false)
		out = append(out, ev)
		if ev.To != "" {
			left--
		}
	}

	// Rewire: replica sets below strength that can be improved now.
	left = b.heal
	for _, pl := range pls {
		if left == 0 {
			break
		}
		if p.rewirableLocked(pl) {
			ev := p.repairLocked(pl)
			out = append(out, ev)
			if ev.Err == nil {
				left--
			}
		}
	}

	if n := b.drain; n != nil {
		// The drainee may hold the last good copy of a lineage whose
		// primary just died: nothing moves off it until the storm has
		// settled.
		if evac, repair := p.backlogLocked(); evac+repair > 0 {
			return out, nil
		}
		// Resident primaries live-migrate off first (the lineage keeps
		// running: the PR 8 migrator, not a promotion), then the replica
		// roles parked on the store; a store nothing resides on is fenced.
		var work []*Placement
		for _, pl := range pls {
			if !pl.lost && pl.primary == n {
				work = append(work, pl)
			}
		}
		for _, pl := range pls {
			if !pl.lost && pl.member(n) != nil {
				work = append(work, pl)
			}
		}
		for _, pl := range work {
			if b.moves == 0 {
				return out, nil
			}
			b.moves--
			var ev PlacerEvent
			if pl.primary == n {
				ev = p.moveLocked(pl, "migrated")
			} else {
				ev = p.repairLocked(pl)
			}
			out = append(out, ev)
			if ev.Err != nil {
				return out, ev.Err
			}
		}
		n.setState(StoreFenced)
		return append(out, PlacerEvent{Kind: "drained", Store: n.Name}), nil
	}
	if b.highWater == 0 {
		return out, nil
	}

	// Rebalance: the pressured set is snapshotted NOW (a lineage placed
	// since the previous tick is an eligible mover), and the most
	// pressured stores, ties by name, each shed their heaviest eligible
	// lineage toward the emptiest compatible store.
	p.rebalTick++
	type pressure struct {
		n    *StoreNode
		util float64
	}
	var pressured []pressure
	prim := p.primariesLocked()
	for _, n := range p.nodes {
		if n.State() != StoreActive {
			continue
		}
		if u := p.util(n.usageFrac(), prim[n]); u >= b.highWater {
			pressured = append(pressured, pressure{n, u})
		}
	}
	sort.Slice(pressured, func(i, j int) bool {
		if pressured[i].util != pressured[j].util {
			return pressured[i].util > pressured[j].util
		}
		return pressured[i].n.Name < pressured[j].n.Name
	})
	var firstErr error
	for _, pr := range pressured {
		n := pr.n
		if b.moves == 0 {
			break
		}
		// Heaviest resident by referenced bytes (ties to the lower
		// lineage: pls is sorted), outside its move cooldown.
		var victim *Placement
		var victimBytes int64
		for _, pl := range pls {
			if pl.primary != n || pl.lost {
				continue
			}
			if moved, ok := p.lastMoved[pl.Lineage]; ok && p.rebalTick < moved+uint64(p.cfg.MoveCooldownTicks) {
				continue
			}
			if sz := n.SB.Store().LineageBytes(pl.g.ID); victim == nil || sz > victimBytes {
				victim, victimBytes = pl, sz
			}
		}
		if victim == nil {
			continue
		}
		ev := p.moveLocked(victim, "rebalanced")
		if errors.Is(ev.Err, ErrNoFeasiblePlacement) {
			// No anti-affine target right now (degraded fleet): relief
			// waits for capacity, it doesn't fail, and spends no budget.
			ev.Kind = "rebalance-skipped"
			out = append(out, ev)
			continue
		}
		b.moves--
		out = append(out, ev)
		if ev.Err == nil {
			p.lastMoved[victim.Lineage] = p.rebalTick
		} else if firstErr == nil {
			firstErr = ev.Err
		}
	}
	return out, firstErr
}

// rewirableLocked reports whether a pass could improve pl's replica
// set now: a member's store is gone, or the set is short of Replicas-1
// (a degraded fleet, a rewire that failed half way) and an anti-affine
// active store exists. A lineage short for want of a failure domain is
// not work — until a store in that domain is admitted.
func (p *Placer) rewirableLocked(pl *Placement) bool {
	if pl.lost || !pl.primary.alive() {
		return false
	}
	for _, m := range pl.members {
		if !m.node.alive() {
			return true
		}
	}
	if len(pl.members) >= p.cfg.Replicas-1 {
		return false // the common case: nothing to look for
	}
	exclude := map[*StoreNode]bool{pl.primary: true}
	used := map[string]bool{pl.primary.Domain: true}
	for _, m := range pl.members {
		exclude[m.node], used[m.node.Domain] = true, true
	}
	return slices.ContainsFunc(p.nodes, func(n *StoreNode) bool { return eligible(n, exclude, used) })
}

// backlogLocked counts what a pass could act on now: lineages awaiting
// takeover and replica sets awaiting a rewire.
func (p *Placer) backlogLocked() (evac, repair int) {
	for _, pl := range p.placements {
		if pl.orphaned() {
			evac++
		} else if p.rewirableLocked(pl) {
			repair++
		}
	}
	return evac, repair
}

// moveLocked live-migrates pl off its primary's store to the best
// compatible node: never a current member, and anti-affine to the
// members that will survive the move.
func (p *Placer) moveLocked(pl *Placement, kind string) PlacerEvent {
	exclude := map[*StoreNode]bool{pl.primary: true}
	used := map[string]bool{}
	for _, m := range pl.members {
		exclude[m.node] = true
		if m.node.State() == StoreActive {
			used[m.node.Domain] = true
		}
	}
	dst := p.pickLocked(exclude, used)
	if dst == nil {
		return PlacerEvent{Kind: kind, Lineage: pl.Lineage, From: pl.primary.Name,
			Err: fmt.Errorf("core: lineage %d: no anti-affine target off %s: %w", pl.Lineage, pl.primary.Name, ErrNoFeasiblePlacement)}
	}
	ev := p.rehomeLocked(pl, dst, true)
	ev.Kind = kind
	return ev
}

// rehomeLocked moves pl's primary role to dst. Planned, the source
// still runs and dst is a fresh node: pre-copy over a migration wire,
// then the blackout cutover. Unplanned, the source's store is down and
// dst is a member: standby promotion from what its receiver holds, TTR
// on dst's own clock lane. Either way the migrator reads images under
// the stream ID but fences and claims under the stable lineage key, so
// exactly-one-primary-at-max-gen holds across chained re-homes.
func (p *Placer) rehomeLocked(pl *Placement, dst *StoreNode, planned bool) PlacerEvent {
	from, stream := pl.primary, pl.g.ID
	ev := PlacerEvent{Kind: "evacuated", Lineage: pl.Lineage, From: from.Name}
	mig := &Migrator{
		Src: from.O, Dst: dst.O, G: pl.g,
		SrcStore: from.SB, DstStore: dst.SB, Sup: from.Sup,
		Cfg: MigratorConfig{MaxRounds: placerMigrateRounds, Lineage: pl.Lineage, Name: pl.Name, Retries: p.cfg.Retries},
	}
	var rep *MigrateReport
	var err error
	if !planned {
		mig.Target = pl.member(dst).view
		if rep, err = mig.PromoteStandby(); err != nil {
			// Still orphaned: the next pass tries again (the target
			// could have been mid-fault).
			ev.Kind, ev.Err = "evac-failed", err
			return ev
		}
		ev.TTR = rep.TTR
	} else {
		if mig.Link, mig.Target, err = p.links.Link(from, dst, stream); err != nil {
			ev.Err = err
			return ev
		}
		mig.Reconnect = func() error {
			// A pre-copy round syncs through every attached backend, so
			// a transiently faulted replica wire stalls the migration as
			// surely as the migration wire itself — heal them all.
			for _, m := range pl.members {
				if m.node.alive() {
					_ = p.links.Reconnect(from, m.node, stream)
				}
			}
			return p.links.Reconnect(from, dst, stream)
		}
		if rep, err = mig.Run(nil); err != nil {
			// The source keeps running this lineage: detach the migration
			// backend Start attached, or every later sync stalls on a wire
			// whose directory entry is about to disappear.
			mig.Abandon()
		}
		p.links.Drop(from, dst, stream)
		if err != nil {
			ev.Err = err
			return ev
		}
		ev.TTR = rep.Blackout
	}

	// The stream moved: every wire of the old one goes, and the members
	// that can stay (active, not the new primary; anti-affine by
	// construction) wait unlinked for the rewire. The new stream starts
	// empty everywhere, so the rewire's seed checkpoint is full — which
	// is what makes the new replicas restorable on their own.
	var keep []member
	for _, m := range pl.members {
		p.links.Drop(from, m.node, stream)
		if m.node != dst && m.node.State() == StoreActive {
			keep = append(keep, member{node: m.node})
		}
	}
	pl.primary, pl.g, pl.members = dst, rep.Group, keep
	ev.Err = p.rewireLocked(pl)
	if dst.Sup != nil {
		dst.Sup.Watch(pl.g)
	}
	ev.To, ev.Gen, ev.Floor = dst.Name, rep.Gen, rep.Floor
	return ev
}

// repairLocked rewires pl's replica set in place (the primary stays)
// and reports it, naming the members the rewire linked.
func (p *Placer) repairLocked(pl *Placement) PlacerEvent {
	before := pl.Replicas()
	ev := PlacerEvent{Kind: "repaired", Lineage: pl.Lineage, From: pl.primary.Name, To: pl.primary.Name}
	ev.Err = p.rewireLocked(pl)
	var linked []string
	for _, m := range pl.members {
		if !slices.Contains(before, m.node) {
			linked = append(linked, m.node.Name)
		}
	}
	ev.Store = strings.Join(linked, ",")
	return ev
}

// unlinkLocked takes one member out of pl's stream. The group outlives
// the replica, so the wire's backend is detached — or every later sync
// would stall on epochs owed to a zombie no reconnect can heal.
func (p *Placer) unlinkLocked(pl *Placement, m member) {
	if m.wire != nil {
		_ = pl.primary.O.Detach(pl.g, m.wire.Name())
	}
	p.links.Drop(pl.primary, m.node, pl.g.ID)
}

// wireLocked brings pl's replica set to Replicas-1 members: members on
// stores that are no longer active (or that share a failure domain
// with one already kept) are unlinked, survivors of a re-home are
// linked under the new stream, and anti-affine fresh nodes fill the gap.
func (p *Placer) wireLocked(pl *Placement) error {
	exclude := map[*StoreNode]bool{pl.primary: true}
	used := map[string]bool{pl.primary.Domain: true}
	link := func(n *StoreNode) error {
		b, view, err := p.links.Link(pl.primary, n, pl.g.ID)
		if err != nil {
			p.links.Drop(pl.primary, n, pl.g.ID) // a wire that never came up must not linger
			return fmt.Errorf("core: lineage %d: linking %s→%s: %w", pl.Lineage, pl.primary.Name, n.Name, err)
		}
		pl.primary.O.Attach(pl.g, b)
		pl.members = append(pl.members, member{node: n, wire: b, view: view})
		exclude[n], used[n.Domain] = true, true
		return nil
	}
	old := pl.members
	pl.members = nil
	var firstErr error
	for _, m := range old {
		switch {
		case m.node.State() != StoreActive || used[m.node.Domain]:
			p.unlinkLocked(pl, m)
		case m.wire != nil:
			pl.members = append(pl.members, m)
			exclude[m.node], used[m.node.Domain] = true, true
		default:
			// A survivor that fails to link stops being a member; the
			// next pass finds the set short and picks again.
			if err := link(m.node); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for firstErr == nil && len(pl.members) < p.cfg.Replicas-1 {
		n := p.pickLocked(exclude, used)
		if n == nil {
			// Anti-affinity is hard; replication factor is not. A fleet
			// that has lost too many domains runs the lineage degraded
			// rather than dead; once a store in a free domain is active
			// rewirableLocked reports the lineage and the next pass
			// restores full strength.
			break
		}
		firstErr = link(n)
	}
	return firstErr
}

// rewireLocked is wireLocked plus one full checkpoint through the
// links, driven durable, so every replica holds a restorable image of
// the lineage's current state.
func (p *Placer) rewireLocked(pl *Placement) error {
	if err := p.wireLocked(pl); err != nil {
		return err
	}
	// The checkpoint runs even when the rewire came up empty (degraded
	// fleet): it is also what makes a freshly promoted primary
	// restorable from its own store — the new stream holds nothing until
	// its first checkpoint lands. A shed checkpoint leaves a fresh
	// replica empty, and an empty standby is unpromotable: retry until
	// admission control lets the seed through.
	for attempt := 0; ; attempt++ {
		bd, err := pl.primary.O.Checkpoint(pl.g, CheckpointOpts{Full: true})
		if err != nil {
			return fmt.Errorf("core: lineage %d: seeding replicas: %w", pl.Lineage, err)
		}
		if !bd.Shed {
			break
		}
		if attempt >= 16 {
			return fmt.Errorf("core: lineage %d: seeding replicas: admission control shed %d attempts", pl.Lineage, attempt)
		}
	}
	return p.syncLocked(pl)
}

// syncLocked drives pl's durable frontier to its barrier epoch,
// re-establishing faulted replica wires along the way (a dropped or
// corrupted frame kills the replica session; the directory's reset
// dance plus a Resync replays the pending epochs).
func (p *Placer) syncLocked(pl *Placement) error {
	var last error
	for round := 0; round < 24; round++ {
		last = pl.primary.O.Sync(pl.g)
		// Sync's epilogue resyncs degraded backends; its error is the
		// replica catch-up debt. Durable alone is NOT enough — the
		// durable frontier advances past a degraded replica (PR 2
		// health-ladder semantics), so a placement is in sync only when
		// the frontier is current AND no backend owes epochs. Otherwise
		// a standby could sit empty behind a healthy-looking frontier.
		if last == nil && pl.g.Durable() == pl.g.Epoch() {
			return nil
		}
		if round >= 2 {
			for _, m := range pl.members {
				_ = p.links.Reconnect(pl.primary, m.node, pl.g.ID)
			}
			_ = pl.primary.O.Resync(pl.g)
		}
	}
	return fmt.Errorf("core: lineage %d: durable stuck at %d (barrier %d): %w",
		pl.Lineage, pl.g.Durable(), pl.g.Epoch(), last)
}

// SyncDurable drives a lineage's durable frontier to its barrier
// epoch, healing faulted replica wires along the way. Workload drivers
// call this after checkpointing instead of hand-rolling the
// reconnect/resync dance.
func (p *Placer) SyncDurable(lineage uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.placements[lineage]
	if !ok || pl.lost {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrUnknownLineage)
	}
	if pl.orphaned() {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrEvacuating)
	}
	return p.syncLocked(pl)
}

// BeginDrain marks a store as decommissioning: new placements are
// refused at once, but nothing moves yet. DrainStep advances the
// decommission in bounded increments; Undrain aborts it. Drain wraps
// all three for the synchronous one-call path.
func (p *Placer) BeginDrain(n *StoreNode) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.beginDrainLocked(n)
}

func (p *Placer) beginDrainLocked(n *StoreNode) error {
	switch n.State() {
	case StoreDraining:
		return fmt.Errorf("core: store %s already draining: %w", n.Name, ErrDraining)
	case StoreDown, StoreFenced:
		return fmt.Errorf("core: store %s is %s, not drainable: %w", n.Name, n.State(), ErrNoFeasiblePlacement)
	}
	n.setState(StoreDraining)
	return nil
}

// DrainStep advances a decommission by one pass with the move class
// pointed at n: takeovers and rewires settle first, then up to budget
// of n's resident primaries and replica roles move off, and n is fenced
// once it holds nothing (done). On error the store stays draining — the
// caller retries the step or rolls the drain back with Undrain.
func (p *Placer) DrainStep(n *StoreNode, budget int) ([]PlacerEvent, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n.State() != StoreDraining {
		return nil, false, fmt.Errorf("core: store %s is %s, not draining: %w", n.Name, n.State(), ErrNoFeasiblePlacement)
	}
	evs, err := p.reconcileLocked(budgets{heal: p.cfg.EvacConcurrency, drain: n, moves: max(budget, 1)})
	p.events = append(p.events, evs...)
	return evs, n.State() == StoreFenced, err
}

// Undrain aborts a decommission and re-admits the store: Draining
// flips back to Active with the store's labels, residents, and probe
// ladder intact, and every directory wire the store participates in is
// re-handshaken — a drain abandoned mid-migration can leave replica
// sessions poisoned, and a re-admitted store must replicate again
// immediately. Only a draining store can be undrained; fenced and down
// stores re-enter the fleet through their own paths.
func (p *Placer) Undrain(n *StoreNode) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n.State() != StoreDraining {
		return fmt.Errorf("core: store %s is %s, not draining: %w", n.Name, n.State(), ErrNoFeasiblePlacement)
	}
	n.mu.Lock()
	n.state, n.probeFails = StoreActive, 0
	n.mu.Unlock()

	var firstErr error
	for _, pl := range p.sortedLocked() {
		if pl.lost || !pl.primary.alive() {
			continue
		}
		for _, m := range pl.members {
			if m.node == n || (pl.primary == n && m.node.alive()) {
				if err := p.links.Reconnect(pl.primary, m.node, pl.g.ID); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	p.events = append(p.events, PlacerEvent{Kind: "undrained", Store: n.Name, Err: firstErr})
	return firstErr
}

// Drain decommissions a store synchronously: new placements are
// refused at once, then unbounded drain passes run until the store is
// fenced. A partially drained store stays draining on error so the
// operator can retry (or roll back with Undrain).
func (p *Placer) Drain(n *StoreNode) ([]PlacerEvent, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.beginDrainLocked(n); err != nil {
		return nil, err
	}
	var out []PlacerEvent
	var err error
	for iter := 64 + 2*len(p.placements); iter > 0 && err == nil && n.State() != StoreFenced; iter-- {
		var evs []PlacerEvent
		evs, err = p.reconcileLocked(budgets{heal: p.cfg.EvacConcurrency, drain: n, moves: len(p.placements) + 1})
		out = append(out, evs...)
	}
	if err == nil && n.State() != StoreFenced {
		evac, repair := p.backlogLocked()
		err = fmt.Errorf("core: draining %s: evacuation storm did not settle (evac %d, repair %d): %w",
			n.Name, evac, repair, ErrEvacuating)
	}
	p.events = append(p.events, out...)
	return out, err
}

// Unplace retires a lineage from the fleet: replica wires are dropped,
// the group stops persisting on its primary, and the placement is
// forgotten. Stored epochs stay behind for retention GC — retirement
// is a routing decision, not an erase. This is the load-decay half of
// elasticity: scale-in needs lineages to leave as well as arrive.
func (p *Placer) Unplace(lineage uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.placements[lineage]
	if !ok {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrUnknownLineage)
	}
	if pl.orphaned() {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrEvacuating)
	}
	if !pl.lost {
		for _, m := range pl.members {
			p.unlinkLocked(pl, m)
		}
		if pl.primary.Sup != nil {
			pl.primary.Sup.Unwatch(pl.g)
		}
		pl.primary.O.Unpersist(pl.g)
	}
	delete(p.placements, lineage)
	delete(p.lastMoved, lineage)
	p.events = append(p.events, PlacerEvent{Kind: "unplaced", Lineage: lineage, From: pl.primary.Name})
	return nil
}

// RebalanceOpts tunes one paced rebalance tick.
type RebalanceOpts struct {
	// Budget caps migrations performed this tick (default 1) — the
	// rate limit that keeps background churn from starving foreground
	// checkpoint traffic.
	Budget int
	// HighWater overrides the pressure threshold for this tick (0
	// keeps the placer default). The autoscaler seeds a fresh store by
	// ticking with its own scale-out threshold.
	HighWater float64
}

// RebalanceTick runs one paced rebalance round — a pass with only the
// move class on: the most pressured stores shed their heaviest eligible
// lineage toward the emptiest compatible store, bounded by Budget. A
// lineage moved within the last MoveCooldownTicks ticks is ineligible
// (ping-pong protection across ticks).
func (p *Placer) RebalanceTick(opts RebalanceOpts) ([]PlacerEvent, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if opts.HighWater <= 0 {
		opts.HighWater = p.cfg.HighWater
	}
	evs, err := p.reconcileLocked(budgets{moves: max(opts.Budget, 1), highWater: opts.HighWater})
	p.events = append(p.events, evs...)
	return evs, err
}

// Rebalance runs paced ticks until a tick moves nothing (or errors):
// the synchronous relief-valve call for operators and tests. The
// background pacer path is RebalanceTick, driven by the autoscaler
// with a per-tick budget.
func (p *Placer) Rebalance() ([]PlacerEvent, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PlacerEvent
	var err error
	skipped := make(map[uint64]bool)
	for iter, moved := 0, 1; iter < 64 && moved > 0 && err == nil; iter++ {
		var evs []PlacerEvent
		evs, err = p.reconcileLocked(budgets{moves: len(p.nodes) + 1, highWater: p.cfg.HighWater})
		moved = 0
		for _, ev := range evs {
			if ev.Kind == "rebalance-skipped" {
				// Report each stuck lineage once per call, not per tick.
				if skipped[ev.Lineage] {
					continue
				}
				skipped[ev.Lineage] = true
			} else if ev.Err == nil {
				moved++
			}
			out = append(out, ev)
		}
	}
	p.events = append(p.events, out...)
	return out, err
}

// AntiAffinityViolations audits every live placement against the hard
// constraint: no two members (primary or replica) share a failure
// domain. The heal-time acceptance gate asserts this returns nothing.
func (p *Placer) AntiAffinityViolations() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, pl := range p.placements {
		if pl.lost || pl.orphaned() {
			continue
		}
		seen := map[string]string{pl.primary.Domain: pl.primary.Name}
		for _, m := range pl.members {
			if other, dup := seen[m.node.Domain]; dup {
				out = append(out, fmt.Sprintf("lineage %d: %s and %s share domain %s",
					pl.Lineage, other, m.node.Name, m.node.Domain))
			} else {
				seen[m.node.Domain] = m.node.Name
			}
		}
	}
	sort.Strings(out)
	return out
}

// QueueDepths reports what a pass could act on now (the throttle's
// visible state): lineages awaiting takeover, replica sets awaiting a
// rewire. Both are counted from the fleet as it stands, so a lineage
// degraded for want of a failure domain is not backlog.
func (p *Placer) QueueDepths() (evac, repair int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backlogLocked()
}
