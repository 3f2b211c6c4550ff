package core

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/objstore"
)

// This file implements replica promotion: turning a netback replica
// into the primary store when the primary is declared permanently
// dead. The protocol rests on the store generation (fencing token):
//
//  1. the replica's contiguous-epoch floor becomes the new durable
//     line — epochs beyond a gap were never acknowledged as a chain
//     and are quarantined as divergent;
//  2. the promotion mints generation = (highest witnessed) + 1,
//     persists it in the new primary store's superblock, and raises
//     the replica-side fence, so
//  3. a returning stale primary — still stamping the old generation —
//     has every flush rejected (ErrStaleGeneration), is marked fenced,
//     refuses further checkpoints, and is demoted to catch-up resync
//     with its divergent epochs quarantined via the PR 3 machinery.

// ErrStaleGeneration is the fencing rejection: a flush stamped with a
// store generation behind the lineage's fence. It is the same value
// objstore returns, so one errors.Is identity works end to end.
var ErrStaleGeneration = objstore.ErrStaleGeneration

// ErrPrimaryHealthy refuses a promotion while the current primary is
// not down: promoting over a live primary is how split-brain starts.
var ErrPrimaryHealthy = errors.New("core: current primary still healthy")

// FenceError decorates a fencing rejection with the fence generation
// that rejected the flush and the rejecting side's contiguous floor
// (the durable line of the new primary at fencing time). It wraps
// ErrStaleGeneration.
type FenceError struct {
	Gen   uint64 // the fence generation that rejected the flush
	Floor uint64 // the rejecting side's contiguous/latest epoch
	Err   error
}

func (e *FenceError) Error() string {
	return fmt.Sprintf("fenced by generation %d (floor epoch %d): %v", e.Gen, e.Floor, e.Err)
}

func (e *FenceError) Unwrap() error { return e.Err }

// noteFence inspects a flush error; if it is a fencing rejection the
// group is marked fenced and true is returned. Must not be called
// with healthMu held (markFenced takes g.mu).
func noteFence(g *Group, err error) bool {
	if err == nil || !errors.Is(err, ErrStaleGeneration) {
		return false
	}
	var fe *FenceError
	if errors.As(err, &fe) {
		g.markFenced(fe.Gen, fe.Floor)
	} else {
		g.markFenced(g.Generation()+1, 0)
	}
	return true
}

// ReplicaSource is the view of a replica that promotion consumes:
// netback.Receiver implements it.
type ReplicaSource interface {
	// ImageAt returns the replica's image for (group, epoch), linked
	// into its chain.
	ImageAt(group, epoch uint64) (*Image, error)
	// ContiguousEpoch is the newest epoch with no holes below it —
	// the replica's durable line.
	ContiguousEpoch(group uint64) uint64
	// ReplicaEpochs lists every epoch held, ascending.
	ReplicaEpochs(group uint64) []uint64
	// FenceGen is the highest store generation witnessed in deltas or
	// adopted fences for the group.
	FenceGen(group uint64) uint64
	// AdoptFence raises the replica-side fence: deltas stamped with an
	// older generation are answered with a fencing rejection.
	AdoptFence(group, gen uint64)
}

// ReplicaRepairTarget is an optional interface of ReplicaSource:
// replicas that accept read-repair adopt images they missed (a
// minority that lost epochs to a kill or partition is backfilled from
// the elected member after a quorum promotion). netback.Receiver
// implements it.
type ReplicaRepairTarget interface {
	// AdoptImage takes a copy of an image into the replica's chain as
	// if it had been shipped over the wire; img stays the caller's.
	AdoptImage(img *Image) error
}

// PromoteReport summarizes a promotion.
type PromoteReport struct {
	Group       *Group        // the promoted group (nil for PromoteBackend's in-place role move)
	Gen         uint64        // the new primary generation
	Floor       uint64        // the contiguous floor that became the durable line
	Quarantined []uint64      // divergent epochs beyond the floor
	Backfilled  int           // epochs copied into the new primary store
	Elected     int           // index of the elected replica (PromoteQuorum)
	Repaired    int           // epochs read-repaired onto lagging minority replicas
	TTR         time.Duration // modeled time to recovery (virtual clock)
}

// PromoteQuorum turns a replica set into the primary store for a
// lineage. The member with the highest contiguous acked floor is
// elected (ties break to the lowest index — election is deterministic;
// a single replica is a set of one). Its contiguous-epoch floor becomes
// the new durable line, its history is backfilled into primary (the
// store that will anchor the promoted group) in epoch order, divergent
// epochs beyond the floor are quarantined, and the fence advances to a
// freshly minted generation — above the highest fence ANY member has
// witnessed, so a fence adopted only by a minority still cannot outrank
// the promoted line — on every member (the stale primary is rejected no
// matter which replica it reaches) and on the store, persisted through
// its superblock. The floor image is restored as a new group that
// resumes execution at the promoted generation, and lagging members are
// read-repaired: every epoch at or below the floor the elected member
// holds and they lack is backfilled into their chains, making a
// post-promotion restore from any member bit-identical.
func (o *Orchestrator) PromoteQuorum(srcs []ReplicaSource, lineage uint64, primary *StoreBackend, opts RestoreOpts) (*PromoteReport, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("core: promoting lineage %d: empty replica set: %w", lineage, ErrNoImage)
	}
	elected := 0
	var newGen uint64
	for i, s := range srcs {
		if s.ContiguousEpoch(lineage) > srcs[elected].ContiguousEpoch(lineage) {
			elected = i
		}
		if fg := s.FenceGen(lineage); fg > newGen {
			newGen = fg
		}
	}
	newGen++
	src := srcs[elected]
	clock := o.K.Clock
	start := clock.Now()

	floor := src.ContiguousEpoch(lineage)
	if floor == 0 {
		return nil, fmt.Errorf("core: promoting lineage %d: replica holds no contiguous epoch: %w", lineage, ErrNoImage)
	}
	epochs := src.ReplicaEpochs(lineage)

	// Backfill the contiguous history into the new primary store in
	// epoch order, before the fence moves (the images still carry
	// their original generations, which the store adopts as it goes).
	backfilled := 0
	var divergent []uint64
	for _, ep := range epochs {
		if ep > floor {
			divergent = append(divergent, ep)
		}
	}
	for _, ep := range backfillEpochs(epochs, floor, nil) {
		img, err := src.ImageAt(lineage, ep)
		if err != nil {
			return nil, fmt.Errorf("core: promoting lineage %d: reading epoch %d: %w", lineage, ep, err)
		}
		if primary != nil {
			if _, err := primary.Flush(img); err != nil {
				return nil, fmt.Errorf("core: promoting lineage %d: backfilling epoch %d: %w", lineage, ep, err)
			}
			backfilled++
		}
	}

	// Fence the old line on the replica: a stale primary reconnecting
	// after this point has its deltas rejected.
	src.AdoptFence(lineage, newGen)

	// Restore the floor image as the promoted group.
	img, err := src.ImageAt(lineage, floor)
	if err != nil {
		return nil, fmt.Errorf("core: promoting lineage %d: floor epoch %d: %w", lineage, floor, err)
	}
	ng, _, err := o.RestoreImage(img, 0, opts)
	if err != nil {
		return nil, fmt.Errorf("core: promoting lineage %d: restoring floor epoch %d: %w", lineage, floor, err)
	}
	ng.mu.Lock()
	ng.generation = newGen
	ng.mu.Unlock()

	if primary != nil {
		o.Attach(ng, primary)
		// Divergent epochs can never join the promoted line: poison
		// them durably via the quarantine machinery.
		for _, ep := range divergent {
			o.quarantineEpoch(ng, primary, lineage, ep,
				fmt.Errorf("divergent: beyond promotion floor %d at generation %d", floor, newGen))
		}
		// Claim the primary role and persist the fence — the
		// generation lives in the store's superblock from here on.
		if err := primary.Store().SetPrimary(lineage, newGen); err != nil {
			return nil, fmt.Errorf("core: promoting lineage %d: %w", lineage, err)
		}
		if err := o.syncWithReclaim(primary); err != nil {
			return nil, fmt.Errorf("core: promoting lineage %d: persisting fence: %w", lineage, err)
		}
	}
	rep := &PromoteReport{
		Group:       ng,
		Gen:         newGen,
		Floor:       floor,
		Quarantined: divergent,
		Backfilled:  backfilled,
		Elected:     elected,
		TTR:         clock.Now() - start,
	}

	for i, s := range srcs {
		if i == elected {
			continue
		}
		s.AdoptFence(lineage, newGen)
		rt, ok := s.(ReplicaRepairTarget)
		if !ok {
			continue
		}
		for _, ep := range backfillEpochs(epochs, floor, s.ReplicaEpochs(lineage)) {
			img, err := src.ImageAt(lineage, ep)
			if err != nil {
				return rep, fmt.Errorf("core: promoting lineage %d: read-repair epoch %d: %w", lineage, ep, err)
			}
			if err := rt.AdoptImage(img); err != nil {
				return rep, fmt.Errorf("core: promoting lineage %d: read-repair epoch %d: %w", lineage, ep, err)
			}
			rep.Repaired++
		}
	}
	return rep, nil
}

// backfillEpochs lists, oldest first, the epochs a backfill copies: of
// those the source holds (ascending), the ones at or below floor that
// the sink does not have yet.
func backfillEpochs(held []uint64, floor uint64, have []uint64) []uint64 {
	skip := make(map[uint64]bool, len(have))
	for _, ep := range have {
		skip[ep] = true
	}
	var out []uint64
	for _, ep := range held {
		if ep <= floor && !skip[ep] {
			out = append(out, ep)
		}
	}
	return out
}

// PromoteBackend moves the primary role to another attached store
// backend of a running group (`sls promote`): the in-machine flavor
// of promotion, for when the primary store device is permanently
// dead but the processes survived. It refuses with ErrPrimaryHealthy
// unless the current primary is down, and with ErrStaleGeneration if
// the group itself has been fenced by a promotion elsewhere.
func (o *Orchestrator) PromoteBackend(g *Group, name string) (*PromoteReport, error) {
	if gen, _, fenced := g.Fenced(); fenced {
		return nil, fmt.Errorf("core: group %d fenced by generation %d: %w", g.ID, gen, ErrStaleGeneration)
	}
	var target *StoreBackend
	var others []Backend
	for _, b := range g.Backends() {
		if b.Name() == name {
			if sb, ok := b.(*StoreBackend); ok {
				target = sb
			}
			continue
		}
		if !b.Ephemeral() {
			others = append(others, b)
		}
	}
	if target == nil {
		return nil, fmt.Errorf("core: backend %q not attached or not store-backed", name)
	}
	lineage := g.ID
	// The current primary: the store claiming the role, else the
	// first other non-ephemeral backend in attach order. Promotion is
	// only legal once it is down.
	var current Backend
	for _, b := range others {
		if sb, ok := b.(*StoreBackend); ok {
			if _, primary := sb.Store().PrimaryGen(lineage); primary {
				current = b
				break
			}
		}
	}
	if current == nil && len(others) > 0 {
		current = others[0]
	}
	if current == nil {
		return nil, fmt.Errorf("core: %q is the only durable backend: %w", name, ErrPrimaryHealthy)
	}
	g.healthMu.Lock()
	state := g.healthLocked(current).state
	g.healthMu.Unlock()
	if state != BackendDown {
		return nil, fmt.Errorf("core: primary %s is %s: %w", current.Name(), state, ErrPrimaryHealthy)
	}

	clock := o.K.Clock
	start := clock.Now()
	newGen := g.Generation() + 1
	if fg := target.Store().FenceGen(lineage); fg >= newGen {
		newGen = fg + 1
	}
	if err := target.Store().SetPrimary(lineage, newGen); err != nil {
		return nil, fmt.Errorf("core: promoting %s: %w", name, err)
	}
	if err := o.syncWithReclaim(target); err != nil {
		return nil, fmt.Errorf("core: promoting %s: persisting fence: %w", name, err)
	}
	g.mu.Lock()
	g.generation = newGen
	g.mu.Unlock()
	return &PromoteReport{
		Gen:   newGen,
		Floor: g.Durable(),
		TTR:   clock.Now() - start,
	}, nil
}

// DemoteStale demotes a fenced stale primary: its divergent epochs —
// those beyond the fence floor, written after the partition on a line
// nobody else acknowledges — are quarantined durably on every
// attached store backend, the newer generation is adopted into those
// stores' fence tables, and what backends still owed of the line is
// written off. The group stays fenced (it cannot checkpoint); its role
// from here is catch-up resync: its stores rejoin the promoted line
// as secondaries and bootstrap from the new primary's next full
// checkpoint. Returns the quarantined epochs.
func (o *Orchestrator) DemoteStale(g *Group) ([]uint64, error) {
	gen, floor, fenced := g.Fenced()
	if !fenced {
		return nil, fmt.Errorf("core: group %d is not fenced", g.ID)
	}
	o.Drain(g)
	seen := make(map[uint64]bool)
	var quarantined []uint64
	for _, b := range g.Backends() {
		sb, ok := b.(*StoreBackend)
		if !ok {
			continue
		}
		for _, ep := range sb.Epochs(g.ID) {
			if ep <= floor {
				continue
			}
			o.quarantineEpoch(g, sb, g.ID, ep,
				fmt.Errorf("divergent: stale primary epoch beyond fence floor %d (generation %d)", floor, gen))
			if !seen[ep] {
				seen[ep] = true
				quarantined = append(quarantined, ep)
			}
		}
		sb.Store().AdoptFence(g.ID, gen)
		if err := o.syncWithReclaim(sb); err != nil {
			return quarantined, fmt.Errorf("core: demoting group %d: persisting fence on %s: %w", g.ID, b.Name(), err)
		}
	}
	// Owed epochs of the fenced line can never be accepted anywhere;
	// keeping them owed would retry forever.
	g.healthMu.Lock()
	for _, h := range g.health {
		h.cursor = h.offered
	}
	g.healthMu.Unlock()
	if f := g.pipeline(); f != nil {
		f.trim()
	}
	return quarantined, nil
}
