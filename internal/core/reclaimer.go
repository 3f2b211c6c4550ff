package core

import (
	"errors"
	"fmt"
	"sync"

	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// This file implements watermark-driven space reclamation: the policy
// layer above the object store's merge-forward GC (objstore/gc.go).
// A bounded device fills up as checkpoints accumulate; the reclaimer
// keeps checkpointing alive forever by dropping old epochs under a
// retention policy when device usage crosses pressure watermarks, and
// by TRIMming freed blocks back to the device. Reclamation runs on a
// detached clock lane (background work, not the group's foreground
// timeline) and never touches an epoch the rest of the system still
// depends on — see protectionFor for the full set of safety floors.

// RetentionPolicy says which old epochs a group may lose to make room.
// The zero value is safe: keep the last defaultKeepLast epochs, never
// reclaim named checkpoints.
type RetentionPolicy struct {
	// KeepLast is the minimum number of epochs retained per lineage
	// (0 = defaultKeepLast). Emergency reclamation may cut this to 1.
	KeepLast int
	// DropNamed allows reclaiming named checkpoints (snapshots and
	// clone anchors). Off by default: a name is a promise.
	DropNamed bool
}

// Watermarks are device-usage fractions driving the pressure ladder.
// The zero value selects the defaults.
type Watermarks struct {
	Low       float64 // reclaim down to here once triggered (default 0.60)
	High      float64 // above: reclaim before admitting checkpoints (default 0.80)
	Emergency float64 // above: shed checkpoints, forced floors (default 0.95)
}

// Default pressure configuration.
const (
	defaultKeepLast       = 2
	defaultLowWatermark   = 0.60
	defaultHighWatermark  = 0.80
	defaultEmergencyMark  = 0.95
	defaultShedAdmitEvery = 4
)

// PressureLevel is the device's position on the space-pressure ladder.
type PressureLevel int

const (
	// PressureNone: below the low watermark (or unbounded device).
	PressureNone PressureLevel = iota
	// PressureLow: above low — TRIM free blocks.
	PressureLow
	// PressureHigh: above high — reclaim aggressively; admission
	// control sheds checkpoints that reclamation cannot make room for.
	PressureHigh
	// PressureEmergency: above emergency — retention floors drop to
	// one epoch and ENOSPC-triggered reclaim runs inline.
	PressureEmergency
)

func (l PressureLevel) String() string {
	switch l {
	case PressureNone:
		return "none"
	case PressureLow:
		return "low"
	case PressureHigh:
		return "high"
	case PressureEmergency:
		return "emergency"
	default:
		return fmt.Sprintf("PressureLevel(%d)", int(l))
	}
}

// ReclaimStats is the reclaimer's cumulative effort.
type ReclaimStats struct {
	Scans           int64
	EmergencyScans  int64
	EpochsReclaimed int64
	BytesReclaimed  int64 // device residency returned by reclamation
	LastLevel       PressureLevel
	LastAuditErr    string
}

// Reclaimer drives retention GC for one store backend. It is attached
// with StoreBackend.SetReclaimer; the flush pipeline pokes it at every
// epoch retirement (StoreBackend.Trim) and the checkpoint path
// consults it for admission control. All reclamation runs single
// flight: concurrent pokes coalesce into one scan, while an emergency
// caller waits its turn and then runs a scan of its own.
type Reclaimer struct {
	o  *Orchestrator
	sb *StoreBackend

	policy RetentionPolicy
	marks  Watermarks

	// Audit, when non-nil, runs against the store after every epoch
	// reclaimed (test harnesses wire AuditReachability here). A failure
	// aborts the scan and surfaces in Stats.
	Audit func(*objstore.Store) error

	// scanMu is held for the length of a scan: an ordinary poke that
	// finds it taken coalesces (TryLock), an emergency caller waits.
	scanMu sync.Mutex

	mu    sync.Mutex
	stats ReclaimStats
}

// NewReclaimer builds a reclaimer for sb with zero-values replaced by
// defaults. It does not attach itself; call sb.SetReclaimer.
func NewReclaimer(o *Orchestrator, sb *StoreBackend, policy RetentionPolicy, marks Watermarks) *Reclaimer {
	if policy.KeepLast <= 0 {
		policy.KeepLast = defaultKeepLast
	}
	if marks.Low <= 0 {
		marks.Low = defaultLowWatermark
	}
	if marks.High <= 0 {
		marks.High = defaultHighWatermark
	}
	if marks.Emergency <= 0 {
		marks.Emergency = defaultEmergencyMark
	}
	return &Reclaimer{o: o, sb: sb, policy: policy, marks: marks}
}

// Usage reports the backing device's residency.
func (r *Reclaimer) Usage() (used, capacity int64, frac float64) {
	return r.sb.store.Usage()
}

// Level places current usage on the pressure ladder.
func (r *Reclaimer) Level() PressureLevel {
	_, capacity, frac := r.sb.store.Usage()
	if capacity <= 0 {
		return PressureNone
	}
	return r.levelOf(frac)
}

func (r *Reclaimer) levelOf(frac float64) PressureLevel {
	switch {
	case frac >= r.marks.Emergency:
		return PressureEmergency
	case frac >= r.marks.High:
		return PressureHigh
	case frac >= r.marks.Low:
		return PressureLow
	default:
		return PressureNone
	}
}

// Stats snapshots the reclaimer's counters.
func (r *Reclaimer) Stats() ReclaimStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Watermarks returns the configured pressure thresholds.
func (r *Reclaimer) Watermarks() Watermarks { return r.marks }

// Scan reclaims history if usage is above the low watermark, stopping
// as soon as usage drops back below it. Returns bytes of device
// residency freed. Safe to call from any goroutine; concurrent calls
// coalesce.
func (r *Reclaimer) Scan() int64 { return r.scan(false) }

// Emergency is the ENOSPC path: reclaim with retention floors forced
// down to one epoch per lineage, regardless of the computed usage
// fraction (an injected full device can reject writes below any
// watermark). Unlike Scan it never coalesces: its caller holds an
// ENOSPC and reads "0 bytes freed" as "the epoch cannot be stored", so
// it waits out a scan in flight and then runs its own. Returns bytes
// freed.
func (r *Reclaimer) Emergency() int64 { return r.scan(true) }

func (r *Reclaimer) scan(emergency bool) int64 {
	if emergency {
		r.scanMu.Lock()
	} else if !r.scanMu.TryLock() {
		return 0
	}
	defer r.scanMu.Unlock()
	r.mu.Lock()
	r.stats.Scans++
	if emergency {
		r.stats.EmergencyScans++
	}
	r.mu.Unlock()

	usedBefore, capacity, frac := r.sb.store.Usage()
	var level PressureLevel
	if capacity > 0 {
		level = r.levelOf(frac)
	} else if emergency {
		// An unbounded (or residency-opaque) device rejected a write:
		// trust the ENOSPC over the computed fraction.
		level = PressureEmergency
	}
	r.mu.Lock()
	r.stats.LastLevel = level
	r.mu.Unlock()
	if !emergency && level < PressureLow {
		return 0
	}

	// Reclamation burns its own time, not the group's foreground
	// timeline: the store view charges to a detached lane.
	view := r.sb.store.WithClock(r.o.K.Clock.Lane())

	keep := r.policy.KeepLast
	if emergency {
		keep = 1
	}

	// Cheapest space first: TRIM blocks already on the free list.
	view.ReleaseSpace()

	epochs := int64(0)
	abort := false
	dropOne := func(gid, epoch uint64) bool {
		if err := view.DropEpoch(gid, epoch); err != nil {
			return false
		}
		epochs++
		if r.Audit != nil {
			if err := r.Audit(view); err != nil {
				r.mu.Lock()
				r.stats.LastAuditErr = err.Error()
				r.mu.Unlock()
				abort = true
			}
		}
		return true
	}

	// Low pressure reclaims the free list only.
	if emergency || level > PressureLow {
		// High pressure (or forced emergency): drop the oldest
		// unprotected epoch of each lineage round-robin until usage is
		// back below the low watermark or nothing reclaimable remains.
		for !abort {
			if capacity > 0 {
				if _, _, f := r.sb.store.Usage(); f <= r.marks.Low {
					break
				}
			}
			dropped := false
			prot := r.protectionFor(view)
			for _, gid := range view.Groups() {
				if abort {
					break
				}
				ms := view.Manifests(gid)
				if len(ms) <= keep {
					continue
				}
				// Never the newest: dropping a lineage's last manifest
				// releases everything it still needs.
				for _, m := range ms[:len(ms)-1] {
					if prot.covers(gid, m.Epoch, r.policy) {
						continue
					}
					if dropOne(gid, m.Epoch) {
						dropped = true
					}
					break
				}
			}
			view.ReleaseSpace()
			if !dropped {
				break
			}
		}
		// Last resort, only once dropping found nothing: epoch drops
		// free whole data blocks but only decrement pack refcounts, so
		// a long churn can strand freed space inside half-dead pack
		// blocks. Compaction rewrites the survivors out and frees the
		// blocks. It stays off any scan that reclaimed normally — its
		// device writes would shift a seeded fault schedule for runs
		// that never needed it.
		if emergency && epochs == 0 && view.CompactPacks() > 0 {
			view.ReleaseSpace()
		}
	}

	usedAfter, _, _ := r.sb.store.Usage()
	freed := usedBefore - usedAfter
	if freed < 0 || usedBefore < 0 || usedAfter < 0 {
		freed = 0
	}
	r.mu.Lock()
	r.stats.EpochsReclaimed += epochs
	r.stats.BytesReclaimed += freed
	r.mu.Unlock()
	return freed
}

// protection is the set of epochs reclamation must not touch, per
// lineage: a floor (everything at or above it) plus exact pins.
type protection struct {
	floors map[uint64]uint64          // lineage -> protect epochs >= floor
	exact  map[uint64]map[uint64]bool // lineage -> pinned epochs
	named  map[uint64]map[uint64]bool // lineage -> named epochs
}

func (p *protection) lowerFloor(gid, floor uint64) {
	if cur, ok := p.floors[gid]; !ok || floor < cur {
		p.floors[gid] = floor
	}
}

func (p *protection) pin(gid, epoch uint64) {
	m := p.exact[gid]
	if m == nil {
		m = make(map[uint64]bool)
		p.exact[gid] = m
	}
	m[epoch] = true
}

// covers reports whether (gid, epoch) is protected under policy.
func (p *protection) covers(gid, epoch uint64, policy RetentionPolicy) bool {
	if floor, ok := p.floors[gid]; ok && epoch >= floor {
		return true
	}
	if p.exact[gid][epoch] {
		return true
	}
	if !policy.DropNamed && p.named[gid][epoch] {
		return true
	}
	return false
}

// protectionFor computes the reclamation safety floors against the
// current orchestrator and store state:
//
//  1. the durable/replication frontier — for a live group, every epoch
//     at or above Replicated() (≤ Durable(); epochs a sick backend
//     still owes stay put so catch-up can land on intact history);
//  2. quarantine fallbacks — for every quarantined epoch, the newest
//     good epoch below it (the epoch a restore would fall back to);
//  3. lineage anchors — the origin epoch of every live group restored
//     from this chain (its crash-loop fallback);
//  4. named checkpoints (unless the policy says otherwise);
//  5. replica catch-up floors — epochs at or above what a
//     partition-aware backend has contiguously acknowledged;
//  6. restore pins — epochs live demand-paging sources resolve their
//     pages at (a dropped epoch leaves the source's page view with no
//     place in the store's history to look from).
//
// Rules 3 and 6 are Orchestrator.pins, which the HistoryLimit trim
// honours too.
//
// The newest retained epoch of every lineage is additionally pinned:
// dropping it would release the lineage wholesale.
func (r *Reclaimer) protectionFor(view *objstore.Store) *protection {
	p := &protection{
		floors: make(map[uint64]uint64),
		exact:  make(map[uint64]map[uint64]bool),
		named:  make(map[uint64]map[uint64]bool),
	}

	for _, g := range r.o.Groups() {
		gid := g.ID
		// (1) the live group's own frontier.
		p.lowerFloor(gid, g.Replicated())
		// (5) what replicas have contiguously caught up to. Under a
		// quorum policy the floor is the W-th highest replica frontier,
		// not the minimum: a permanently-down minority must not pin
		// retention GC forever, because promotion elects from a
		// surviving quorum and the minority's missing epochs replay
		// from the in-memory flush window, not from the store.
		var cuFloors []uint64
		for _, b := range g.Backends() {
			if cf, ok := b.(CatchUpFloorer); ok {
				if f := cf.CatchUpFloor(gid); f > 0 {
					cuFloors = append(cuFloors, f)
				}
			}
		}
		if q, ok := g.Quorum(); ok && len(cuFloors) > 0 {
			p.lowerFloor(gid, QuorumFloor(cuFloors, q.W))
		} else {
			for _, f := range cuFloors {
				p.lowerFloor(gid, f)
			}
		}
	}
	// (3) the chains live groups were restored from, and (6) epochs
	// live objects still page from.
	for _, pin := range r.o.pins() {
		p.pin(pin[0], pin[1])
	}

	for _, gid := range view.Groups() {
		ms := view.Manifests(gid)
		if len(ms) > 0 {
			p.pin(gid, ms[len(ms)-1].Epoch)
		}
		for _, m := range ms {
			if m.Name != "" {
				nm := p.named[gid]
				if nm == nil {
					nm = make(map[uint64]bool)
					p.named[gid] = nm
				}
				nm[m.Epoch] = true
			}
		}
		// (2) quarantined epochs must keep their fallback target.
		for q := range view.QuarantinedEpochs(gid) {
			if m, err := view.LatestGoodManifest(gid, q); err == nil {
				p.pin(gid, m.Epoch)
			}
		}
	}
	return p
}

// CatchUpFloorer is implemented by backends (netback replicas) that
// track how far the far side has contiguously acknowledged a lineage's
// epochs. Reclamation never drops an epoch at or above that floor: the
// replica may still need to serve it after a promotion.
type CatchUpFloorer interface {
	CatchUpFloor(group uint64) uint64
}

// emergencyReclaim runs an ENOSPC-triggered emergency reclamation on
// b's reclaimer, reporting whether any space came back.
func (o *Orchestrator) emergencyReclaim(b Backend) bool {
	sb, ok := b.(*StoreBackend)
	if !ok || sb.rec == nil {
		return false
	}
	return sb.rec.Emergency() > 0
}

// syncWithReclaim persists sb's superblock, treating a full device the
// way the flusher does: reclaim under emergency policy and retry as
// long as reclamation keeps finding space. Control-plane writes (fence
// and generation persistence) must not fail just because checkpoint
// history has filled the device.
func (o *Orchestrator) syncWithReclaim(sb *StoreBackend) error {
	for {
		err := sb.Store().Sync()
		if err == nil || !errors.Is(err, storage.ErrOutOfSpace) {
			return err
		}
		if !o.emergencyReclaim(sb) {
			return err
		}
	}
}
