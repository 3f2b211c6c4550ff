package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"aurora/internal/storage"
)

// This file implements live migration: moving a running persistence
// group from a source orchestrator/store to a target machine while it
// executes, in three phases.
//
//	pre-copy   The migration link is attached as an ordinary acked
//	           backend, so every checkpoint streams to the target while
//	           the application keeps running; shipped epochs are drained
//	           into the target store so the blackout backfill is tiny.
//	           Iterates until the target's contiguous floor has caught
//	           the source epoch.
//	blackout   One final delta under a single serialization barrier,
//	           flushed inline to every backend (source store and link),
//	           then a generation-fenced handover: a fresh generation is
//	           minted above every fence any party has witnessed, the
//	           target adopts it (over the wire when the link supports
//	           in-band handoff frames), the target store claims the
//	           primary role at it, and the source is fenced below it —
//	           a zombie source can never re-advance durable, because
//	           both the receiver and the stores reject its stale
//	           generation with ErrStaleGeneration.
//	lazy tail  The target resumes immediately from a lazy restore of
//	           the floor image; cold pages are demand-paged through the
//	           pagesource failover path — target store first, then the
//	           source store and the receiver by content hash —
//	           with read-repair onto the target store.
//
// Every phase runs under bounded retries with exponential backoff
// charged to detached clock lanes, healing the link between attempts.
// A migration that cannot complete aborts cleanly: the source is
// re-minted ABOVE any generation the target may have adopted, so the
// source remains the sole max-generation primary and the half-fenced
// target can never outrank it. Failures carry the phase in a typed
// MigrationError wrapping ErrMigrationAborted plus the root cause, so
// one errors.Is/As chain answers "did the migration abort", "was it a
// fencing rejection", and "which phase died".
//
// Hot standby is the same machine kept perpetually in pre-copy:
// StandbyRound ships and drains epochs on the source's checkpoint
// cadence, and PromoteStandby performs the blackout-less unplanned
// handover — fence, backfill, lazy restore, primary claim — measuring
// time-to-recovery on the target clock.

// ErrMigrationAborted is the identity for migration failures: every
// error returned by a Migrator phase wraps it (via MigrationError), so
// callers select with one errors.Is regardless of phase or cause.
var ErrMigrationAborted = errors.New("core: migration aborted")

// MigrationPhase names the migration phase an error was raised in.
type MigrationPhase string

const (
	PhasePreCopy  MigrationPhase = "pre-copy"
	PhaseBlackout MigrationPhase = "blackout"
	PhaseHandover MigrationPhase = "handover"
	PhaseLazyTail MigrationPhase = "lazy-tail"
)

// MigrationError is a phase-tagged migration failure. It wraps the
// root cause (errors.Is/As see through it) and matches
// ErrMigrationAborted by identity, so a fencing rejection inside a
// failed handover satisfies errors.Is for ErrMigrationAborted,
// ErrStaleGeneration, and errors.As for *FenceError through the one
// chain.
type MigrationError struct {
	Phase   MigrationPhase
	Group   uint64 // the migrating lineage's stream ID
	Retries int    // retry attempts consumed before giving up
	Err     error
}

func (e *MigrationError) Error() string {
	return fmt.Sprintf("migration of group %d aborted in %s (after %d retries): %v",
		e.Group, e.Phase, e.Retries, e.Err)
}

func (e *MigrationError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrMigrationAborted) hold for every
// MigrationError without inserting the sentinel into the cause chain.
func (e *MigrationError) Is(target error) bool { return target == ErrMigrationAborted }

// HandoffAnnouncer is an optional interface of the migration link:
// links that can announce the handover in-band (netback's
// ReplicaBackend sends handoff frames) push the fence to the target
// over the wire, so the announcement is subject to the same injected
// link faults as the data stream and is retried the same way.
type HandoffAnnouncer interface {
	// Handoff tells the far side the lineage is being handed to it at
	// gen with contiguous floor; the receiver adopts the fence and
	// acknowledges.
	Handoff(group, gen, floor uint64) error
}

// MigratorConfig tunes a migration. Zero values select defaults.
type MigratorConfig struct {
	// MaxRounds bounds pre-copy convergence rounds (default 8).
	MaxRounds int
	// Retries bounds per-operation retry attempts within a phase
	// (default 4).
	Retries int
	// Name labels the group restored on the target ("" keeps none).
	Name string
	// Lineage overrides the fencing lineage key. Migration chains
	// (A→B→C) pass the original lineage so primary claims and fences
	// stay on one key across hops; the default is the group's origin
	// anchor.
	Lineage uint64
}

// migrateBackoff is the first retry's backoff, doubling per attempt,
// charged to a detached clock lane.
const migrateBackoff = 100 * time.Microsecond

// MigrateReport summarizes a completed migration or standby promotion.
type MigrateReport struct {
	Group      *Group        // the group now running on the target
	Gen        uint64        // the generation minted at handover
	Floor      uint64        // the epoch the target resumed from
	Rounds     int           // pre-copy rounds run
	PreCopied  uint64        // target's contiguous floor when the blackout began
	Backfilled int           // epochs copied into the target store
	SrcStop    time.Duration // source-side blackout: barrier + final delta (virtual)
	Handover   time.Duration // target-side blackout: backfill + restore + claim (virtual)
	Blackout   time.Duration // SrcStop + Handover
	TTR        time.Duration // unplanned standby promotion: death to running target
	Retries    int           // faulted operations retried across all phases
}

// Migrator drives one live migration (or a hot standby) of group G
// from the source orchestrator to the target.
type Migrator struct {
	Src *Orchestrator // source machine
	Dst *Orchestrator // target machine
	G   *Group        // the migrating group (runs on Src)

	// Link is the acked replication backend attached to G that streams
	// epochs to the target (netback.ReplicaBackend). When it also
	// implements HandoffAnnouncer the handover is announced in-band.
	Link Backend
	// Target is the far-side receiver view of the stream
	// (netback.Receiver): floors, images, fences.
	Target ReplicaSource
	// SrcStore / DstStore anchor the lineage on each machine.
	SrcStore *StoreBackend
	DstStore *StoreBackend
	// Sup, when set, is the source supervisor: the group is released
	// from it at handover so a late source crash-restart cannot
	// resurrect a fenced zombie copy.
	Sup *Supervisor
	// Reconnect re-establishes the Link connection after a drop; it is
	// invoked between retry attempts when set.
	Reconnect func() error

	Cfg MigratorConfig

	started      bool
	attachedLink bool // Start attached Link (vs. pre-attached by caller)
	released     bool // Sup.Release already ran
	report       MigrateReport
}

// sid is the stream ID: the key epochs travel under on the wire and
// in the stores (the source group's ID).
func (m *Migrator) sid() uint64 { return m.G.ID }

// lineage is the fencing key primary claims live under: stable across
// migration hops.
func (m *Migrator) lineage() uint64 {
	if m.Cfg.Lineage != 0 {
		return m.Cfg.Lineage
	}
	lin, _ := m.G.originAnchor()
	return lin
}

func (m *Migrator) fail(phase MigrationPhase, err error) *MigrationError {
	return &MigrationError{Phase: phase, Group: m.sid(), Retries: m.report.Retries, Err: err}
}

// attempt runs op under the bounded retry policy: between attempts it
// backs off on a detached lane of clock (doubling) and, when heal is
// set, re-establishes the link via Reconnect. A fencing rejection is
// terminal — fences do not heal. The returned error is phase-tagged.
func (m *Migrator) attempt(phase MigrationPhase, clock *storage.Clock, heal bool, op func() error) error {
	backoff := migrateBackoff
	var err error
	for i := 0; i <= cmp.Or(m.Cfg.Retries, 4); i++ {
		if i > 0 {
			m.report.Retries++
			lane := clock.Lane()
			lane.Advance(backoff)
			backoff *= 2
			if heal && m.Reconnect != nil {
				if rerr := m.Reconnect(); rerr != nil {
					err = rerr
					continue
				}
			}
		}
		if err = op(); err == nil {
			return nil
		}
		if errors.Is(err, ErrStaleGeneration) {
			break
		}
	}
	return m.fail(phase, err)
}

// converge syncs the source group until the target's contiguous floor
// has caught the source epoch: flusher drained, durable advanced, and
// every epoch acked across the link. Retries heal the link and replay
// what it owes via Resync.
func (m *Migrator) converge(phase MigrationPhase) error {
	sid := m.sid()
	return m.attempt(phase, m.Src.K.Clock, true, func() error {
		if err := m.Src.Sync(m.G); err != nil {
			return err
		}
		if floor, epoch := m.Target.ContiguousEpoch(sid), m.G.Epoch(); floor < epoch {
			return fmt.Errorf("core: migration pre-copy: target floor %d behind source epoch %d: %w",
				floor, epoch, ErrBackendDown)
		}
		return nil
	})
}

// backfillDst drains every epoch the target's receiver holds (up to
// its contiguous floor) into the target store, so the handover restore
// reads locally and the lazy tail starts warm. Idempotent: epochs the
// store already has are skipped.
func (m *Migrator) backfillDst(phase MigrationPhase) error {
	if m.DstStore == nil {
		return nil
	}
	sid := m.sid()
	for _, ep := range backfillEpochs(m.Target.ReplicaEpochs(sid), m.Target.ContiguousEpoch(sid), m.DstStore.Epochs(sid)) {
		img, err := m.Target.ImageAt(sid, ep)
		if err != nil {
			return m.fail(phase, err)
		}
		if err := m.attempt(phase, m.Dst.K.Clock, false, func() error {
			_, ferr := m.DstStore.Flush(img)
			return ferr
		}); err != nil {
			return err
		}
		m.report.Backfilled++
	}
	return nil
}

// mintGen returns a generation above every fence any party to the
// migration has witnessed, on either key: the handover generation.
func (m *Migrator) mintGen() uint64 {
	gen := m.G.Generation()
	sid, lin := m.sid(), m.lineage()
	if fg := m.Target.FenceGen(sid); fg > gen {
		gen = fg
	}
	for _, sb := range []*StoreBackend{m.SrcStore, m.DstStore} {
		if sb == nil {
			continue
		}
		for _, key := range []uint64{sid, lin} {
			if fg := sb.Store().FenceGen(key); fg > gen {
				gen = fg
			}
		}
	}
	return gen + 1
}

// Start attaches the migration link (if it is not already a backend
// of the group) and ships the initial full snapshot: the first
// pre-copy epoch is self-contained so the target's chain restores
// without any source history.
func (m *Migrator) Start() error {
	if m.started {
		return nil
	}
	attached := false
	for _, b := range m.G.Backends() {
		if b == m.Link || b.Name() == m.Link.Name() {
			attached = true
			break
		}
	}
	if !attached {
		m.Src.Attach(m.G, m.Link)
		m.attachedLink = true
	}
	if _, _, fenced := m.G.Fenced(); fenced {
		return m.fail(PhasePreCopy, fmt.Errorf("core: migrating group %d: %w", m.G.ID, ErrStaleGeneration))
	}
	if _, err := m.Src.Checkpoint(m.G, CheckpointOpts{Full: true, Name: "migrate-base"}); err != nil {
		return m.fail(PhasePreCopy, err)
	}
	if err := m.converge(PhasePreCopy); err != nil {
		return err
	}
	m.started = true
	return nil
}

// PreCopyRound runs one pre-copy iteration: the caller's workload step
// (the application keeps running), a checkpoint, convergence across
// the link, and a drain of shipped epochs into the target store. It
// returns the residual epoch gap (0 = converged).
func (m *Migrator) PreCopyRound(workload func() error) (uint64, error) {
	if err := m.Start(); err != nil {
		return 0, err
	}
	m.report.Rounds++
	if workload != nil {
		if err := workload(); err != nil {
			return 0, m.fail(PhasePreCopy, err)
		}
	}
	if _, err := m.Src.Checkpoint(m.G, CheckpointOpts{}); err != nil {
		return 0, m.fail(PhasePreCopy, err)
	}
	if err := m.converge(PhasePreCopy); err != nil {
		return m.residual(), err
	}
	if err := m.backfillDst(PhasePreCopy); err != nil {
		return m.residual(), err
	}
	return m.residual(), nil
}

// residual is the epoch gap between the source and the target's
// contiguous floor.
func (m *Migrator) residual() uint64 {
	floor := m.Target.ContiguousEpoch(m.sid())
	if epoch := m.G.Epoch(); epoch > floor {
		return epoch - floor
	}
	return 0
}

// Run executes a planned live migration end to end: pre-copy rounds
// (workload, when non-nil, models the application running between
// ships) until the residual is zero or MaxRounds is hit, then the
// blackout cutover.
func (m *Migrator) Run(workload func() error) (*MigrateReport, error) {
	for round := 0; round < cmp.Or(m.Cfg.MaxRounds, 8); round++ {
		residual, err := m.PreCopyRound(workload)
		if err != nil {
			return nil, err
		}
		if residual == 0 {
			break
		}
	}
	return m.Cutover()
}

// Cutover performs the blackout and handover: final delta under one
// serialization barrier, generation-fenced flip, lazy-tail restore on
// the target. On failure after the target may have adopted the new
// fence, the source is re-minted above it (rollback) so it remains
// the sole max-generation primary.
func (m *Migrator) Cutover() (*MigrateReport, error) {
	if err := m.Start(); err != nil {
		return nil, err
	}
	sid := m.sid()
	m.report.PreCopied = m.Target.ContiguousEpoch(sid)

	// --- Blackout, source side: one barrier, one final delta. ---
	srcSW := m.Src.K.Clock.Watch()
	if _, err := m.Src.Checkpoint(m.G, CheckpointOpts{SkipFlush: true, Name: "migrate-final"}); err != nil {
		noteFence(m.G, err)
		return nil, m.fail(PhaseBlackout, err)
	}
	// Sync's inline path flushes the barrier image to every backend —
	// source store and link — and advances durable in one step; the
	// converge check confirms the target acked the final epoch.
	if err := m.converge(PhaseBlackout); err != nil {
		return nil, err
	}
	floor := m.G.Epoch()
	m.report.SrcStop = srcSW.Elapsed()
	m.report.Floor = floor

	// --- Handover: fence first, then flip. ---
	newGen := m.mintGen()
	m.report.Gen = newGen
	announced := false
	err := m.attempt(PhaseHandover, m.Src.K.Clock, true, func() error {
		announced = true
		if ha, ok := m.Link.(HandoffAnnouncer); ok {
			return ha.Handoff(sid, newGen, floor)
		}
		m.Target.AdoptFence(sid, newGen)
		return nil
	})
	if err != nil {
		// The target may have adopted the fence on an attempt whose ack
		// was lost: re-mint the source above it.
		return nil, m.abort(err, newGen, announced)
	}

	took, err := m.handover(floor, newGen, PhaseHandover)
	if err != nil {
		return nil, m.abort(err, newGen, announced)
	}
	m.report.Handover = took
	m.report.Blackout = m.report.SrcStop + took
	rep := m.report
	return &rep, nil
}

// handover is the tail a planned cutover and a standby promotion share,
// timed on the target's clock up to the commit: drain what the receiver
// holds into the target store, restore floor there at gen (failures
// tagged with phase), and claim the primary role — the commit point,
// persisted through the target store's superblock; from there the
// target owns the lineage even if the source dies mid-fence. Then the
// source is fenced and retired: migration moves, it does not copy.
func (m *Migrator) handover(floor, gen uint64, phase MigrationPhase) (time.Duration, error) {
	sw := m.Dst.K.Clock.Watch()
	if err := m.backfillDst(PhaseHandover); err != nil {
		return 0, err
	}
	ng, err := m.restoreOnDst(floor, gen, phase)
	if err != nil {
		return 0, err
	}
	if err := m.claimDst(ng, gen); err != nil {
		m.Dst.retire(ng) // unwind the half-committed target
		return 0, err
	}
	took := sw.Elapsed()
	m.report.Group = ng
	m.fenceSource(gen, floor)
	return took, nil
}

// claimDst persists the target store's primary claim at gen (the
// commit point), retrying transient store faults.
func (m *Migrator) claimDst(ng *Group, gen uint64) error {
	if m.DstStore == nil {
		return nil
	}
	lin := m.lineage()
	return m.attempt(PhaseHandover, m.Dst.K.Clock, false, func() error {
		if err := m.DstStore.Store().SetPrimary(lin, gen); err != nil {
			return err
		}
		return m.Dst.syncWithReclaim(m.DstStore)
	})
}

// restoreOnDst restores the floor image on the target at gen: a lazy
// restore from the target store with the source store and the receiver
// wired as demand-paging peers, so the cold tail pages in over the
// pagesource failover path with read-repair onto the target store.
func (m *Migrator) restoreOnDst(floor, gen uint64, phase MigrationPhase) (*Group, error) {
	sid := m.sid()
	var ng *Group
	err := m.attempt(phase, m.Dst.K.Clock, false, func() error {
		var img *Image
		var readTime time.Duration
		var err error
		if m.DstStore != nil {
			img, readTime, err = m.DstStore.LoadLazy(sid, floor)
		} else {
			img, err = m.Target.ImageAt(sid, floor)
		}
		if err != nil {
			return err
		}
		peers := m.tailPeers()
		for _, p := range peers {
			img.AddBlockPeer(p)
		}
		group, _, rerr := m.Dst.RestoreImage(img, readTime, RestoreOpts{Lazy: true, Name: m.Cfg.Name})
		if rerr != nil {
			return rerr
		}
		group.mu.Lock()
		group.generation = gen
		group.mu.Unlock()
		if m.DstStore != nil {
			m.Dst.Attach(group, m.DstStore)
		}
		for _, p := range peers {
			m.Dst.AddRestorePeer(group, p)
		}
		ng = group
		return nil
	})
	return ng, err
}

// tailPeers is the demand-paging peer set for the migrated group: the
// source store and the receiver.
func (m *Migrator) tailPeers() []BlockProvider {
	var peers []BlockProvider
	if m.SrcStore != nil {
		peers = append(peers, m.SrcStore.Store())
	}
	if bp, ok := m.Target.(BlockProvider); ok {
		peers = append(peers, bp)
	}
	return peers
}

// fenceSource marks the source group fenced at gen, adopts the fence
// into the source store (persisted best-effort), releases the group
// from the supervisor, and retires it — a no-op on whatever a dead
// source no longer has. Best-effort past the commit point: the target's
// higher generation already outranks anything a zombie source can claim.
func (m *Migrator) fenceSource(gen, floor uint64) {
	m.G.markFenced(gen, floor)
	if m.Sup != nil && !m.released {
		m.Sup.Release(m.G)
		m.released = true
	}
	if m.SrcStore != nil {
		m.SrcStore.Store().AdoptFence(m.sid(), gen)
		// The explicit lineage handoff: the source store renounces its
		// primary claim even if its fence already sat at gen.
		_ = m.SrcStore.Store().Handoff(m.lineage(), gen)
		_ = m.Src.syncWithReclaim(m.SrcStore)
	}
	m.Src.retire(m.G)
}

// abort rolls a failed handover back to the source. If the handover
// was announced the target may hold a fence at gen, so the source is
// re-minted at gen+1 — strictly above anything the target adopted —
// its fence cleared, and its store's primary claim re-persisted: the
// source remains the sole max-generation primary and resumes
// checkpointing. The original phase-tagged error is returned.
func (m *Migrator) abort(cause error, gen uint64, announced bool) error {
	if announced {
		remint := gen + 1
		m.G.remint(remint)
		if m.SrcStore != nil {
			_ = m.SrcStore.Store().SetPrimary(m.lineage(), remint)
			_ = m.Src.syncWithReclaim(m.SrcStore)
		}
		if m.DstStore != nil {
			// Best effort: a reachable target store learns it lost.
			m.DstStore.Store().AdoptFence(m.lineage(), remint)
		}
		if m.Sup != nil && m.released {
			m.Sup.Watch(m.G)
			m.released = false
		}
	}
	return cause
}

// remint raises the group's generation to gen and clears any fence
// below it: the rollback path of an aborted handover, where the source
// re-takes the line above the generation the dead target adopted.
func (g *Group) remint(gen uint64) {
	g.mu.Lock()
	if gen > g.generation {
		g.generation = gen
	}
	if g.fencedBy != 0 && g.fencedBy <= gen {
		g.fencedBy, g.fenceFloor = 0, 0
	}
	g.mu.Unlock()
}

// Abandon gives up on an aborted migration for good: the link backend
// is detached from the source group (when Start attached it), so the
// group's durability path stops degrading on a target that will never
// come back. The source itself was already rolled back by the abort
// path; a fresh Migrator (or the same one after Reconnect heals) can
// start over later. No-op on a migration that completed.
func (m *Migrator) Abandon() {
	if m.attachedLink {
		_ = m.Src.Detach(m.G, m.Link.Name())
		m.attachedLink = false
		m.started = false
	}
}

// StandbyRound keeps a hot standby warm: one workload step on the
// source, a checkpoint, convergence across the link, and a drain into
// the standby's store. The target is thus perpetually one barrier
// behind the source.
func (m *Migrator) StandbyRound(workload func() error) error {
	_, err := m.PreCopyRound(workload)
	return err
}

// PromoteStandby performs the unplanned handover after source death:
// no blackout — the source is gone — just fence, backfill, lazy
// restore, and primary claim on the target, measured as TTR on the
// target's clock. The source group, if its corpse is still reachable,
// is fenced, released and retired so a supervisor can never resurrect
// it.
func (m *Migrator) PromoteStandby() (*MigrateReport, error) {
	sid := m.sid()
	floor := m.Target.ContiguousEpoch(sid)
	if floor == 0 {
		return nil, m.fail(PhaseHandover, fmt.Errorf("core: standby holds no contiguous epoch for group %d: %w", sid, ErrNoImage))
	}
	newGen := m.mintGen()
	m.report.Gen = newGen
	m.report.Floor = floor
	m.report.PreCopied = floor
	m.Target.AdoptFence(sid, newGen)
	took, err := m.handover(floor, newGen, PhaseLazyTail)
	if err != nil {
		return nil, err
	}
	m.report.TTR = took
	rep := m.report
	return &rep, nil
}

// Report returns the migration counters accumulated so far (useful
// after an abort, where no MigrateReport is returned).
func (m *Migrator) Report() MigrateReport { return m.report }
