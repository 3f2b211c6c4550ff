package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// This file implements the libsls developer API of Table 2:
//
//	sls_checkpoint()  -> API.Checkpoint
//	sls_restore()     -> API.Restore
//	sls_rollback()    -> API.Rollback
//	sls_ntflush()     -> API.NTFlush
//	sls_barrier()     -> API.Barrier
//	sls_mctl()        -> API.Mctl
//	sls_fdctl()       -> API.Fdctl
//
// Calls are made on behalf of a process, exactly as the real library
// issues ioctls against /dev/sls from inside the application.

// API errors.
var (
	ErrNoNTLog = errors.New("core: group has no store backend for the NT log")
)

// API is the developer-facing Aurora library surface.
type API struct {
	O *Orchestrator
}

// NewAPI wraps an orchestrator.
func NewAPI(o *Orchestrator) *API { return &API{O: o} }

// group resolves the caller's persistence group.
func (a *API) group(p *kernel.Process) (*Group, error) {
	g, ok := a.O.GroupOfProcess(p.PID)
	if !ok {
		return nil, ErrNotPersisted
	}
	return g, nil
}

// Checkpoint implements sls_checkpoint(): create an image of the
// caller's group. The checkpoint is incremental unless the group has
// never taken a full one.
func (a *API) Checkpoint(p *kernel.Process, name string) (CheckpointBreakdown, error) {
	g, err := a.group(p)
	if err != nil {
		return CheckpointBreakdown{}, err
	}
	return a.O.Checkpoint(g, CheckpointOpts{Name: name})
}

// CheckpointFull forces a full checkpoint.
func (a *API) CheckpointFull(p *kernel.Process, name string) (CheckpointBreakdown, error) {
	g, err := a.group(p)
	if err != nil {
		return CheckpointBreakdown{}, err
	}
	return a.O.Checkpoint(g, CheckpointOpts{Name: name, Full: true})
}

// Restore implements sls_restore(): recreate a group from its newest
// checkpoint (epoch 0) or a specific epoch.
func (a *API) Restore(g *Group, epoch uint64, opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	return a.O.Restore(g, epoch, opts)
}

// Rollback implements sls_rollback(): discard the group's current
// execution and resume from its most recent checkpoint. The old
// processes are killed; the restored group takes over. The returned
// notice lets applications take a more conservative path after a
// rollback, as the paper's speculation use case requires.
func (a *API) Rollback(p *kernel.Process) (*Group, *RollbackNotice, error) {
	g, err := a.group(p)
	if err != nil {
		return nil, nil, err
	}
	// Settle in-flight flushes: rollback walks the image chain, which
	// must not be mutated under us by background retirement.
	a.O.Drain(g)
	img := g.LastImage()
	if img != nil && !img.Released() && !img.Resolvable() {
		// A barrier taken with SkipFlush (a speculation point) on top of
		// history whose frames already went back to the allocator: only
		// a backend can resolve it now, so it has to get there first.
		if err := a.O.Sync(g); err != nil {
			return nil, nil, err
		}
	}
	var readTime time.Duration
	if img == nil || img.Released() {
		// Fall back to a backend image.
		for _, b := range g.Backends() {
			if li, rt, err := b.Load(g.ID, 0); err == nil {
				img, readTime = li, rt
				break
			}
		}
	}
	if img == nil {
		return nil, nil, ErrNoImage
	}

	// Kill the current incarnation.
	for _, pid := range g.PIDs() {
		if proc, err := a.O.K.Process(pid); err == nil {
			a.O.K.Exit(proc, 128)
			a.O.K.Reap(proc)
		}
	}
	backends := g.Backends()
	ng, _, err := a.O.RestoreImage(img, readTime, RestoreOpts{Lazy: true, Name: g.Name})
	// The old group goes only now: dissolving it lets go of every image a
	// sick backend still owed, and img may be one of them — the restore
	// has taken its own references to the frames.
	a.O.Unpersist(g)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range backends {
		a.O.Attach(ng, b)
	}
	notice := &RollbackNotice{FromEpoch: g.Epoch(), ToEpoch: img.Epoch, Group: ng.ID}
	ng.mu.Lock()
	ng.epoch = img.Epoch
	ng.durable = img.Epoch
	ng.mu.Unlock()
	rollbacks.Add(1)
	return ng, notice, nil
}

// rollbacks counts rollbacks for diagnostics.
var rollbacks atomic.Int64

// RollbackCount reports the process-wide rollback counter.
func RollbackCount() int64 { return rollbacks.Load() }

// RollbackNotice informs the application that execution was rolled
// back, so it can retry along a more conservative path.
type RollbackNotice struct {
	FromEpoch uint64
	ToEpoch   uint64
	Group     uint64
}

// String formats the notice.
func (n *RollbackNotice) String() string {
	return fmt.Sprintf("rolled back from epoch %d to %d (group %d)", n.FromEpoch, n.ToEpoch, n.Group)
}

// Barrier implements sls_barrier(): block the caller until the group's
// current checkpoint epoch is durable on every backend. This drains
// the background flush pipeline (retrying failed epochs inline and
// surfacing their errors) and flushes any image checkpointed with
// SkipFlush.
func (a *API) Barrier(p *kernel.Process) error {
	g, err := a.group(p)
	if err != nil {
		return err
	}
	return a.O.Sync(g)
}

// NTFlush implements sls_ntflush(): a low-latency non-temporal append
// of application data to the group's persistent log, outside the
// checkpoint path. Databases use it as a write-ahead log replacement;
// after a crash, NTEntries returns the records appended since the
// last checkpoint so the application can repair its structures.
func (a *API) NTFlush(p *kernel.Process, data []byte) error {
	g, err := a.group(p)
	if err != nil {
		return err
	}
	store := a.storeOf(g)
	if store == nil {
		return ErrNoNTLog
	}
	g.mu.Lock()
	g.ntSeq++
	seq := g.ntSeq
	g.mu.Unlock()
	_, err = store.PutRecord(g.ID, ntLogOID(g.ID), seq, uint16(kernel.KindNTLog), false, data, nil, nil)
	return err
}

// NTEntries returns the NT-log records of a group appended after the
// given epoch's checkpoint (pass 0 for all), oldest first.
func (a *API) NTEntries(g *Group) ([][]byte, error) {
	store := a.storeOf(g)
	if store == nil {
		return nil, ErrNoNTLog
	}
	recs := store.RecordsOf(g.ID, ntLogOID(g.ID))
	out := make([][]byte, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Meta)
	}
	return out, nil
}

// NTTruncate discards NT-log records up to and including seq — called
// after a checkpoint subsumes them.
func (a *API) NTTruncate(g *Group, seq uint64) error {
	store := a.storeOf(g)
	if store == nil {
		return ErrNoNTLog
	}
	for _, r := range store.RecordsOf(g.ID, ntLogOID(g.ID)) {
		if r.Epoch <= seq {
			store.DeleteRecord(g.ID, ntLogOID(g.ID), r.Epoch)
		}
	}
	return nil
}

// NTSeq returns the group's NT-log sequence counter.
func (a *API) NTSeq(g *Group) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ntSeq
}

func ntLogOID(group uint64) uint64 { return (uint64(1) << 61) | group }

// storeOf finds the group's first store backend.
func (a *API) storeOf(g *Group) *objstore.Store {
	for _, b := range g.Backends() {
		if sb, ok := b.(*StoreBackend); ok {
			return sb.Store()
		}
	}
	return nil
}

// Mctl implements sls_mctl(): include or exclude the memory mapping
// containing addr from checkpoints.
func (a *API) Mctl(p *kernel.Process, addr vm.Addr, include bool) error {
	g, err := a.group(p)
	if err != nil {
		return err
	}
	m := p.Space.Find(addr)
	if m == nil {
		return vm.ErrNoMapping
	}
	m.NoPersist = !include
	if !include {
		g.mu.Lock()
		g.excluded++
		g.mu.Unlock()
	}
	return nil
}

// MctlPolicy sets the mapping's lazy-restore hint (the second half of
// sls_mctl): eager for latency-critical regions, lazy for cold bulk
// data. The policy travels with the checkpoint and steers the restore.
func (a *API) MctlPolicy(p *kernel.Process, addr vm.Addr, policy vm.RestorePolicy) error {
	if _, err := a.group(p); err != nil {
		return err
	}
	m := p.Space.Find(addr)
	if m == nil {
		return vm.ErrNoMapping
	}
	m.Restore = policy
	return nil
}

// Fdctl implements sls_fdctl(): enable or disable external consistency
// on a descriptor.
func (a *API) Fdctl(p *kernel.Process, fd int, ext bool) error {
	if _, err := a.group(p); err != nil {
		return err
	}
	return a.O.K.FDCtl(p, fd, ext)
}
