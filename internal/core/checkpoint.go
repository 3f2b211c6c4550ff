package core

import (
	"fmt"
	"sort"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// CheckpointOpts selects the checkpoint mode.
type CheckpointOpts struct {
	// Name labels the checkpoint for later `sls restore`.
	Name string
	// Full captures every resident page; otherwise only pages dirtied
	// since the previous barrier are captured (incremental). The first
	// checkpoint of a group is always full.
	Full bool
	// SkipFlush leaves the image in memory only (used by rollback
	// points and speculation; the image is still retained in g.last).
	SkipFlush bool
}

// Checkpoint runs a serialization barrier over the group: stop every
// member, copy metadata, apply COW tracking (the "lazy data copy"),
// resume, and hand the immutable image to the group's background
// flusher. It returns the stop-time breakdown of Table 3 as soon as
// the group is running again — before the flush completes. Durability
// (g.Durable, and with it Released()/external consistency) advances
// only when the flusher retires the epoch on every backend; callers
// needing the old synchronous behavior follow up with Orchestrator.Sync.
// The breakdown's FlushTime is zero here and is patched into
// g.Breakdowns() when the epoch retires.
func (o *Orchestrator) Checkpoint(g *Group, opts CheckpointOpts) (CheckpointBreakdown, error) {
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()

	clock := o.K.Clock
	costs := o.K.Costs

	g.mu.Lock()
	epoch := g.epoch + 1
	full := opts.Full || !g.everFull
	prev := g.last
	gen := g.generation
	fencedBy := g.fencedBy
	g.mu.Unlock()

	// A fenced group is a stale primary: a store or replica rejected
	// its generation because a promotion or migration handover
	// superseded it. Refusing the barrier up front — before even
	// looking at the member set, so a reaped zombie gets the same
	// verdict — keeps it from minting epochs no backend will ever
	// accept; the operator demotes it to catch-up resync instead.
	if fencedBy != 0 {
		return CheckpointBreakdown{}, fmt.Errorf(
			"core: group %d generation %d fenced by generation %d: %w",
			g.ID, gen, fencedBy, ErrStaleGeneration)
	}

	members := o.members(g)
	if len(members) == 0 {
		return CheckpointBreakdown{}, fmt.Errorf("core: group %d has no live processes", g.ID)
	}

	// Admission control: under space pressure shedding this barrier
	// beats minting an epoch no device can hold. The caller sees
	// Shed=true and no error; the process group keeps running on its
	// current epoch.
	if shed, sbd := o.admitCheckpoint(g); shed {
		return sbd, nil
	}

	bd := CheckpointBreakdown{Epoch: epoch, Full: full}
	total := clock.Watch()

	// --- Stop phase: serialization barrier across the whole group ---
	for _, p := range members {
		o.K.StopProcess(p)
	}

	// --- Metadata copy ---
	metaSW := clock.Watch()
	meta, roots, err := o.serializeMetadata(members)
	if err != nil {
		o.resumeAll(members)
		return bd, err
	}
	// Charge the modeled metadata walk: fixed barrier cost plus the
	// per-page VM layout descriptors.
	resident := int64(0)
	objs := o.trackedObjects(members)
	for _, to := range objs {
		resident += int64(to.obj.ResidentCount())
	}
	clock.Advance(costs.CkptMetaBase + storage.PerKPage(costs.CkptMetaPerKPage, resident))
	bd.MetadataCopy = metaSW.Elapsed()
	bd.Objects = len(meta)
	bd.MetaBytes = metaBytes(meta)

	// --- Lazy data copy: COW-protect, no data movement ---
	dataSW := clock.Watch()
	pteBefore := o.K.Meter.PTEOps.Load()
	memory := make(map[uint64]*MemImage, len(objs))
	for _, to := range objs {
		cs := to.obj.BeginCheckpoint(epoch, full)
		for _, space := range to.spaces {
			space.ProtectObject(to.obj, cs.Pages)
		}
		mi := &MemImage{
			ObjID: to.obj.ID,
			Name:  to.obj.Name,
			Size:  to.obj.Size(),
			Pages: cs.Pages,
			Heat:  cs.Heat,

			capture:   cs.Capture,
			midstates: g.midstatesOf(to.obj.ID),
		}
		memory[to.obj.ID] = mi
		// A page the object does not hold — never faulted in, or evicted
		// clean — is held by name in the source it pages from.
		inherit, _ := cs.Source.(*lazyPageSource) // restores and re-points attach no other kind
		mi.Inherit = inherit.beneath(cs.Pages, nil)
		bd.PagesCaptured += len(cs.Pages)
	}
	g.dropMidstates(memory)
	clock.Advance(costs.ProtectBase)
	bd.PTEOps = o.K.Meter.PTEOps.Load() - pteBefore
	bd.LazyDataCopy = dataSW.Elapsed()

	// --- Resume: the application runs again ---
	o.resumeAll(members)
	bd.StopTime = total.Elapsed()

	img := &Image{
		Group:  g.ID,
		Epoch:  epoch,
		Gen:    gen,
		Name:   opts.Name,
		Full:   full,
		Meta:   meta,
		Memory: memory,
		Roots:  roots,
	}
	if !full {
		img.Prev = prev
	}

	// --- Asynchronous flush: hand off to the pipeline and return ---
	g.mu.Lock()
	g.epoch = epoch
	g.everFull = g.everFull || full
	g.last = img
	bdIdx := len(g.ckpts)
	g.ckpts = append(g.ckpts, bd)
	if !opts.SkipFlush {
		g.lastQueued = epoch
	}
	g.mu.Unlock()

	if !opts.SkipFlush {
		// Blocks only when the bounded queue is full: backpressure
		// against checkpointing faster than the backends can flush.
		o.flusherOf(g).Enqueue(img, bdIdx)
	}
	return bd, nil
}

// admitCheckpoint decides whether a barrier may proceed. It sheds the
// barrier — no stop, no epoch, no capture — when a reclaimer-equipped
// store backend sits above the high watermark even after a reclaim
// scan. Shedding lowers checkpoint *frequency*, not durability: a shed
// streak is capped (ShedAdmitEvery) so the durable frontier keeps
// advancing, and shedding never touches g.durable. With no reclaimer
// attached this is a no-op, preserving the exact legacy checkpoint
// cadence.
func (o *Orchestrator) admitCheckpoint(g *Group) (bool, CheckpointBreakdown) {
	var recs []*Reclaimer
	for _, b := range g.Backends() {
		if sb, ok := b.(*StoreBackend); ok && sb.rec != nil {
			recs = append(recs, sb.rec)
		}
	}
	if len(recs) == 0 {
		return false, CheckpointBreakdown{}
	}

	pressured, emergency := false, false
	for _, r := range recs {
		if r.Level() < PressureHigh {
			continue
		}
		// Reclaim before shedding: dropping history is strictly better
		// than dropping a checkpoint.
		r.Scan()
		if lvl := r.Level(); lvl >= PressureHigh {
			pressured = true
			if lvl == PressureEmergency {
				emergency = true
			}
		}
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if !pressured {
		g.shedStreak = 0
		return false, CheckpointBreakdown{}
	}
	admitEvery := o.ShedAdmitEvery
	if admitEvery <= 0 {
		admitEvery = defaultShedAdmitEvery
	}
	g.shedStreak++
	if g.shedStreak >= admitEvery {
		// Coalesce, don't starve: every Nth barrier goes through even
		// under sustained pressure so durability still advances.
		g.shedStreak = 0
		return false, CheckpointBreakdown{}
	}
	g.sheds++
	if emergency {
		g.emergencySheds++
	}
	bd := CheckpointBreakdown{Epoch: g.epoch, Shed: true}
	g.ckpts = append(g.ckpts, bd)
	return true, bd
}

// flushImage brings every backend up to the head, under the
// per-backend health state machine (health.go), through handOut: each
// is handed the retired epochs of the window it still owes, then the
// head, all of them at once; a healthy backend that fails retries with
// backoff and then degrades, leaving the epoch owed. The epoch succeeds
// — and may retire — as long as at least one healthy non-ephemeral
// backend accepted it (degraded durability mode); with only ephemeral
// backends attached, any successful flush suffices, and a group with no
// backends trivially succeeds as before. Only the flusher calls it, as
// the window's reader.
//
// The modeled time is the read of the pages the images hold by name
// that some backend lacks, then the slowest backend, then the
// file-system snapshot that pins file state to the same generation.
// Each lane-capable backend charges its I/O to a detached clock lane,
// so a background flush overlaps the group's execution instead of
// stalling the foreground virtual timeline; a foreground (synchronous)
// caller merges the flush time back into the kernel clock.
//
// Background flushes dispatched by the fleet pass their shard worker's
// flush lane as base, so consecutive flushes on a busy worker model
// device queueing instead of all starting at the foreground time. A nil
// base is a foreground caller: the kernel clock.
func (o *Orchestrator) flushImage(g *Group, window []*flushJob, img *Image, base *storage.Clock) (time.Duration, error) {
	backends := g.Backends()
	clock := o.K.Clock
	background := base != nil
	if !background {
		base = clock
	}
	start := clock.Now()
	outs := make([]outcome, len(backends))
	read := o.handOut(g, backends, window, img, !background, base, outs)

	var worst time.Duration
	var firstErr error
	nonEph, okAny := 0, false
	var okDurs []time.Duration // non-ephemeral success latencies
	var ephWorst time.Duration // slowest ephemeral/cache flush
	for i, b := range backends {
		out := outs[i]
		if out.dur > worst {
			worst = out.dur
		}
		if !b.Ephemeral() {
			nonEph++
		}
		switch {
		case out.err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("core: flushing to %s: %w", b.Name(), out.err)
			}
		case b.Ephemeral():
			okAny = true
			ephWorst = max(ephWorst, out.dur)
		default:
			okAny = true
			okDurs = append(okDurs, out.dur)
		}
	}
	if q, ok := g.Quorum(); ok && nonEph > 0 {
		// Quorum durability: the epoch retires once W non-ephemeral
		// backends acked it; stragglers catch up from the window. The
		// modeled latency is the W-th fastest ack — a slow minority no
		// longer sets the pace — floored by any ephemeral cache flush
		// (those always complete before the barrier lifts).
		need := QuorumNeed(q.W, nonEph)
		if len(okDurs) < need {
			err := fmt.Errorf("core: epoch %d of group %d: %d of %d non-ephemeral acks (need %d): %w",
				img.Epoch, g.ID, len(okDurs), nonEph, need, ErrQuorumLost)
			if firstErr != nil {
				err = fmt.Errorf("%w: %w", err, firstErr)
			}
			return 0, err
		}
		sort.Slice(okDurs, func(i, j int) bool { return okDurs[i] < okDurs[j] })
		worst = max(okDurs[need-1], ephWorst)
	} else if len(backends) > 0 && len(okDurs) == 0 && !(okAny && nonEph == 0) {
		// No durable backend holds the epoch: it must not retire.
		if firstErr == nil {
			firstErr = fmt.Errorf("core: epoch %d of group %d: %w", img.Epoch, g.ID, ErrBackendDown)
		}
		return 0, firstErr
	}
	worst += read
	// Keep file state in the same store generation as process state.
	if o.FS != nil {
		lane := base.Lane()
		sw := lane.Watch()
		if _, err := o.FS.SnapshotOn(o.FS.Store().WithClock(lane), ""); err != nil {
			return worst, fmt.Errorf("core: file system snapshot: %w", err)
		}
		worst += sw.Elapsed()
	}
	if !background {
		clock.AdvanceTo(start + worst)
	}
	return worst, nil
}

func (o *Orchestrator) resumeAll(members []*kernel.Process) {
	for _, p := range members {
		o.K.ResumeProcess(p)
	}
}

// trackedObject pairs a VM object with the member spaces mapping it.
type trackedObject struct {
	obj    *vm.Object
	spaces []*vm.AddressSpace
}

// midstatesOf returns the group's midstate table for object id, made
// the first time a barrier tracks the object. The caller holds ckptMu.
func (g *Group) midstatesOf(id uint64) *midstateTable {
	t := g.midstates[id]
	if t == nil {
		if g.midstates == nil {
			g.midstates = make(map[uint64]*midstateTable)
		}
		t = new(midstateTable)
		g.midstates[id] = t
	}
	return t
}

// dropMidstates lets go of the tables of objects a barrier no longer
// tracked: memory is what it captured. The caller holds ckptMu.
func (g *Group) dropMidstates(memory map[uint64]*MemImage) {
	if len(g.midstates) == len(memory) {
		return
	}
	for id := range g.midstates {
		if _, ok := memory[id]; !ok {
			delete(g.midstates, id)
		}
	}
}

// trackedObjects collects the distinct persistable VM objects across
// the group, honoring sls_mctl exclusions.
func (o *Orchestrator) trackedObjects(members []*kernel.Process) []*trackedObject {
	index := make(map[uint64]*trackedObject)
	var order []uint64
	for _, p := range members {
		for _, m := range p.Space.Mappings() {
			if m.NoPersist {
				continue
			}
			to, ok := index[m.Obj.ID]
			if !ok {
				to = &trackedObject{obj: m.Obj}
				index[m.Obj.ID] = to
				order = append(order, m.Obj.ID)
			}
			already := false
			for _, s := range to.spaces {
				if s == p.Space {
					already = true
					break
				}
			}
			if !already {
				to.spaces = append(to.spaces, p.Space)
			}
		}
	}
	out := make([]*trackedObject, 0, len(order))
	for _, id := range order {
		out = append(out, index[id])
	}
	return out
}

// serializeMetadata walks the group's kernel object graph, invoking
// each object's own serialization code.
func (o *Orchestrator) serializeMetadata(members []*kernel.Process) ([]MetaRec, []uint64, error) {
	var meta []MetaRec
	var roots []uint64
	seen := make(map[uint64]bool)
	costs := o.K.Costs
	clock := o.K.Clock

	add := func(obj kernel.Object) {
		if obj == nil || seen[obj.OID()] {
			return
		}
		seen[obj.OID()] = true
		e := kernel.NewEncoder()
		obj.EncodeTo(e)
		meta = append(meta, MetaRec{OID: obj.OID(), Kind: obj.Kind(), Data: e.Bytes()})
		clock.Advance(costs.ObjSerialize + time.Duration(e.Len())*costs.ObjSerializeByte)
	}

	containers := make(map[int]bool)
	for _, p := range members {
		add(p)
		roots = append(roots, p.OID())
		for _, t := range p.Threads {
			add(t)
		}
		add(p.FDs)
		for _, fd := range p.FDs.Descs() {
			add(fd)
			switch f := fd.File.(type) {
			case *kernel.SockEnd:
				// Endpoints serialize through their parent; record
				// both so descriptor references resolve.
				add(f)
				if parent, ok := o.K.Lookup(f.ParentOID()); ok {
					add(parent)
				}
			case *kernel.UnixSocket:
				// Listeners carry their backlog: queued, unaccepted
				// connections are application state too.
				add(f)
				for _, sp := range f.Backlog() {
					add(sp)
				}
			case kernel.Object:
				add(f)
			}
		}
		containers[p.Container] = true
	}
	for id := range containers {
		if c, ok := o.K.Container(id); ok {
			add(c)
		}
	}
	// System V objects visible to the group: shared memory segments
	// mapped by a member, and message queues (global by key).
	memberSpaces := make(map[*vm.AddressSpace]bool)
	for _, p := range members {
		memberSpaces[p.Space] = true
	}
	for _, seg := range o.K.ShmSegments() {
		for _, p := range members {
			mapped := false
			for _, m := range p.Space.Mappings() {
				if m.Obj == seg.Obj {
					mapped = true
					break
				}
			}
			if mapped {
				add(seg)
				break
			}
		}
	}
	for _, q := range o.K.MsgQueues() {
		add(q)
	}
	return meta, roots, nil
}

func metaBytes(meta []MetaRec) int {
	n := 0
	for _, m := range meta {
		n += len(m.Data)
	}
	return n
}
