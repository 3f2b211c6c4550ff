package core

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// RestoreOpts selects the restore strategy.
type RestoreOpts struct {
	// Lazy restores memory by COW-sharing against the image: nothing
	// is copied; faults pull pages in on demand. Eager restores copy
	// every page up front.
	Lazy bool
	// Prefetch eagerly pages in the N hottest pages per object
	// (clock-derived warm-up). Only meaningful with Lazy.
	Prefetch int
	// Name labels the restored group.
	Name string
	// Validate runs a full integrity pre-pass before materializing:
	// every block the restore would touch is read and checked against
	// its manifest content hash. An epoch failing the check is
	// quarantined and Restore falls back to the newest good epoch.
	// Eager restores are hash-verified block by block even without
	// this flag; Validate additionally covers lazy restores (whose
	// pages would otherwise only be verified at first touch) and turns
	// corruption into an up-front fallback instead of a fault-time
	// failover.
	Validate bool
}

// RestoreImage recreates a persistence group from an image: the
// restored processes resume exactly where the barrier stopped them.
// It returns the new group and the Table 4 latency breakdown.
func (o *Orchestrator) RestoreImage(img *Image, readTime time.Duration, opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	st, err := img.resolve(o.K.Mem)
	if err != nil {
		return nil, RestoreBreakdown{Lazy: opts.Lazy, ObjectStoreRead: readTime}, err
	}
	defer st.unpin()
	return o.restoreState(img, st, readTime, opts)
}

// restoreState is RestoreImage from img's state as resolve read it:
// nothing here walks the chain again, and the frames it maps were
// pinned by that walk.
func (o *Orchestrator) restoreState(img *Image, st *chainState, readTime time.Duration, opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	clock := o.K.Clock
	costs := o.K.Costs
	bd := RestoreBreakdown{Lazy: opts.Lazy, ObjectStoreRead: readTime}
	fromStore := bd.ObjectStoreRead > 0
	total := clock.Watch()

	// --- Metadata state: recreate every kernel object ---
	metaSW := clock.Watch()
	meta := st.meta

	// VM object shells first: mappings and shm reference them.
	objMap := make(map[uint64]*vm.Object) // old vm ID -> new object
	for _, oldID := range st.objectIDs() {
		newest := st.objs[oldID]
		obj := o.K.Mem.NewObject(newest.name, newest.size)
		obj.SetTracked(true)
		objMap[oldID] = obj
	}
	lookupObj := func(id uint64) *vm.Object { return objMap[id] }

	// Pass 1: standalone IPC objects.
	type pendingUnix struct {
		sock *kernel.UnixSocket
		refs []uint64
	}
	var pendingUnixes []pendingUnix
	for _, m := range meta {
		var err error
		switch m.Kind {
		case kernel.KindContainer:
			_, err = o.K.RestoreContainer(m.Data)
		case kernel.KindPipe:
			_, err = o.K.RestorePipe(m.Data)
		case kernel.KindSocketPair:
			_, err = o.K.RestoreSocketPair(m.Data)
		case kernel.KindSysVShm:
			_, err = o.K.RestoreShm(m.Data, lookupObj)
		case kernel.KindSysVMsgQueue:
			_, err = o.K.RestoreMsgQueue(m.Data)
		}
		if err != nil {
			return nil, bd, fmt.Errorf("core: restoring %s %d: %w", m.Kind, m.OID, err)
		}
		clock.Advance(costs.ObjRestore)
	}
	// Unix sockets reference socket pairs, so they come second.
	// (Endpoint records, KindSockEnd, are rebuilt by their pairs and
	// need no action here.)
	for _, m := range meta {
		if m.Kind != kernel.KindUnixSocket {
			continue
		}
		sock, refs, err := o.K.RestoreUnixSocket(m.Data)
		if err != nil {
			return nil, bd, fmt.Errorf("core: restoring unix socket %d: %w", m.OID, err)
		}
		pendingUnixes = append(pendingUnixes, pendingUnix{sock, refs})
		clock.Advance(costs.ObjRestore)
	}
	for _, pu := range pendingUnixes {
		if err := o.K.PatchUnixBacklog(pu.sock, pu.refs); err != nil {
			return nil, bd, err
		}
	}

	// Pass 2: processes, threads, descriptor tables.
	type restoredProc struct {
		proc      *kernel.Process
		image     *kernel.ProcImage
		fdTabOID  uint64
		threadOID []uint64
	}
	var procs []restoredProc
	threadByOID := make(map[uint64]*kernel.Thread)
	fdTabByOID := make(map[uint64]*kernel.FDTableImage)
	fdImgByOID := make(map[uint64]*kernel.FDImage)
	for _, m := range meta {
		switch m.Kind {
		case kernel.KindThread:
			t, err := kernel.DecodeThreadImage(m.Data)
			if err != nil {
				return nil, bd, err
			}
			threadByOID[m.OID] = t
		case kernel.KindFDTable:
			ti, err := kernel.DecodeFDTable(m.Data)
			if err != nil {
				return nil, bd, err
			}
			fdTabByOID[m.OID] = ti
		case kernel.KindFileDesc:
			fi, err := kernel.DecodeFileDesc(m.Data)
			if err != nil {
				return nil, bd, err
			}
			fdImgByOID[m.OID] = fi
		}
	}
	for _, m := range meta {
		if m.Kind != kernel.KindProcess {
			continue
		}
		pi, err := kernel.DecodeProcess(m.Data)
		if err != nil {
			return nil, bd, err
		}
		p, err := o.K.RestoreProcess(pi, lookupObj)
		if err != nil {
			return nil, bd, err
		}
		procs = append(procs, restoredProc{proc: p, image: pi, fdTabOID: pi.FDTabOID, threadOID: pi.ThreadOID})
		clock.Advance(costs.ObjRestore)
	}
	// Threads and descriptor tables attach to their processes; shared
	// descriptions restore once and are shared across tables.
	builtDescs := make(map[uint64]*kernel.FileDesc)
	for _, rp := range procs {
		for _, toid := range rp.threadOID {
			if t, ok := threadByOID[toid]; ok {
				o.K.AttachThread(rp.proc, t)
			}
		}
		ti := fdTabByOID[rp.fdTabOID]
		if ti == nil {
			continue
		}
		entries := make(map[int]*kernel.FileDesc)
		for num, descOID := range ti.Entries {
			if fd, ok := builtDescs[descOID]; ok {
				entries[num] = kernel.ShareFileDesc(fd)
				continue
			}
			fi := fdImgByOID[descOID]
			if fi == nil {
				return nil, bd, fmt.Errorf("core: descriptor %d missing from image", descOID)
			}
			fd, err := o.buildFileDesc(fi)
			if err != nil {
				return nil, bd, err
			}
			builtDescs[descOID] = fd
			entries[num] = fd
		}
		o.K.PatchFDTable(rp.proc, entries)
	}
	metaCost := costs.RestoreMetaBase + storage.PerKPage(costs.RestoreMetaPerKPage, st.own)
	if fromStore {
		// Reading the store image implicitly restored some state.
		metaCost -= costs.ImplicitMetaCredit
	}
	clock.Advance(metaCost)
	bd.MetadataState = metaSW.Elapsed()
	bd.Objects = len(meta)

	// --- Memory state: rebuild the memory hierarchy ---
	memSW := clock.Watch()
	// Collect per-object sls_mctl restore-policy hints from the
	// restored mappings (RestoreEager wins over RestoreLazy when
	// mappings disagree: someone needs the pages resident).
	policies := make(map[*vm.Object]vm.RestorePolicy)
	for _, rp := range procs {
		for _, m := range rp.proc.Space.Mappings() {
			if m.Restore == vm.RestoreDefault {
				continue
			}
			if cur, ok := policies[m.Obj]; !ok || m.Restore == vm.RestoreEager && cur != vm.RestoreEager {
				policies[m.Obj] = m.Restore
			}
		}
	}
	// Mappings and shm segments take their own references: the
	// construction ones are dropped once memory is rebuilt (or the
	// restore is given up), so that the objects die — and return their
	// frames — with the last process that maps them.
	dropConstructionRefs := func() {
		for _, obj := range objMap {
			if obj.Deref() {
				obj.ReleaseAll(o.K.Mem)
			}
		}
	}
	resolvedPages := 0
	for oldID, obj := range objMap {
		effOpts := opts
		switch policies[obj] {
		case vm.RestoreEager:
			effOpts.Lazy = false
		case vm.RestoreLazy:
			effOpts.Lazy = true
		}
		n, err := o.restoreObjectMemory(img, st.objs[oldID], obj, effOpts, &bd)
		if err != nil {
			// Whoever retries this restore — on a fallback epoch, once
			// the device is back — must not find half a process here.
			for _, rp := range procs {
				o.K.Exit(rp.proc, 128)
				_ = o.K.Reap(rp.proc) // a zombie of this kernel: Reap cannot refuse
			}
			dropConstructionRefs()
			return nil, bd, err
		}
		resolvedPages += n
	}
	memCost := costs.RestoreMemBase + storage.PerKPage(costs.RestoreMemPerKPage, int64(resolvedPages))
	if fromStore {
		memCost -= costs.ImplicitMemCredit
	}
	clock.Advance(memCost)
	bd.MemoryState = memSW.Elapsed()
	bd.PagesRestored = resolvedPages
	dropConstructionRefs()

	// --- Resume ---
	name := opts.Name
	if name == "" {
		name = img.Name
	}
	// PID collisions during restore give processes fresh PIDs; patch
	// the parent links so the restored tree keeps its hierarchy.
	pidMap := make(map[int]int, len(procs))
	for _, rp := range procs {
		pidMap[rp.image.PID] = rp.proc.PID
	}
	for _, rp := range procs {
		if np, ok := pidMap[rp.proc.PPID]; ok {
			rp.proc.PPID = np
		}
		if np, ok := pidMap[rp.proc.PGID]; ok {
			rp.proc.PGID = np
		}
		if np, ok := pidMap[rp.proc.SID]; ok {
			rp.proc.SID = np
		}
	}

	o.mu.Lock()
	o.nextID++
	g := &Group{ID: o.nextID, Name: name, pids: make(map[int]bool)}
	// The lineage the image was persisted under: restores of this group
	// before it checkpoints on its own fall back to that chain. The
	// anchor epoch is the crash-loop fallback target; space reclamation
	// keeps it while this group lives.
	g.origin = img.Group
	g.originEpoch = img.Epoch
	// Anchor the group on the image it came from: rollback can reuse
	// it, and the next checkpoint (a fresh full one) starts a new
	// chain from this epoch.
	g.last = img
	g.epoch = img.Epoch
	g.durable = img.Epoch
	// Inherit the image's store generation (fencing token); images from
	// before generations existed restore at the base generation.
	g.generation = img.Gen
	if g.generation == 0 {
		g.generation = 1
	}
	o.groups[g.ID] = g
	for _, rp := range procs {
		g.pids[rp.proc.PID] = true
		o.pidGroup[rp.proc.PID] = g.ID
	}
	o.mu.Unlock()

	// Bind any fault-tolerant demand-paging sources the memory rebuild
	// created: their read faults now drive this group's health ladder.
	g.adoptSources(img.takeSources())

	for _, rp := range procs {
		if err := o.K.ResumeRestored(rp.proc, rp.image.ProgName, rp.image.ProgState); err != nil {
			return nil, bd, err
		}
	}
	bd.Total = total.Elapsed() + bd.ObjectStoreRead
	return g, bd, nil
}

// restoreObjectMemory rebuilds one VM object's pages. Four paths:
//
//   - in-memory image frames are COW-shared with the application (no
//     copies at all: the paper's memory restore);
//   - lazy restores of byte-backed images (loaded from the store or
//     the network) attach a page source, with clock-driven prefetch
//     of the hottest pages;
//   - images carrying a store page view (StoreBackend.LoadLazy) attach
//     a fault-tolerant demand-paging source that looks up, reads,
//     verifies, and — on primary failure — fails over each page to a
//     peer; nothing is done per page of the image; and
//   - eager restores copy everything up front.
//
// An eager restore materializes every page now; a page that cannot be
// — its fetch failed on the primary and every peer (ErrBackendDown), or
// memory ran out — fails the restore instead of leaving the process a
// zero page where its data was.
func (o *Orchestrator) restoreObjectMemory(img *Image, state *objectState, obj *vm.Object, opts RestoreOpts, bd *RestoreBreakdown) (int, error) {
	// A lazily loaded image stands alone (full, nothing under it, pages
	// in the store only), so its view shares no page with the two maps.
	frames, bytesPages, view := state.frames, state.bytes, state.view
	total := len(frames) + len(bytesPages) + view.Len()

	// Zero-copy memory state: share the image's frames under COW.
	for idx, f := range frames {
		obj.InstallSharedPage(o.K.Mem, idx, f)
	}
	bd.Shared += len(frames)

	if view.Len() > 0 && img.source != nil {
		// Store-resident pages: demand-page through the fault-tolerant
		// source (bounded retry, peer failover, read-repair).
		src := newLazyPageSource(o, img.source, view, bytesPages, img.peers)
		src.pinGroup, src.pinEpoch = img.Group, img.Epoch
		img.mu.Lock()
		img.sources = append(img.sources, src)
		img.mu.Unlock()
		if opts.Lazy {
			obj.SetSource(src)
			o.prefetchHottest(state.heat, obj, src, opts.Prefetch, bd)
		} else if idxs, err := view.Pages(); err != nil {
			// The view's epoch left the store since the load. Nothing
			// can be materialized; leave the source attached, so that a
			// fault reports it and no page quietly reads as zero.
			obj.SetSource(src)
		} else {
			// An eager mapping policy over a lazy image: materialize
			// everything now, through the failover path, so a sick
			// primary cannot abort the restore.
			for _, idx := range idxs {
				f, err := o.K.Mem.PageIn(src, idx)
				if err != nil {
					return total, fmt.Errorf("core: eager restore of object %q: page %d: %w", obj.Name, idx, err)
				}
				if f == nil {
					continue
				}
				obj.InsertPage(o.K.Mem, idx, f)
				o.K.Meter.ChargeCopy(1)
			}
		}
		return total, nil
	}

	if len(bytesPages) == 0 {
		return total, nil
	}
	if opts.Lazy {
		src := &imagePageSource{pages: bytesPages}
		obj.SetSource(src)
		o.prefetchHottest(state.heat, obj, src, opts.Prefetch, bd)
	} else {
		for idx, data := range bytesPages {
			f, err := o.K.Mem.AllocData(data)
			if err != nil {
				return total, fmt.Errorf("core: eager restore of object %q: page %d: %w", obj.Name, idx, err)
			}
			obj.InsertPage(o.K.Mem, idx, f)
			o.K.Meter.ChargeCopy(1)
		}
	}
	return total, nil
}

// prefetchHottest eagerly pages in the N hottest pages of one object
// from src, by its heat snapshot (clock-derived warm-up for lazy
// restores).
func (o *Orchestrator) prefetchHottest(heat []vm.PageHeat, obj *vm.Object, src vm.PageSource, n int, bd *RestoreBreakdown) {
	if n <= 0 {
		return
	}
	hot := vm.HottestPages(heat)
	if len(hot) > n {
		hot = hot[:n]
	}
	for _, idx := range hot {
		f, err := o.K.Mem.PageIn(src, idx)
		if errors.Is(err, vm.ErrOutOfMemory) {
			return
		}
		if f == nil {
			continue
		}
		obj.InsertPage(o.K.Mem, idx, f)
		bd.Prefetched++
	}
}

// buildFileDesc resolves one descriptor image, handling Aurora file
// system files (whose inodes live in the file system, not the kernel
// object table).
func (o *Orchestrator) buildFileDesc(fi *kernel.FDImage) (*kernel.FileDesc, error) {
	if fi.FileOID&fsInoBit != 0 && o.FS != nil {
		f, err := o.FS.OpenOrphan(fi.FileOID)
		if err != nil {
			return nil, fmt.Errorf("core: reattaching file inode %d: %w", fi.FileOID, err)
		}
		return o.K.BuildFileDescWith(fi, f), nil
	}
	return o.K.BuildFileDesc(fi)
}

// fsInoBit mirrors slsfs's inode tag bit.
const fsInoBit = uint64(1) << 62

// Restore loads the newest (or a specific) checkpoint from the first
// backend that can serve it and restores the group. In-memory images
// are preferred when present: they restore by COW-sharing frames with
// zero copies, the fastest path.
//
// "Newest" (epoch 0) means the newest *durable* epoch: the pipeline is
// drained first and epochs whose background flush failed are skipped,
// so a restore never lands on a checkpoint with a hole in its history
// (rollback-to-last-durable).
//
// Store-backed restores additionally validate and self-heal: an epoch
// whose blocks fail their manifest hashes (detected up front with
// opts.Validate, or mid-load on the eager path) is quarantined —
// durably, in the store — and Restore falls back to the newest
// non-quarantined epoch below it, walking down the chain until one
// restores cleanly. The breakdown reports the fallback
// (FallbackFrom/Quarantined) so callers can surface the rollback.
func (o *Orchestrator) Restore(g *Group, epoch uint64, opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	o.Drain(g)
	want := epoch
	if want == 0 {
		if d := g.Durable(); d > 0 {
			want = d
		}
	}
	all := g.Backends()
	backends := make([]Backend, 0, len(all))
	for _, b := range all {
		if b.Ephemeral() {
			backends = append(backends, b)
		}
	}
	for _, b := range all {
		if !b.Ephemeral() {
			backends = append(backends, b)
		}
	}
	// Out-of-band failover peers (e.g. netback replicas) registered on
	// the source group carry over to the restore's demand paging.
	g.mu.Lock()
	extraPeers := append([]BlockProvider(nil), g.restorePeers...)
	g.mu.Unlock()

	finish := func(b Backend, img *Image, readTime time.Duration, bdExtra func(*RestoreBreakdown)) (*Group, RestoreBreakdown, error) {
		// Snapshot the source group's quarantine ledger now — epochs
		// poisoned during this very restore must carry over too.
		ledger := g.Quarantined()
		// Peer wiring: every other backend (and registered out-of-band
		// peer) that can serve blocks by hash backs this image's
		// demand paging.
		for _, other := range backends {
			if other == b {
				continue
			}
			if bp, ok := other.(BlockProvider); ok {
				img.AddBlockPeer(bp)
			}
		}
		for _, p := range extraPeers {
			img.AddBlockPeer(p)
		}
		ng, bd, err := o.RestoreImage(img, readTime, opts)
		if err != nil {
			return nil, bd, err
		}
		// The restored group inherits the source group's backends,
		// failover peers, and quarantine ledger.
		for _, back := range backends {
			o.Attach(ng, back)
		}
		if len(extraPeers) > 0 {
			ng.mu.Lock()
			ng.restorePeers = append(ng.restorePeers, extraPeers...)
			ng.mu.Unlock()
		}
		if len(ledger) > 0 {
			ng.healthMu.Lock()
			if ng.quarantined == nil {
				ng.quarantined = make(map[uint64]string, len(ledger))
			}
			for ep, why := range ledger {
				ng.quarantined[ep] = why
			}
			ng.healthMu.Unlock()
		}
		if bdExtra != nil {
			bdExtra(&bd)
		}
		return ng, bd, nil
	}

	// Candidate lineage IDs: the group's own chain first; for a restored
	// group that never checkpointed on its own, the chain it came from.
	gids := []uint64{g.ID}
	if org := g.Origin(); org != 0 && org != g.ID {
		gids = append(gids, org)
	}

	var lastErr error = ErrNoBackend
	for _, b := range backends {
		sb, isStore := b.(*StoreBackend)
		if !isStore {
			var img *Image
			var readTime time.Duration
			var err error
			for _, gid := range gids {
				img, readTime, err = b.Load(gid, want)
				if err == nil {
					break
				}
			}
			if err != nil {
				lastErr = err
				continue
			}
			return finish(b, img, readTime, nil)
		}

		// Store backend: validation, quarantine, and epoch fallback,
		// searched per lineage chain.
		var fbFrom uint64
		quarCount := 0
		for _, gid := range gids {
			below := uint64(0) // exclusive upper bound for the fallback search
			tryExplicit := want != 0
			for {
				var ep uint64
				if tryExplicit {
					tryExplicit = false
					ep = want
					if _, err := sb.epochUsable(gid, ep); err != nil {
						lastErr = err
						if errors.Is(err, ErrEpochQuarantined) {
							fbFrom, quarCount, below = ep, quarCount+1, ep
							continue
						}
						if epoch == 0 && errors.Is(err, ErrNoImage) {
							// The caller asked for "the durable frontier",
							// not this exact epoch. Durability is a group
							// property — an epoch is durable once ANY
							// non-ephemeral backend holds it — so this
							// store's flush of it may still have been
							// deferred when the group died. Fall back to
							// the newest epoch this store does hold; the
							// suffix lives on whichever backend made it
							// durable (a replica serves it at promotion).
							if fbFrom == 0 {
								fbFrom = ep
							}
							below = ep
							continue
						}
						break // next chain / backend
					}
				} else {
					var err error
					ep, err = sb.latestGoodEpoch(gid, below)
					if err != nil {
						// Keep the quarantine error when that is why the
						// chain ran dry: "every epoch is poisoned" is the
						// actionable failure, not "no image".
						if quarCount == 0 {
							lastErr = err
						}
						break // chain exhausted: next chain / backend
					}
				}
				if opts.Validate {
					if verr := sb.Validate(gid, ep); verr != nil {
						o.quarantineEpoch(g, sb, gid, ep, verr)
						if fbFrom == 0 {
							fbFrom = ep
						}
						quarCount++
						lastErr = fmt.Errorf("%w: epoch %d of group %d: %w", ErrEpochQuarantined, ep, gid, verr)
						below = ep
						continue
					}
				}
				var img *Image
				var readTime time.Duration
				var err error
				if opts.Lazy {
					img, readTime, err = sb.LoadLazy(gid, ep)
				} else {
					img, readTime, err = sb.Load(gid, ep)
				}
				if err != nil {
					lastErr = err
					if errors.Is(err, objstore.ErrCorruptBlock) {
						// The eager read path hash-verifies every block:
						// corruption mid-load poisons the epoch and falls
						// back, exactly like a failed validation pre-pass.
						o.quarantineEpoch(g, sb, gid, ep, err)
						if fbFrom == 0 {
							fbFrom = ep
						}
						quarCount++
						lastErr = fmt.Errorf("%w: epoch %d of group %d: %w", ErrEpochQuarantined, ep, gid, err)
						below = ep
						continue
					}
					break // next chain / backend
				}
				if ep != want && fbFrom == 0 {
					fbFrom = want
				}
				return finish(b, img, readTime, func(bd *RestoreBreakdown) {
					bd.FallbackFrom = fbFrom
					bd.Quarantined = quarCount
					bd.Validated = opts.Validate
				})
			}
		}
	}
	return nil, RestoreBreakdown{}, lastErr
}

// imagePageSource adapts a resolved image to vm.PageSource for lazy
// restores.
type imagePageSource struct {
	pages map[int64][]byte
}

// FetchInto implements vm.PageSource.
func (s *imagePageSource) FetchInto(idx int64, dst []byte) (bool, error) {
	d, ok := s.pages[idx]
	if ok {
		clear(dst[copy(dst, d):])
	}
	return ok, nil
}

// HasPage implements vm.PageSource.
func (s *imagePageSource) HasPage(idx int64) bool {
	_, ok := s.pages[idx]
	return ok
}

// Pages implements vm.PageSource.
func (s *imagePageSource) Pages() []int64 {
	out := make([]int64, 0, len(s.pages))
	for idx := range s.pages {
		out = append(out, idx)
	}
	return out
}
