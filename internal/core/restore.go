package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"aurora/internal/kernel"
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

// RestoreImage recreates a persistence group from an image, opened by
// itself (Epoch.Restore): the restored processes resume exactly where
// the barrier stopped them. It returns the new group and the Table 4
// latency breakdown.
func (o *Orchestrator) RestoreImage(img *Image, readTime time.Duration, opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	e, err := (&Epoch{o: o}).read(o.K.Mem, img, nil, readTime, opts.Prefetch > 0)
	if err != nil {
		return nil, RestoreBreakdown{Lazy: opts.Lazy, ObjectStoreRead: readTime}, err
	}
	defer e.Close()
	return e.Restore(opts)
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
	for _, oldID := range objectOrder(st.objs) {
		newest := st.objs[oldID]
		objMap[oldID] = o.K.Mem.NewObject(newest.Name, newest.Size)
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
	var sources []*lazyPageSource
	for oldID, obj := range objMap {
		effOpts := opts
		switch policies[obj] {
		case vm.RestoreEager:
			effOpts.Lazy = false
		case vm.RestoreLazy:
			effOpts.Lazy = true
		}
		state := st.objs[oldID]
		resolvedPages += state.PageCount()
		src, err := o.restoreObjectMemory(state, obj, effOpts, &bd)
		if src != nil && src.sb != nil {
			sources = append(slices.Grow(sources, len(objMap)-len(sources)), src) // one allocation
		}
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

	// The store sources the memory rebuild attached are the group's: their
	// read faults drive its health ladder, and it pins their epochs.
	for _, s := range sources {
		s.bind(g)
	}
	g.mu.Lock()
	g.sources = sources
	g.mu.Unlock()

	for _, rp := range procs {
		if err := o.K.ResumeRestored(rp.proc, rp.image.ProgName, rp.image.ProgState); err != nil {
			return nil, bd, err
		}
	}
	bd.Total = total.Elapsed() + bd.ObjectStoreRead
	return g, bd, nil
}

// restoreObjectMemory rebuilds one VM object's pages. Its frames are
// COW-shared with the application (no copies at all: the paper's memory
// restore); every other page comes through the one source it returns
// (lazyPageSource). A lazy restore attaches it, with clock-driven
// prefetch of the hottest pages. An eager one pages every page in now,
// and a page that cannot be — its fetch failed on the primary and every
// peer (ErrBackendDown), or memory ran out — fails the restore instead of
// leaving the process a zero page where its data was.
func (o *Orchestrator) restoreObjectMemory(state *MemImage, obj *vm.Object, opts RestoreOpts, bd *RestoreBreakdown) (*lazyPageSource, error) {
	for _, p := range state.Pages {
		obj.InstallSharedPage(o.K.Mem, p.Idx, p.Frame)
	}
	bd.Shared += len(state.Pages)

	if state.Inherit == nil {
		return nil, nil
	}
	src := state.Inherit.claim(o)
	view := src.pinEpoch // a view of every page: each may leave memory again
	if len(state.Pages) > 0 {
		view = 0 // frames hold some pages, the view older bytes of them
	}
	if opts.Lazy {
		obj.SetSource(src, view)
		o.prefetchHottest(state.Heat, obj, src, opts.Prefetch, bd)
		return src, nil
	}
	pages, err := src.pages()
	if err != nil {
		// The view's epoch left the store since the load. Nothing can be
		// materialized; the source stays attached, so that a fault
		// reports it and no page quietly reads as zero.
		obj.SetSource(src, view)
		return src, nil
	}
	// Eager: every page now, a store page through the failover path, so
	// a sick primary cannot abort the restore.
	for _, p := range pages {
		idx := p.Idx
		if _, shared := vm.SearchRun(state.Pages, idx, pageIdx); shared {
			continue
		}
		f, err := src.PageIn(o.K.Mem, idx)
		if err != nil {
			return src, fmt.Errorf("core: eager restore of object %q: page %d: %w", obj.Name, idx, err)
		}
		if f != nil {
			obj.InsertPage(o.K.Mem, idx, f)
			o.K.Meter.ChargeCopy(1)
		}
	}
	return src, nil
}

// prefetchHottest eagerly pages in the N hottest pages of one object
// from src, by its resolved heat (clock-derived warm-up for lazy
// restores). Each page it installs is a copy, charged as the eager
// restore charges it.
func (o *Orchestrator) prefetchHottest(heat []vm.PageHeat, obj *vm.Object, src vm.PageSource, n int, bd *RestoreBreakdown) {
	if n <= 0 {
		return
	}
	hot := vm.HottestPages(heat)
	if len(hot) > n {
		hot = hot[:n]
	}
	for _, idx := range hot {
		f, err := src.PageIn(o.K.Mem, idx)
		if errors.Is(err, vm.ErrOutOfMemory) {
			return
		}
		if f == nil {
			continue
		}
		obj.InsertPage(o.K.Mem, idx, f)
		o.K.Meter.ChargeCopy(1)
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

// Restore recreates g's newest durable checkpoint (epoch 0) or a
// specific epoch as a new group: Open (which chooses the holder and
// validates, quarantines and falls back), Epoch.Restore, Close. The
// breakdown reports a fallback so callers can surface the rollback.
func (o *Orchestrator) Restore(g *Group, epoch uint64, opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	e, err := o.open(g, epoch, opts, opts.Prefetch > 0)
	if err != nil {
		return nil, RestoreBreakdown{}, err
	}
	defer e.Close()
	return e.Restore(opts)
}
