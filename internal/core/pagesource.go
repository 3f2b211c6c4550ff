package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file implements fault-tolerant demand paging for lazy restores
// and for pages evicted under memory pressure (Orchestrator.Repoint):
// the read-side twin of the flush pipeline's self-healing (health.go).
// Such an object pages from its primary store through a
// lazyPageSource; a faulted read retries with bounded backoff, fails
// over to any peer holding the same content hash (a second store, a
// netback replica), and writes pages served by a peer back onto the
// primary (read-repair). Read failures feed the same per-backend
// health ladder the flush pipeline uses, so a store that cannot serve
// reads degrades for writers too.

// BlockProvider serves verified block contents by content hash. Any
// peer backend of a group holds bit-identical blocks under the same
// hashes (dedup keys are content hashes), so any of them can stand in
// for a failed primary during demand paging. *objstore.Store and
// netback's Receiver implement it.
type BlockProvider interface {
	FetchBlock(h objstore.Hash) ([]byte, bool)
}

// Demand-paging retry policy: small, because a faulting thread is
// stalled while we retry — failover to a peer beats waiting out a sick
// device. Backoff is charged to a detached clock lane (the repair
// effort is not the application's foreground time).
const (
	lazyReadRetries = 2
	lazyBackoffBase = 50 * time.Microsecond
)

// RecoveryStats aggregates a group's demand-paging repair effort.
type RecoveryStats struct {
	Failovers     int64 // pages served by a peer after the primary failed
	PagesRepaired int64 // peer pages written back onto the primary
	Retries       int64 // extra primary read attempts
}

// lazyPageSource implements vm.PageSource for an object's pages that are
// not frames: a run of bytes (a store Load's, a rollback's), in front of
// an object store's pages at one epoch, found through its live page view
// and read with bounded retry, peer failover, and read-repair. An image
// holds every page that is not a frame in one (MemImage.Inherit).
type lazyPageSource struct {
	bytes []objstore.PageBytes // in ascending page index; immutable: shared with the images they came from

	o    *Orchestrator // the one whose restore claimed the source; nil before
	sb   *StoreBackend // nil: the source holds bytes only
	view *objstore.PageView

	// pinGroup/pinEpoch name the store epoch the view resolves at.
	// They are immutable after construction; neither the space
	// reclaimer nor the HistoryLimit trim may drop that epoch while the
	// source lives (Orchestrator.pins), because the view finds
	// its pages through that epoch's place in the store's history.
	pinGroup uint64
	pinEpoch uint64

	mu    sync.Mutex
	g     *Group // bound once the restored group exists; may stay nil
	peers []BlockProvider
	skips int // probe pacing against a down primary

	failovers atomic.Int64
	repaired  atomic.Int64
	retries   atomic.Int64
	users     atomic.Int32 // objects paging from it (vm.SourceUsers)

	// reader holds a line page's patch while the primary reads it, one
	// read at a time (readMu), so a fault allocates nothing.
	readMu sync.Mutex
	reader objstore.PageReader
}

// Users implements vm.SourceUsers.
func (s *lazyPageSource) Users(delta int32) { s.users.Add(delta) }

// idle reports whether no object pages from s.
func (s *lazyPageSource) idle() bool { return s.users.Load() == 0 }

// claim returns the source a restore by o attaches: s itself the first
// time, else a copy of it. A source is the group's its restore binds it
// to — its faults drive that group's health — and each restored group
// pins its epoch itself.
func (s *lazyPageSource) claim(o *Orchestrator) *lazyPageSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.o == nil {
		s.o = o
		return s
	}
	return s.overLocked(s.bytes, o)
}

// overLocked returns a new source, claimed by o (nil: by none), of bytes
// in front of s's store pages, with s's pin and peers. The caller holds
// s.mu.
func (s *lazyPageSource) overLocked(bytes []objstore.PageBytes, o *Orchestrator) *lazyPageSource {
	return &lazyPageSource{o: o, bytes: bytes, sb: s.sb, view: s.view, pinGroup: s.pinGroup, pinEpoch: s.pinEpoch, peers: slices.Clone(s.peers)}
}

// beneath returns the source of an image holding frames, and the bytes
// of top (a run only, none of them a frame), over an image whose source
// is s: top's run in front of s's pages, less the pages of s's run that
// frames hold. It returns s or top itself when the other adds nothing;
// either may be nil.
func (s *lazyPageSource) beneath(frames []vm.Page, top *lazyPageSource) *lazyPageSource {
	if s == nil {
		return top
	}
	shadowed := func(b objstore.PageBytes) bool {
		_, ok := vm.SearchRun(frames, b.Idx, pageIdx)
		return ok
	}
	if len(top.run()) == 0 && !slices.ContainsFunc(s.bytes, shadowed) {
		return s
	}
	bytes := vm.FoldRun(slices.Clone(top.run()), s.bytes, bytesIdx, true, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overLocked(slices.DeleteFunc(bytes, shadowed), nil)
}

func bytesIdx(b *objstore.PageBytes) int64 { return b.Idx }

// pin names the store epoch s pages from ({0, 0}: none).
func (s *lazyPageSource) pin() [2]uint64 {
	if s == nil || s.sb == nil {
		return [2]uint64{}
	}
	return [2]uint64{s.pinGroup, s.pinEpoch}
}

// Repoint implements kernel.GroupResolver: memory is full and the clock
// found no page to evict. Each group whose last barrier a store backend
// has made durable gets that epoch's view, object by object, so that
// its clean pages may leave memory.
func (o *Orchestrator) Repoint() bool {
	any := false
	for _, g := range o.Groups() {
		any = o.repoint(g) || any
	}
	return any
}

// repoint gives each object of g the view of g's last barrier in the
// first store backend that holds it: the per-object source LoadLazy
// builds, claimed, bound and pinned through g.sources as a restore's
// source is. A group with no store backend has no clean pages, and one
// in a barrier is passed over. The views g pinned before stay pinned
// while an object (idle) or an image g holds (pagedFrom) pages from them.
func (o *Orchestrator) repoint(g *Group) bool {
	if !g.ckptMu.TryLock() {
		return false
	}
	defer g.ckptMu.Unlock()
	g.mu.Lock()
	epoch, peers := g.epoch, slices.Clone(g.restorePeers)
	fresh := epoch > 0 && epoch <= g.durable && epoch != g.viewEpoch
	g.mu.Unlock()
	if !fresh {
		return false
	}
	backends := g.Backends()
	for _, b := range backends {
		sb, ok := b.(*StoreBackend)
		if !ok {
			continue
		}
		img, _, err := sb.LoadLazy(g.ID, epoch)
		if err != nil {
			continue
		}
		addPeers(img, b, backends, peers)
		var views []*lazyPageSource
		for _, to := range o.trackedObjects(o.members(g)) {
			if mi := img.Memory[to.obj.ID]; mi != nil && mi.Inherit != nil {
				if src := mi.Inherit.claim(o); to.obj.Repoint(src, epoch) {
					src.bind(g)
					views = append(views, src)
				}
			}
		}
		used := o.pagedFrom(g)
		g.mu.Lock()
		defer g.mu.Unlock()
		g.viewEpoch = epoch
		anchor := [2]uint64{g.origin, g.originEpoch}
		g.sources = append(slices.DeleteFunc(g.sources, func(s *lazyPageSource) bool {
			return s.idle() && !used[s.pin()] && s.pin() != anchor
		}), views...)
		return len(views) > 0
	}
	return false
}

// pagedFrom lists the store epochs the images g holds page from: its
// newest and what it builds on, its flush window, and its memory
// backends' chains.
func (o *Orchestrator) pagedFrom(g *Group) map[[2]uint64]bool {
	used := make(map[[2]uint64]bool)
	var imgs []*Image
	for img := g.LastImage(); img != nil; img = img.base() {
		imgs = append(imgs, img)
	}
	if f := g.pipeline(); f != nil {
		f.mu.Lock()
		for _, j := range f.queue {
			imgs = append(imgs, j.img)
		}
		f.mu.Unlock()
	}
	for _, b := range g.Backends() {
		if mb, ok := b.(*MemoryBackend); ok {
			mb.mu.Lock()
			imgs = append(imgs, mb.images[g.ID]...)
			mb.mu.Unlock()
		}
	}
	for _, img := range imgs {
		img.mu.Lock()
		for _, mi := range img.Memory {
			if mi.Inherit != nil {
				used[mi.Inherit.pin()] = true
			}
		}
		img.mu.Unlock()
	}
	return used
}

// run returns s's run of bytes (none for a nil s).
func (s *lazyPageSource) run() []objstore.PageBytes {
	if s == nil {
		return nil
	}
	return s.bytes
}

// held returns the bytes s's run holds page idx in, or nil.
func (s *lazyPageSource) held(idx int64) []byte {
	if i, ok := vm.SearchRun(s.run(), idx, bytesIdx); ok {
		return s.bytes[i].Data
	}
	return nil
}

// addPeers backs the demand paging of img, loaded from b, with every
// other backend that can serve blocks by hash, and with extra.
func addPeers(img *Image, b Backend, backends []Backend, extra []BlockProvider) {
	for _, other := range backends {
		if bp, ok := other.(BlockProvider); ok && other != b {
			img.AddBlockPeer(bp)
		}
	}
	for _, p := range extra {
		img.AddBlockPeer(p)
	}
}

func (s *lazyPageSource) addPeer(p BlockProvider) {
	s.mu.Lock()
	s.peers = append(s.peers, p)
	s.mu.Unlock()
}

// pages lists every page s holds in ascending index: its run's, and the
// store pages the run does not shadow by name, with no bytes and the
// content hash the store's index has for each. A view whose epoch left
// the store is an error, never a hole.
func (s *lazyPageSource) pages() ([]objstore.PageBytes, error) {
	if s == nil || s.sb == nil {
		return s.run(), nil
	}
	named, err := s.view.Pages()
	if err != nil {
		return nil, fmt.Errorf("%w: listing the pages of %s: %w", ErrBackendDown, s.sb.Name(), err)
	}
	return vm.FoldRun(named, s.bytes, bytesIdx, false, nil), nil
}

// bind attaches the source to the restored group so read faults drive
// the group's backend-health ladder and stats.
func (s *lazyPageSource) bind(g *Group) {
	s.mu.Lock()
	s.g = g
	s.mu.Unlock()
}

func (s *lazyPageSource) group() *Group {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g
}

// PageIn implements vm.PageSource: a fault looks its page up once, and
// takes a frame only for a page the image holds.
func (s *lazyPageSource) PageIn(pm *vm.PhysMem, idx int64) (*vm.Frame, error) {
	if d := s.held(idx); d != nil {
		return pm.Fill(func(dst []byte) (bool, error) {
			clear(dst[copy(dst, d):])
			return true, nil
		})
	}
	if s.sb == nil {
		return nil, nil
	}
	ref, ok, err := s.locate(idx)
	if err != nil || !ok {
		return nil, err
	}
	return pm.Fill(func(dst []byte) (bool, error) { return true, s.read(s.sb.store, idx, ref, dst) })
}

// locate finds page idx in the view. When the view's epoch has left the
// store the answer is an error wrapping ErrBackendDown, never a miss,
// which no peer can help with: there is no block reference to ask them
// for.
func (s *lazyPageSource) locate(idx int64) (objstore.PageRef, bool, error) {
	ref, ok, err := s.view.Lookup(idx)
	if err != nil {
		return ref, false, fmt.Errorf("%w: demand-paged read of page %d from %s: %w",
			ErrBackendDown, idx, s.sb.Name(), err)
	}
	return ref, ok, nil
}

// read reads page idx, which locate found at ref, into dst: from the
// primary, or from a peer when the primary fails, with an error
// wrapping ErrBackendDown when the primary and every peer failed. A line
// page is read as its base with its patch applied and checked against
// the page's content hash, like any page (objstore.Store.ReadPage).
func (s *lazyPageSource) read(store *objstore.Store, idx int64, ref objstore.PageRef, dst []byte) error {
	// A primary the health machine already marked down is mostly left
	// alone: peers serve, with only a periodic probe (mirroring the
	// flush pipeline's pacing).
	primaryFirst := true
	if g := s.group(); g != nil {
		g.healthMu.Lock()
		if h := g.health[s.sb]; h != nil && h.state == BackendDown {
			s.mu.Lock()
			s.skips++
			primaryFirst = s.skips%downProbeEvery == 0
			s.mu.Unlock()
		}
		g.healthMu.Unlock()
	}

	served := false
	var perr error
	if primaryFirst {
		perr = s.readPrimary(store, ref, dst)
		served = perr == nil
	}
	if !served && s.fromPeers(store, ref, dst) {
		served = true
		s.failovers.Add(1)
	}
	if !served && !primaryFirst {
		// Peers failed and the paced probe was skipped: the down
		// primary is still the only possible server, so try it.
		perr = s.readPrimary(store, ref, dst)
		served = perr == nil
	}
	if !served {
		if perr == nil {
			perr = fmt.Errorf("%d peers hold no copy", s.peerCount())
		}
		return fmt.Errorf("%w: demand-paged read of page %d from %s failed (%d peers tried): %v",
			ErrBackendDown, idx, s.sb.Name(), s.peerCount(), perr)
	}
	return nil
}

// readPrimary reads one block from the primary (through store) into dst
// with bounded retry and backoff, feeding a failure into the health ladder.
// A good read resets nothing there: a healthy record has no failures to
// clear (the first one degrades it), and recovery of a degraded or down
// backend belongs to the flush pipeline's probes, which must deliver
// what the backend owes first.
func (s *lazyPageSource) readPrimary(store *objstore.Store, ref objstore.PageRef, dst []byte) error {
	var lane *storage.Clock
	backoff := lazyBackoffBase
	var lastErr error
	for attempt := 0; attempt <= lazyReadRetries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			if lane == nil {
				lane = s.sb.clock.Lane()
			}
			lane.Advance(backoff)
			backoff *= 2
		}
		s.readMu.Lock()
		err := store.ReadPage(ref, dst, &s.reader)
		s.readMu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, storage.ErrDeviceDown) {
			break // permanent: retrying a dead device buys nothing
		}
		if errors.Is(err, objstore.ErrCorruptBlock) {
			break // rot does not heal on retry; a peer can heal it
		}
	}
	if g := s.group(); g != nil {
		// Demand-paging reads and pipeline flushes count against the
		// same per-backend record.
		g.healthMu.Lock()
		g.healthLocked(s.sb).noteFail(lastErr, downState(s.sb, lastErr), s.o.downAfter())
		g.healthMu.Unlock()
	}
	return lastErr
}

// fromPeers serves page ref into dst from a peer, by its content hash
// (a peer store rebuilds a line page it holds as one). What a peer
// serves heals the primary's copy in place — the block, or a line
// page's patch and, when a peer has it, its base — so the next fault
// and the next scrub find it intact (read-repair).
func (s *lazyPageSource) fromPeers(store *objstore.Store, ref objstore.PageRef, dst []byte) bool {
	page, ok := s.fetchFromPeers(ref.Ref.Hash)
	if !ok {
		return false
	}
	clear(dst[copy(dst, page):])
	var base []byte
	if ref.Lined() {
		base, _ = s.fetchFromPeers(ref.Base.Hash)
	}
	if store.RepairPage(ref, page, base) == nil {
		s.repaired.Add(1)
	}
	return true
}

func (s *lazyPageSource) fetchFromPeers(h objstore.Hash) ([]byte, bool) {
	s.mu.Lock()
	peers := append([]BlockProvider(nil), s.peers...)
	s.mu.Unlock()
	for _, p := range peers {
		if d, ok := p.FetchBlock(h); ok {
			return d, true
		}
	}
	return nil, false
}

func (s *lazyPageSource) peerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}
