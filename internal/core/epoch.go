package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// Epoch is one checkpoint opened for reading (Open): its state resolved
// once from one holder, every frame the state maps held until Close, so
// that no flush, trim or fold can take a page from under the reader, and
// a record of what it read. Restore, rollback and `sls send` read so.
type Epoch struct {
	o        *Orchestrator
	g        *Group // nil: a standalone image
	img      *Image
	st       *chainState
	readTime time.Duration

	// What a restore inherits: g's backends, ephemeral first, and its
	// out-of-band failover peers (e.g. netback replicas).
	backends []Backend
	peers    []BlockProvider

	fallbackFrom uint64 // the store's fallback record
	quarantined  int
	validated    bool
}

// Open opens epoch of g, choosing its holder in one order (DESIGN §3.3):
//   - epoch 0 is the newest durable epoch: the pipeline is drained first
//     and an epoch whose flush failed is skipped, so that nothing opens a
//     checkpoint with a hole in its history (rollback-to-last-durable);
//   - an epoch above the durable frontier, or any of a group with no
//     backend, is read off the live chain, synced first when a release
//     reached what it builds on;
//   - any other comes from g's ephemeral backends, then its stores, in
//     g's lineage and then its origin's. In-memory images come first:
//     they restore by COW-sharing frames with zero copies, the fastest
//     path. A store validates the epoch (opts.Validate) and, when its
//     blocks fail their hashes, quarantines it durably, in the store,
//     and opens the newest good epoch below it instead;
//   - a durable epoch no backend serves is read off the live chain while
//     it still resolves there.
//
// opts.Lazy leaves a store's pages in the store. The state's heat is
// merged, so that Encode writes it.
func (o *Orchestrator) Open(g *Group, epoch uint64, opts RestoreOpts) (*Epoch, error) {
	return o.open(g, epoch, opts, true)
}

// open is Open, merging the heat only with heat set: a restore that does
// not prefetch reads none.
func (o *Orchestrator) open(g *Group, epoch uint64, opts RestoreOpts, heat bool) (*Epoch, error) {
	o.Drain(g)
	backends := g.Backends()
	slices.SortStableFunc(backends, func(a, b Backend) int {
		switch {
		case a.Ephemeral() == b.Ephemeral():
			return 0
		case a.Ephemeral():
			return -1
		}
		return 1
	})
	g.mu.Lock()
	e := &Epoch{o: o, g: g, backends: backends, peers: append([]BlockProvider(nil), g.restorePeers...)}
	g.mu.Unlock()

	durable := g.Durable()
	want := cmp.Or(epoch, durable)
	live := g.LastImage()
	for live != nil && live.Epoch != want {
		live = live.base()
	}
	if live != nil && (epoch > durable || len(backends) == 0) {
		e, err := e.read(o.K.Mem, live, nil, 0, heat)
		if !errors.Is(err, ErrNoImage) || len(backends) == 0 {
			return e, err
		}
		if err := o.Sync(g); err != nil {
			return nil, err
		}
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
			for _, gid := range gids {
				img, readTime, err := b.Load(gid, want)
				if err == nil {
					return e.read(o.K.Mem, img, b, readTime, heat)
				}
				lastErr = err
			}
			continue
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
				// A failed validation pre-pass poisons the epoch and falls
				// back; so does corruption mid-load, which the eager read
				// path finds by hash-verifying every block.
				var err error
				if opts.Validate {
					err = sb.Validate(gid, ep)
				}
				invalid := err != nil
				var img *Image
				var readTime time.Duration
				if !invalid && opts.Lazy {
					img, readTime, err = sb.LoadLazy(gid, ep)
				} else if !invalid {
					img, readTime, err = sb.Load(gid, ep)
				}
				if invalid || errors.Is(err, objstore.ErrCorruptBlock) {
					o.quarantineEpoch(g, sb, gid, ep, err)
					if fbFrom == 0 {
						fbFrom = ep
					}
					quarCount++
					lastErr = fmt.Errorf("%w: epoch %d of group %d: %w", ErrEpochQuarantined, ep, gid, err)
					below = ep
					continue
				}
				if err != nil {
					lastErr = err
					break // next chain / backend
				}
				if ep != want && fbFrom == 0 {
					fbFrom = want
				}
				e.fallbackFrom, e.quarantined, e.validated = fbFrom, quarCount, opts.Validate
				return e.read(o.K.Mem, img, b, readTime, heat)
			}
		}
	}
	// No backend serves a durable epoch that a sick store still owes
	// while another backend, one that loads nothing, made it durable:
	// the debt keeps it on the live chain.
	if live != nil {
		if e, err := e.read(o.K.Mem, live, nil, 0, heat); err == nil {
			return e, nil
		}
	}
	return nil, lastErr
}

// read resolves img, which b served in readTime (nil: the live chain or
// a standalone image), into e, its frames pinned from pm, and returns e
// opened. An image a backend served is first backed with the group's
// other block providers for its demand paging. An image opened by
// itself is read into an Epoch with no group: a restore of it inherits
// nothing.
func (e *Epoch) read(pm *vm.PhysMem, img *Image, b Backend, readTime time.Duration, heat bool) (*Epoch, error) {
	if b != nil {
		addPeers(img, b, e.backends, e.peers)
	}
	var err error
	e.img, e.readTime = img, readTime
	if e.st, err = img.resolve(pm, heat); err != nil {
		return nil, err
	}
	return e, nil
}

// Restore recreates a persistence group from the epoch (restoreState).
// It inherits the opened group's backends, failover peers and quarantine
// ledger, what Open quarantined included, and its breakdown the fallback
// record.
func (e *Epoch) Restore(opts RestoreOpts) (*Group, RestoreBreakdown, error) {
	var ledger map[uint64]string
	if e.g != nil {
		ledger = e.g.Quarantined()
	}
	ng, bd, err := e.o.restoreState(e.img, e.st, e.readTime, opts)
	if err != nil {
		return nil, bd, err
	}
	for _, b := range e.backends {
		e.o.Attach(ng, b)
	}
	for _, p := range e.peers {
		e.o.AddRestorePeer(ng, p)
	}
	if len(ledger) > 0 {
		ng.healthMu.Lock()
		maps.Copy(ledger, ng.quarantined) // ledger is a map of its own
		ng.quarantined = ledger
		ng.healthMu.Unlock()
	}
	bd.FallbackFrom, bd.Quarantined, bd.Validated = e.fallbackFrom, e.quarantined, e.validated
	return ng, bd, nil
}

// Encode serializes the epoch for file export (`sls send`): a full image
// in the delta layout, every page literal, which DecodeImage reads back.
// Objects go by ascending ID and pages by ascending index, so one state
// always encodes to the same bytes, and pages the state holds by name (a
// lazily restored group's, in a store) are read there (EncodeLiteral).
func (e *Epoch) Encode() ([]byte, error) {
	img := e.img
	full := &Image{Group: img.Group, Epoch: img.Epoch, Gen: img.Gen, Name: img.Name, Full: true,
		Meta: e.st.meta, Memory: e.st.objs, Roots: img.Roots}
	return full.EncodeLiteral(nil, nil)
}

// Close lets go of the frames Open pinned. Calling it again does
// nothing.
func (e *Epoch) Close() { e.st.unpin() }

// chainState is the state at one image, read off its chain in one walk:
// the newest metadata record per OID, and per VM object a MemImage of the
// state's own — its newest name and size, its frames (newest capture
// wins), every other page through its Inherit and, when asked for, its
// heat merged. An Epoch is one, resolved once; everything that reads the
// checkpoint reads this.
type chainState struct {
	meta []MetaRec
	objs map[uint64]*MemImage
	// own counts the pages the image itself holds (not the chain under
	// it): what a restore's metadata charge is sized by.
	own int64
	// pinned is the allocator the frames below hold a reference from
	// (nil: none taken).
	pinned *vm.PhysMem
}

// resolve walks img and the images under it, newest first, down to the
// nearest full one, reading each under its lock and folding its objects'
// runs under what the walk holds so far (MemImage.fold), which writes
// none of them. Any image on the way that has been released makes it
// ErrNoImage: that part of the history now lives in a backend only, and
// resolving around the hole would pass off a partial state as the whole.
// It reads no page: the state carries the source an object's pages are
// held by name in (only a full capture names a store's: a full image's,
// or an object's first, below which the chain holds none of it). With
// pin set every frame collected takes a reference from pin, so that a
// release of the chain after this walk cannot take the frames from under
// the caller, who drops them with unpin (Epoch.Close). With heat set each
// object's heat deltas are merged (vm.MergeHeat) into a list of the
// state's own — the one part of a state only a prefetching restore and
// Encode read, so the walks that do not need it merge and allocate
// nothing for it.
func (img *Image) resolve(pin *vm.PhysMem, heat bool) (*chainState, error) {
	st := &chainState{meta: make([]MetaRec, 0, len(img.Meta)), objs: make(map[uint64]*MemImage, len(img.Memory)), pinned: pin}
	seen := make(map[uint64]bool, len(img.Meta))
	unpin := func(p *vm.Page) {
		if pin != nil {
			pin.Free(p.Frame)
		}
	}
	for cur := img; cur != nil; {
		cur.mu.Lock()
		if cur.released {
			cur.mu.Unlock()
			st.unpin()
			return nil, fmt.Errorf("%w: image of group %d epoch %d builds on epoch %d, whose frames were already released",
				ErrNoImage, img.Group, img.Epoch, cur.Epoch)
		}
		for _, m := range cur.Meta {
			if !seen[m.OID] {
				seen[m.OID] = true
				st.meta = append(st.meta, m)
			}
		}
		for id, mi := range cur.Memory {
			if cur == img {
				st.own += int64(mi.PageCount())
			}
			if pin != nil {
				for _, p := range mi.Pages {
					p.Frame.Ref()
				}
			}
			if o := st.objs[id]; o != nil {
				o.fold(mi, false, unpin)
			} else {
				st.objs[id] = &MemImage{ObjID: id, Name: mi.Name, Size: mi.Size, Pages: slices.Clip(mi.Pages), Inherit: mi.Inherit}
			}
			if heat {
				st.objs[id].mergeHeat(cur, mi)
			}
		}
		prev, full := cur.Prev, cur.Full
		cur.mu.Unlock()
		if full {
			break
		}
		cur = prev
	}
	return st, nil
}

// mergeHeat folds the heat of mi, an object of img one image older than
// what o holds so far, under o's. An image's own list is copied first:
// images are shared, and the merge works in place. A lazily loaded
// image's heat is still in the store, and its view (pinned at the
// image's own epoch, unlike a barrier's source) resolves a copy.
func (o *MemImage) mergeHeat(img *Image, mi *MemImage) {
	older := slices.Clone(mi.Heat)
	if src := mi.Inherit; src != nil && src.pinGroup == img.Group && src.pinEpoch == img.Epoch {
		older = vm.MergeHeat(src.view.Heat(), older)
	}
	o.Heat = vm.MergeHeat(older, o.Heat)
}

// unpin drops the references resolve took.
func (st *chainState) unpin() {
	if st.pinned == nil {
		return
	}
	for _, o := range st.objs {
		for _, p := range o.Pages {
			st.pinned.Free(p.Frame)
		}
	}
	st.pinned = nil
}
