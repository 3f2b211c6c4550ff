package objstore

import (
	"cmp"
	"slices"

	"aurora/internal/vm"
)

// PageView is the page map of one object at one epoch, resolved on
// demand instead of materialised: the restore-side answer to "where
// does page idx live" that costs nothing per page of the image. It
// holds no page table of its own. Lookup walks the object's record
// chain in the live index, newest first, exactly as ResolvePages would,
// and returns the first record's entry — a search of a sorted run per
// record, against the SHA-256 every demand-paged block pays anyway.
//
// Nothing is cached, so nothing is invalidated: what a view resolves at
// a surviving epoch does not change when older epochs are dropped,
// because merge-forward moves a dropped record's unshadowed pages into
// its heir by reference (gc.go), and the heir is still in the chain.
// What a view needs is for its own epoch to stay in the store; the
// holder keeps it there (core pins it against reclamation for as long
// as a lazy restore pages through the view). An epoch that left anyway
// is an error from Lookup, never a miss: a miss zero-fills.
type PageView struct {
	s     *storeCore
	group uint64
	oid   uint64
	epoch uint64
	n     int
}

// ResolveView resolves (group, oid) at epoch into a view: ResolvePages
// without the map, and without the heat, which Heat resolves for the
// restore that prefetches.
func (s *Store) ResolveView(group, oid, epoch uint64) (*PageView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := s.chainLocked(buf[:0], group, oid, epoch)
	if err != nil {
		return nil, err
	}
	return &PageView{s: s.storeCore, group: group, oid: oid, epoch: epoch, n: visibleLocked(chain)}, nil
}

// Heat resolves the object's heat at the view's epoch — the chain's
// deltas merged by vm.MergeHeat, into a list of the caller's own — or
// nil when the epoch is no longer in the store: heat only steers
// prefetch, so an unknown answer is no heat.
func (v *PageView) Heat() []vm.PageHeat {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := v.s.chainLocked(buf[:0], v.group, v.oid, v.epoch)
	if err != nil {
		return nil
	}
	return chainHeat(chain)
}

// chainOnStack is how many records of a chain a view walks without
// allocating; longer chains spill to the heap.
const chainOnStack = 16

// visibleLocked counts the distinct pages a chain (newest first) holds:
// the oldest record's, plus in every newer record those no older one
// has. The count is kept on the chain's newest record. It cannot go
// stale while that record lives, because no operation changes the set
// of pages visible at a surviving epoch: a new epoch is a new record on
// top; a dropped older epoch's record either becomes the next epoch's
// (same record, same chain under it) or folds its unshadowed pages into
// an heir that is part of the chain, and into a full heir — where the
// chain ends — nothing is folded at all (mergeForwardLocked); and an
// epoch delivered again replaces its records with new ones.
func visibleLocked(chain []*Record) int {
	newest := chain[0]
	if newest.visible == 0 {
		last := len(chain) - 1
		n := len(chain[last].Pages)
		for i := last - 1; i >= 0; i-- {
			for _, p := range chain[i].Pages {
				if !holds(chain[i+1:], p.Idx) {
					n++
				}
			}
		}
		newest.visible = int32(n) + 1
	}
	return int(newest.visible) - 1
}

// holds reports whether any record of recs has page idx.
func holds(recs []*Record, idx int64) bool {
	for _, rec := range recs {
		if _, ok := find(rec.Pages, idx); ok {
			return true
		}
	}
	return false
}

// Len returns the number of distinct pages visible at the view's epoch,
// as of when it was resolved. A nil view holds none.
func (v *PageView) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// Lookup locates page idx: its block, or its line entry's base and
// patch (Store.ReadPage reads either). ok is false when the object
// has no such page at the view's epoch. The error wraps ErrNoManifest
// or ErrNoRecord when the view's epoch, or a link of its chain, is no
// longer in the store: the answer is unknown, which is not the same as
// "no page".
func (v *PageView) Lookup(idx int64) (ref PageRef, ok bool, err error) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := v.s.chainLocked(buf[:0], v.group, v.oid, v.epoch)
	if err != nil {
		return PageRef{}, false, err
	}
	for _, rec := range chain {
		if i, ok := find(rec.Pages, idx); ok {
			return rec.Pages[i].pageRef(), true, nil
		}
	}
	return PageRef{}, false, nil
}

// Pages lists the pages visible at the view's epoch in ascending index,
// each by name: no bytes, and its content hash — a line entry's as much
// as a block's.
func (v *PageView) Pages() ([]PageBytes, error) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := v.s.chainLocked(buf[:0], v.group, v.oid, v.epoch)
	if err != nil {
		return nil, err
	}
	out := make([]PageBytes, 0, v.n)
	for i, rec := range chain {
		for _, p := range rec.Pages {
			if !holds(chain[:i], p.Idx) {
				out = append(out, PageBytes{Idx: p.Idx, Hash: p.Ref.Hash})
			}
		}
	}
	if len(chain) > 1 {
		slices.SortFunc(out, func(a, b PageBytes) int { return cmp.Compare(a.Idx, b.Idx) })
	}
	return out, nil
}
