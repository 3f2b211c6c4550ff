package objstore

import "aurora/internal/vm"

// PageView is the page map of one object at one epoch, resolved on
// demand instead of materialised: the restore-side answer to "where
// does page idx live" that costs nothing per page of the image. It
// holds no page table of its own. Lookup walks the object's record
// chain in the live index, newest first, exactly as ResolvePages would,
// and returns the first record's entry — a handful of map probes
// against the SHA-256 every demand-paged block pays anyway.
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

// ResolveView resolves (group, oid) at epoch into a view and returns it
// with the most recent heat snapshot: ResolvePages without the map.
func (s *Store) ResolveView(group, oid, epoch uint64) (*PageView, []vm.PageHeat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := s.chainLocked(buf[:0], group, oid, epoch)
	if err != nil {
		return nil, nil, err
	}
	v := &PageView{s: s.storeCore, group: group, oid: oid, epoch: epoch, n: visibleLocked(chain)}
	return v, chainHeat(chain), nil
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
		page:
			for idx := range chain[i].Pages {
				for _, older := range chain[i+1:] {
					if _, ok := older.Pages[idx]; ok {
						continue page
					}
				}
				n++
			}
		}
		newest.visible = int32(n) + 1
	}
	return int(newest.visible) - 1
}

// Len returns the number of distinct pages visible at the view's epoch,
// as of when it was resolved. A nil view holds none.
func (v *PageView) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// Lookup locates page idx. ok is false when the object has no such page
// at the view's epoch. The error wraps ErrNoManifest or ErrNoRecord
// when the view's epoch, or a link of its chain, is no longer in the
// store: the answer is unknown, which is not the same as "no page".
func (v *PageView) Lookup(idx int64) (ref BlockRef, ok bool, err error) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := v.s.chainLocked(buf[:0], v.group, v.oid, v.epoch)
	if err != nil {
		return BlockRef{}, false, err
	}
	for _, rec := range chain {
		if ref, ok := rec.Pages[idx]; ok {
			return ref, true, nil
		}
	}
	return BlockRef{}, false, nil
}

// Pages enumerates the visible page indices, in no particular order.
func (v *PageView) Pages() ([]int64, error) {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	var buf [chainOnStack]*Record
	chain, err := v.s.chainLocked(buf[:0], v.group, v.oid, v.epoch)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, v.n)
	for i, rec := range chain {
	page:
		for idx := range rec.Pages {
			for _, newer := range chain[:i] {
				if _, ok := newer.Pages[idx]; ok {
					continue page
				}
			}
			out = append(out, idx)
		}
	}
	return out, nil
}
