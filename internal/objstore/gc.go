package objstore

import (
	"fmt"
	"slices"
)

// This file implements the store's in-place garbage collector. The
// paper's requirement: reclaiming old checkpoints must not rewrite the
// incremental checkpoints built on top of them. The collector
// therefore *merges forward*: when epoch E is dropped, any page of E
// not superseded by the next retained epoch is moved — by reference,
// never by copying data — into that epoch's record, after which E's
// records and superseded blocks are released in place.

// DropEpoch removes one checkpoint from a group's history, merging its
// still-live pages forward. Dropping the newest epoch of a group is
// only allowed when it is also the oldest (a one-checkpoint history).
func (s *Store) DropEpoch(group, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.sortFreedLocked(len(s.freeList))

	ms := s.manifests[group]
	pos, victim := s.findManifestLocked(group, epoch)
	if victim == nil {
		return fmt.Errorf("%w: group %d epoch %d", ErrNoManifest, group, epoch)
	}
	var next *Manifest
	if pos+1 < len(ms) {
		next = ms[pos+1]
	}

	for _, key := range victim.Records {
		rec := s.records[key]
		if rec == nil || rec.Epoch != epoch {
			// Already merged away, or re-keyed to a later epoch by an
			// earlier drop (the manifest entry is stale).
			continue
		}
		adopted := false
		if next != nil {
			adopted = s.mergeForwardLocked(rec, next)
		} else {
			// Last remaining checkpoint: release everything.
			for _, ref := range rec.Pages {
				s.releaseBlockLocked(ref)
			}
		}
		delete(s.records, key)
		if !adopted {
			// The record is gone for good: release its metadata extent.
			// (An adopted record lives on under the heir epoch and keeps
			// its metadata.)
			s.stats.MetaBytes -= int64(rec.metaLen)
			s.freeExtentLocked(rec.metaOff, rec.metaLen+1)
		}
	}

	// Relink the next manifest's history pointer and drop the victim.
	if next != nil && next.Prev == epoch {
		next.Prev = victim.Prev
	}
	s.manifests[group] = append(ms[:pos], ms[pos+1:]...)
	if victim.Name != "" {
		delete(s.named, victim.Name)
	}
	// A dropped epoch cannot poison anything anymore.
	delete(s.quarantined, manifestID{group, epoch})
	s.stats.EpochsDropped++
	return nil
}

// mergeForwardLocked folds a dropped record into the next epoch. It
// reports whether the record itself was adopted as the next epoch's
// record (in which case its metadata stays live).
func (s *Store) mergeForwardLocked(rec *Record, next *Manifest) bool {
	key := RecordKey{next.Group, rec.OID, next.Epoch}
	heir, ok := s.records[key]
	if !ok {
		// The object has no record at the next epoch (it was idle):
		// the dropped record *becomes* the next epoch's record.
		rec.Epoch = next.Epoch
		s.records[key] = rec
		next.Records = append(next.Records, key)
		return true
	}
	// Fold the smaller page map into the larger and leave the result
	// with the heir, so the work is O(min) of the two: a clean full
	// record dropped under a small delta costs what the delta holds,
	// not what the object holds.
	switch {
	case heir.Full:
		// The heir is the object's complete page set already: no epoch
		// that survives resolves through the dropped record, so none of
		// its pages is live. Folding them in would bring back pages the
		// object no longer had at the heir's epoch.
		for _, ref := range rec.Pages {
			s.releaseBlockLocked(ref)
		}
	case len(rec.Pages) > len(heir.Pages):
		for idx, ref := range heir.Pages {
			if old, shadowed := rec.Pages[idx]; shadowed {
				// The heir rewrote this page; the old block dies.
				s.releaseBlockLocked(old)
			}
			rec.Pages[idx] = ref
		}
		heir.Pages = rec.Pages
	default:
		for idx, ref := range rec.Pages {
			if _, shadowed := heir.Pages[idx]; shadowed {
				s.releaseBlockLocked(ref)
			} else {
				// Still live: move the reference forward, in place.
				heir.Pages[idx] = ref
			}
		}
	}
	// The heir now carries the object's complete page set as of its
	// epoch if the dropped record did.
	if rec.Full {
		heir.Full = true
	}
	return false
}

func (s *Store) releaseBlockLocked(ref BlockRef) {
	be, ok := s.blocks[ref.Hash]
	if !ok {
		return
	}
	be.refs--
	if be.refs <= 0 {
		delete(s.blocks, ref.Hash)
		s.freeList = append(s.freeList, be.ref.Off)
		s.stats.BlocksFreed++
	}
}

// TrimHistory keeps at most keep checkpoints per group, dropping the
// oldest — the paper's "short execution history" maintained in free
// disk space. Epochs listed in pinned are passed over (someone outside
// the store still reads them), as is the newest, so a history made of
// pins can stay longer than keep.
func (s *Store) TrimHistory(group uint64, keep int, pinned []uint64) error {
	if keep < 1 {
		keep = 1
	}
	for {
		s.mu.Lock()
		ms := s.manifests[group]
		var oldest uint64
		if len(ms) > keep {
			for _, m := range ms[:len(ms)-1] {
				if !slices.Contains(pinned, m.Epoch) {
					oldest = m.Epoch
					break
				}
			}
		}
		s.mu.Unlock()
		if oldest == 0 {
			return nil
		}
		if err := s.DropEpoch(group, oldest); err != nil {
			return err
		}
	}
}
