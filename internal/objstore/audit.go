package objstore

import (
	"fmt"
	"math/bits"
)

// AuditReachability cross-checks the block index against every retained
// record: each block referenced by any record must exist with a
// refcount equal to the number of references — plus the references
// puts still in flight hold for records they have not registered yet,
// which the in-flight ledger counts exactly, so the check stays an
// equality while a flush runs on another lane — no block may exist
// with zero references (unreachable blocks must have been freed), and
// no free-list entry may alias a live block, a patch slab or another
// entry. A record's entries must ascend by page. A line entry counts as
// a reference on its base, and its patch must fill a used slab slot of
// its own. The chaos and space harnesses run this after every
// reclamation — a refcount drift here is how merge-forward GC bugs
// first become visible, long before they corrupt a restore.
func (s *Store) AuditReachability() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	want := make(map[Hash]int32, len(s.blocks))
	slots := make(map[int64]RecordKey)
	for key, rec := range s.records {
		for i := range rec.Pages {
			p := &rec.Pages[i]
			if i > 0 && p.Idx <= rec.Pages[i-1].Idx {
				return fmt.Errorf("objstore: audit: record %d@%d lists page %d after page %d",
					key.OID, key.Epoch, p.Idx, rec.Pages[i-1].Idx)
			}
			if p.base != nil {
				// A line entry: its base is a live block, and its patch
				// fills a used slab slot no other entry holds.
				if be := s.blocks[p.base.ref.Hash]; be != p.base {
					return fmt.Errorf("objstore: audit: record %d@%d page %d is a line entry over freed block %x",
						key.OID, key.Epoch, p.Idx, p.base.ref.Hash[:4])
				}
				want[p.base.ref.Hash]++
				if !s.usedSlot(p.Ref.Off, p.mask) {
					return fmt.Errorf("objstore: audit: record %d@%d page %d has its patch at %d, not in a used slot",
						key.OID, key.Epoch, p.Idx, p.Ref.Off)
				}
				if other, dup := slots[p.Ref.Off]; dup {
					return fmt.Errorf("objstore: audit: records %d@%d and %d@%d share the patch at %d",
						key.OID, key.Epoch, other.OID, other.Epoch, p.Ref.Off)
				}
				slots[p.Ref.Off] = key
				continue
			}
			be, ok := s.blocks[p.Ref.Hash]
			if !ok {
				return fmt.Errorf("objstore: audit: record %d@%d page %d references freed block %x",
					key.OID, key.Epoch, p.Idx, p.Ref.Hash[:4])
			}
			if be.ref.Off != p.Ref.Off {
				return fmt.Errorf("objstore: audit: record %d@%d page %d holds offset %d for block %x, index says %d",
					key.OID, key.Epoch, p.Idx, p.Ref.Off, p.Ref.Hash[:4], be.ref.Off)
			}
			want[p.Ref.Hash]++
		}
	}
	for h, n := range s.inflight {
		if _, ok := s.blocks[h]; !ok {
			return fmt.Errorf("objstore: audit: %d in-flight references to freed block %x", n, h[:4])
		}
	}
	for h, be := range s.blocks {
		if w, fl := want[h], s.inflight[h]; be.refs != w+fl {
			return fmt.Errorf("objstore: audit: block %x at %d has refcount %d, %d references reachable, %d in flight",
				h[:4], be.ref.Off, be.refs, w, fl)
		}
		if be.refs <= 0 {
			return fmt.Errorf("objstore: audit: unreachable block %x at %d not freed", h[:4], be.ref.Off)
		}
	}

	// Metadata extents: every packed extent must land in a block the
	// pack accounting knows, with no more registered extents than the
	// block's live count (in-flight unregistered writes may hold the
	// rest), and no metadata block — packed or whole — may sit on the
	// free list. Compaction moves extents between pack blocks; this is
	// where a move that leaked or double-freed its source would show.
	metaBlocks := make(map[int64]RecordKey)
	packed := make(map[int64]int)
	for key, rec := range s.records {
		if rec.metaOff < dataStart {
			continue
		}
		base := rec.metaOff &^ (BlockSize - 1)
		if rec.metaLen+1 < BlockSize {
			if _, ok := s.packLive[base]; !ok {
				return fmt.Errorf("objstore: audit: record %d@%d metadata packed at %d outside any pack block",
					key.OID, key.Epoch, rec.metaOff)
			}
			packed[base]++
		}
		end := rec.metaOff + int64(rec.metaLen)
		for off := base; off <= end; off += BlockSize {
			metaBlocks[off] = key
		}
	}
	for base, n := range packed {
		if liveN := s.packLive[base]; n > liveN {
			return fmt.Errorf("objstore: audit: pack block %d holds %d registered extents but live count %d",
				base, n, liveN)
		}
	}

	live := make(map[int64]Hash, len(s.blocks))
	for h, be := range s.blocks {
		live[be.ref.Off] = h
	}
	// Slabs: none is a data or metadata block, every used slot is held
	// by a registered line entry or a put in flight (so at least as many
	// slots as entries), and an empty slab is on the free list instead.
	used := 0
	for base, sl := range s.slabs {
		if h, ok := live[base]; ok {
			return fmt.Errorf("objstore: audit: slab %d aliases live block %x", base, h[:4])
		}
		if key, ok := metaBlocks[base]; ok {
			return fmt.Errorf("objstore: audit: slab %d aliases metadata of record %d@%d", base, key.OID, key.Epoch)
		}
		if sl.used == 0 {
			return fmt.Errorf("objstore: audit: empty slab %d not freed", base)
		}
		used += bits.OnesCount64(sl.used)
	}
	if used < len(slots) {
		return fmt.Errorf("objstore: audit: %d line entries in %d used patch slots", len(slots), used)
	}
	seen := make(map[int64]bool, len(s.freeList))
	for _, off := range s.freeList {
		if h, ok := live[off]; ok {
			return fmt.Errorf("objstore: audit: free-list offset %d aliases live block %x", off, h[:4])
		}
		if key, ok := metaBlocks[off]; ok {
			return fmt.Errorf("objstore: audit: free-list offset %d aliases metadata of record %d@%d",
				off, key.OID, key.Epoch)
		}
		if _, ok := s.slabs[off]; ok {
			return fmt.Errorf("objstore: audit: free-list offset %d aliases a patch slab", off)
		}
		if seen[off] {
			return fmt.Errorf("objstore: audit: offset %d double-freed", off)
		}
		seen[off] = true
	}

	// Every retained manifest's own-epoch entries must resolve to live
	// records (merge-forward re-keys idle objects to the heir epoch, so
	// entries for other epochs may legitimately be stale).
	for g, ms := range s.manifests {
		for _, m := range ms {
			for _, rk := range m.Records {
				if rk.Epoch != m.Epoch {
					continue
				}
				if _, ok := s.records[rk]; !ok {
					return fmt.Errorf("objstore: audit: manifest %d@%d lists missing record %d@%d",
						g, m.Epoch, rk.OID, rk.Epoch)
				}
			}
		}
	}
	return nil
}
