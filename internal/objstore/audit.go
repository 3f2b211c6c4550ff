package objstore

import "fmt"

// AuditReachability cross-checks the block index against every retained
// record: each block referenced by any record must exist with a
// refcount equal to the number of references — plus the references
// puts still in flight hold for records they have not registered yet,
// which the in-flight ledger counts exactly, so the check stays an
// equality while a flush runs on another lane — no block may exist
// with zero references (unreachable blocks must have been freed), and
// no free-list entry may alias a live block or appear twice. The chaos and
// space harnesses run this after every reclamation — a refcount drift
// here is how merge-forward GC bugs first become visible, long before
// they corrupt a restore.
func (s *Store) AuditReachability() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	want := make(map[Hash]int32, len(s.blocks))
	for key, rec := range s.records {
		for idx, ref := range rec.Pages {
			be, ok := s.blocks[ref.Hash]
			if !ok {
				return fmt.Errorf("objstore: audit: record %d@%d page %d references freed block %x",
					key.OID, key.Epoch, idx, ref.Hash[:4])
			}
			if be.ref.Off != ref.Off {
				return fmt.Errorf("objstore: audit: record %d@%d page %d holds offset %d for block %x, index says %d",
					key.OID, key.Epoch, idx, ref.Off, ref.Hash[:4], be.ref.Off)
			}
			want[ref.Hash]++
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
	seen := make(map[int64]bool, len(s.freeList))
	for _, off := range s.freeList {
		if h, ok := live[off]; ok {
			return fmt.Errorf("objstore: audit: free-list offset %d aliases live block %x", off, h[:4])
		}
		if key, ok := metaBlocks[off]; ok {
			return fmt.Errorf("objstore: audit: free-list offset %d aliases metadata of record %d@%d",
				off, key.OID, key.Epoch)
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
