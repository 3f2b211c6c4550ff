package objstore

import (
	"fmt"
	"sort"
)

// BlockSource supplies known-good block contents by hash during scrub
// repair. A *Store is itself a BlockSource: because dedup keys are
// content hashes, any peer backend of the same group holds bit-
// identical blocks under the same hashes and can heal another store's
// rot.
type BlockSource interface {
	FetchBlock(h Hash) ([]byte, bool)
}

// FetchBlock returns the verified contents of the block with the given
// hash, or false if this store does not hold it intact.
func (s *Store) FetchBlock(h Hash) ([]byte, bool) {
	s.mu.Lock()
	be, ok := s.blocks[h]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	buf := make([]byte, BlockSize)
	if err := s.devRead(buf, be.ref.Off); err != nil {
		return nil, false
	}
	if s.HashPage(buf) != h {
		return nil, false
	}
	return buf, true
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Blocks   int // blocks examined
	Corrupt  int // blocks whose contents failed their hash
	Repaired int // corrupt blocks rewritten from the source
	Lost     int // corrupt blocks with no good copy anywhere
	// LostRecords lists the records referencing unrepairable blocks —
	// the checkpoints that can no longer restore from this store.
	LostRecords []RecordKey
}

func (r *ScrubReport) String() string {
	return fmt.Sprintf("%d blocks, %d corrupt, %d repaired, %d lost",
		r.Blocks, r.Corrupt, r.Repaired, r.Lost)
}

// Scrub walks every live block, verifies its contents against its
// content hash, and repairs rotted blocks in place from src (which may
// be nil, or a peer store holding the same content-addressed blocks).
// Unrepairable blocks are reported along with the records that
// reference them. The device error of a failed raw read aborts the
// pass; rot itself never does.
func (s *Store) Scrub(src BlockSource) (*ScrubReport, error) {
	s.mu.Lock()
	refs := make([]BlockRef, 0, len(s.blocks))
	for _, be := range s.blocks {
		refs = append(refs, be.ref)
	}
	s.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].Off < refs[j].Off })

	rep := &ScrubReport{Blocks: len(refs)}
	buf := make([]byte, BlockSize)
	for _, ref := range refs {
		if err := s.devRead(buf, ref.Off); err != nil {
			return rep, fmt.Errorf("objstore: scrub read at %d: %w", ref.Off, err)
		}
		if s.HashPage(buf) == ref.Hash {
			continue
		}
		rep.Corrupt++
		if src != nil {
			if good, ok := src.FetchBlock(ref.Hash); ok {
				if err := s.devWrite(good, ref.Off); err == nil {
					rep.Repaired++
					continue
				}
			}
		}
		rep.Lost++
		rep.LostRecords = append(rep.LostRecords, s.recordsReferencing(ref.Hash)...)
	}
	sort.Slice(rep.LostRecords, func(i, j int) bool {
		a, b := rep.LostRecords[i], rep.LostRecords[j]
		if a.OID != b.OID {
			return a.OID < b.OID
		}
		return a.Epoch < b.Epoch
	})
	return rep, nil
}

// recordsReferencing returns the keys of all records holding a page
// backed by the given block.
func (s *Store) recordsReferencing(h Hash) []RecordKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []RecordKey
	for key, rec := range s.records {
		for _, ref := range rec.Pages {
			if ref.Hash == h {
				keys = append(keys, key)
				break
			}
		}
	}
	return keys
}
