package objstore

import (
	"errors"
	"fmt"
	"slices"
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

// FetchBlock returns the verified contents of the page with the given
// hash — a block, or a line entry rebuilt from its base and patch — or
// false if this store does not hold it intact. Every copy the store
// holds is tried, in one order (pagesByHashLocked), until one reads
// back intact.
func (s *Store) FetchBlock(h Hash) ([]byte, bool) {
	s.mu.Lock()
	prs := s.pagesByHashLocked(h)
	s.mu.Unlock()
	buf, r := make([]byte, BlockSize), new(PageReader)
	for _, pr := range prs {
		if s.ReadPage(pr, buf, r) == nil {
			return buf, true
		}
	}
	return nil, false
}

// pagesByHashLocked lists the pages holding content h: its block, then
// every line entry that rebuilds to it, by record key and page index.
// Line entries are not indexed by content, so that is a walk over every
// record's — which only a peer's failover and scrub repair pay for.
func (s *storeCore) pagesByHashLocked(h Hash) []PageRef {
	var prs []PageRef
	if be, ok := s.blocks[h]; ok {
		prs = append(prs, PageRef{Ref: be.ref})
	}
	type lined struct {
		key RecordKey
		pr  PageRef
	}
	var lines []lined
	for key, rec := range s.records {
		for i := range rec.Pages {
			if p := &rec.Pages[i]; p.base != nil && p.Ref.Hash == h {
				lines = append(lines, lined{key, p.pageRef()})
			}
		}
	}
	slices.SortStableFunc(lines, func(a, b lined) int { return compareKeys(a.key, b.key) })
	for _, l := range lines {
		prs = append(prs, l.pr)
	}
	return prs
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Blocks    int // blocks examined
	LinePages int // line entries examined, each rebuilt from base and patch
	Corrupt   int // blocks and line pages whose contents failed their hash
	Repaired  int // corrupt ones rewritten from the source
	Lost      int // corrupt ones with no good copy anywhere
	// LostRecords lists the records referencing unrepairable blocks —
	// the checkpoints that can no longer restore from this store.
	LostRecords []RecordKey
}

func (r *ScrubReport) String() string {
	return fmt.Sprintf("%d blocks, %d line pages, %d corrupt, %d repaired, %d lost",
		r.Blocks, r.LinePages, r.Corrupt, r.Repaired, r.Lost)
}

// Scrub walks every live block, verifies its contents against its
// content hash, and repairs rotted blocks in place from src (which may
// be nil, or a peer store holding the same content-addressed blocks).
// Then it rebuilds every line entry from its base and patch and checks
// the page's hash; a failing one is rewritten from the page src holds
// under that hash (RepairPage) and checked again. Unrepairable blocks and line pages are reported
// along with the records that hold them. The device error of a failed
// raw read aborts the pass; rot itself never does.
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
	if err := s.scrubLines(src, rep, buf); err != nil {
		return rep, err
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

// scrubLines is Scrub's pass over the line entries, in patch order,
// after the blocks under them had their turn.
func (s *Store) scrubLines(src BlockSource, rep *ScrubReport, page []byte) error {
	type entry struct {
		key RecordKey
		pr  PageRef
	}
	s.mu.Lock()
	var lines []entry
	for key, rec := range s.records {
		for i := range rec.Pages {
			if p := &rec.Pages[i]; p.base != nil {
				lines = append(lines, entry{key, p.pageRef()})
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(lines, func(i, j int) bool { return lines[i].pr.Ref.Off < lines[j].pr.Ref.Off })
	rep.LinePages = len(lines)
	var r PageReader
	for _, e := range lines {
		err := s.ReadPage(e.pr, page, &r)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCorruptBlock) {
			return fmt.Errorf("objstore: scrub of line page at %d: %w", e.pr.Ref.Off, err)
		}
		rep.Corrupt++
		if src != nil {
			if good, ok := src.FetchBlock(e.pr.Ref.Hash); ok &&
				s.RepairPage(e.pr, good, nil) == nil && s.ReadPage(e.pr, page, &r) == nil {
				rep.Repaired++
				continue
			}
		}
		rep.Lost++
		rep.LostRecords = append(rep.LostRecords, e.key)
	}
	return nil
}

// recordsReferencing returns the keys of all records holding a page
// backed by the given block, or built on it as a line entry's base.
func (s *Store) recordsReferencing(h Hash) []RecordKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []RecordKey
	for key, rec := range s.records {
		for i := range rec.Pages {
			if rec.Pages[i].held() == h {
				keys = append(keys, key)
				break
			}
		}
	}
	return keys
}
