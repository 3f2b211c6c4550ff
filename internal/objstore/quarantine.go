package objstore

import (
	"errors"
	"fmt"
	"sort"
)

// This file is the restore-side integrity gate. PR 2 made writes
// self-healing; reads were still trusted at materialization time. Here
// the store can (a) verify that every block an epoch's restore would
// touch still matches its content hash (VerifyEpoch), (b) remember
// that an epoch failed that check (Quarantine — persisted with the
// index so a poisoned epoch stays poisoned across remounts), and
// (c) overwrite a rotted block in place with known-good bytes fetched
// from a peer (RepairBlock), the page-granularity twin of Scrub's
// repair path.

// Quarantine marks (group, epoch) as failing restore validation. The
// mark survives Sync/Open. Reason is for operators; the latest call
// wins.
func (s *Store) Quarantine(group, epoch uint64, reason string) {
	s.mu.Lock()
	if s.quarantined == nil {
		s.quarantined = make(map[manifestID]string)
	}
	s.quarantined[manifestID{group, epoch}] = reason
	s.mu.Unlock()
}

// IsQuarantined reports whether (group, epoch) is quarantined.
func (s *Store) IsQuarantined(group, epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.quarantined[manifestID{group, epoch}]
	return ok
}

// QuarantinedEpochs returns the quarantined epochs of a group with
// their reasons.
func (s *Store) QuarantinedEpochs(group uint64) map[uint64]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]string)
	for id, why := range s.quarantined {
		if id.Group == group {
			out[id.Epoch] = why
		}
	}
	return out
}

// LatestGoodManifest returns the newest manifest of a group that is
// not quarantined, optionally bounded to epochs strictly below
// `below` (0 = unbounded). This is the fallback target after a failed
// restore validation.
func (s *Store) LatestGoodManifest(group, below uint64) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.manifests[group]
	for i := len(ms) - 1; i >= 0; i-- {
		m := ms[i]
		if below != 0 && m.Epoch >= below {
			continue
		}
		if _, bad := s.quarantined[manifestID{group, m.Epoch}]; bad {
			continue
		}
		return m, nil
	}
	return nil, ErrNoManifest
}

// VerifyEpoch checks that every page a restore of (group, epoch) would
// materialize still matches its content hash — the record chains of
// every object in the manifest, resolved exactly the way restore
// resolves them, a line entry read as its base with its patch applied.
// Metadata lives inside the CRC-protected index and needs no separate
// check; the data blocks and patches are the unprotected bytes. The
// first mismatch aborts with an error wrapping ErrCorruptBlock.
func (s *Store) VerifyEpoch(group, epoch uint64) error {
	s.mu.Lock()
	_, m := s.findManifestLocked(group, epoch)
	if m == nil {
		s.mu.Unlock()
		return ErrNoManifest
	}
	// Collect the full resolved page set per object, deduping shared
	// contents so each is read once.
	type toCheck struct {
		oid uint64
		idx int64
		ref PageRef
	}
	seen := make(map[Hash]bool)
	var refs []toCheck
	for _, rk := range m.Records {
		pages, _, err := s.resolveLocked(group, rk.OID, epoch)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("objstore: verify epoch %d of group %d: object %d: %w",
				epoch, group, rk.OID, err)
		}
		for _, p := range pages {
			if !seen[p.Ref.Hash] {
				seen[p.Ref.Hash] = true
				refs = append(refs, toCheck{rk.OID, p.Idx, p.pageRef()})
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].ref.Ref.Off < refs[j].ref.Ref.Off })

	buf := make([]byte, BlockSize)
	var r PageReader
	for _, c := range refs {
		err := s.ReadPage(c.ref, buf, &r)
		switch {
		case errors.Is(err, ErrCorruptBlock):
			return fmt.Errorf("%w: epoch %d of group %d, object %d page %d (block at %d)",
				ErrCorruptBlock, epoch, group, c.oid, c.idx, c.ref.Ref.Off)
		case err != nil:
			return fmt.Errorf("objstore: verify epoch %d of group %d: block at %d: %w",
				epoch, group, c.ref.Ref.Off, err)
		}
	}
	return nil
}

// RepairPage writes page pr back from its good bytes: a block in place
// (RepairBlock); a line entry's patch re-cut from page — what the patch
// must hold follows from the page and the entry — and, when base is
// given (a peer's copy under the base's hash), its base block too.
func (s *Store) RepairPage(pr PageRef, page, base []byte) error {
	if !pr.Lined() {
		return s.RepairBlock(pr.Ref, page)
	}
	if base != nil {
		if err := s.RepairBlock(pr.Base, base); err != nil {
			return err
		}
	}
	if len(page) != BlockSize || s.HashPage(page) != pr.Ref.Hash {
		return fmt.Errorf("%w: repair data for the line page with patch at %d does not match its hash",
			ErrCorruptBlock, pr.Ref.Off)
	}
	patch := appendPatch(nil, pr.Base, pr.Mask, page)
	if err := s.devWrite(patch, pr.Ref.Off); err != nil {
		return fmt.Errorf("objstore: repair patch at %d: %w", pr.Ref.Off, err)
	}
	return nil
}

// RepairBlock overwrites the block at ref.Off with data, after
// checking that data actually is the content ref names. This is the
// read-repair write-back: a page served by a healthy peer during
// demand-paging failover heals the primary's copy in place.
func (s *Store) RepairBlock(ref BlockRef, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("objstore: repair block at %d: %d bytes, want %d",
			ref.Off, len(data), BlockSize)
	}
	if s.HashPage(data) != ref.Hash {
		return fmt.Errorf("%w: repair data for block at %d does not match its hash",
			ErrCorruptBlock, ref.Off)
	}
	if err := s.devWrite(data, ref.Off); err != nil {
		return fmt.Errorf("objstore: repair block at %d: %w", ref.Off, err)
	}
	return nil
}
