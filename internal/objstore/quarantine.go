package objstore

import (
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

// Unquarantine clears a quarantine mark (e.g. after a successful
// scrub repair re-validated the epoch).
func (s *Store) Unquarantine(group, epoch uint64) {
	s.mu.Lock()
	delete(s.quarantined, manifestID{group, epoch})
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

// VerifyEpoch checks that every data block a restore of (group, epoch)
// would materialize still matches its content hash — the record chains
// of every object in the manifest, resolved exactly the way restore
// resolves them. Metadata lives inside the CRC-protected index and
// needs no separate check; the data blocks are the unprotected bytes.
// The first mismatch aborts with an error wrapping ErrCorruptBlock.
func (s *Store) VerifyEpoch(group, epoch uint64) error {
	s.mu.Lock()
	_, m := s.findManifestLocked(group, epoch)
	if m == nil {
		s.mu.Unlock()
		return ErrNoManifest
	}
	// Collect the full resolved page set per object, deduping shared
	// blocks so each physical block is read once.
	type toCheck struct {
		oid uint64
		idx int64
		ref BlockRef
	}
	seen := make(map[Hash]bool)
	var refs []toCheck
	for _, rk := range m.Records {
		pages, _, err := s.resolvePagesLocked(group, rk.OID, epoch)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("objstore: verify epoch %d of group %d: object %d: %w",
				epoch, group, rk.OID, err)
		}
		for idx, ref := range pages {
			if seen[ref.Hash] {
				continue
			}
			seen[ref.Hash] = true
			refs = append(refs, toCheck{rk.OID, idx, ref})
		}
	}
	s.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].ref.Off < refs[j].ref.Off })

	buf := make([]byte, BlockSize)
	for _, c := range refs {
		if err := s.devRead(buf, c.ref.Off); err != nil {
			return fmt.Errorf("objstore: verify epoch %d of group %d: block at %d: %w",
				epoch, group, c.ref.Off, err)
		}
		if s.HashPage(buf) != c.ref.Hash {
			return fmt.Errorf("%w: epoch %d of group %d, object %d page %d (block at %d)",
				ErrCorruptBlock, epoch, group, c.oid, c.idx, c.ref.Off)
		}
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
