package objstore

import (
	"errors"
	"fmt"
)

// This file implements the store generation fence: the split-brain
// guard behind replica promotion. Every image a group flushes is
// stamped with the group's store generation (a monotonically
// increasing fencing token). A store remembers, per lineage (the
// original group ID of a checkpoint chain), the highest generation it
// has witnessed and whether it believes it is the lineage's primary.
// A flush stamped with an older generation than the fence is rejected:
// the writer is a stale primary that was superseded by a promotion
// while it was dead or partitioned.
//
// The fence table is persisted in the index and its high-water mark
// additionally lives in the superblock header itself, so even a store
// whose index is rolled back to an older superblock generation cannot
// forget that a promotion happened.

// ErrStaleGeneration rejects a flush stamped with a store generation
// older than the fence: the writer was superseded by a promotion.
var ErrStaleGeneration = errors.New("objstore: stale store generation")

// fenceEntry is one lineage's fencing state.
type fenceEntry struct {
	gen     uint64 // highest generation witnessed for the lineage
	primary bool   // this store believes it is the lineage's primary
}

// FenceGen returns the highest store generation this store has
// witnessed for a lineage (0 = never fenced).
func (s *Store) FenceGen(lineage uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fences[lineage].gen
}

// PrimaryGen reports whether this store believes it is the primary
// for a lineage, and at which generation.
func (s *Store) PrimaryGen(lineage uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fe := s.fences[lineage]
	return fe.gen, fe.primary
}

// SetPrimary claims the primary role for a lineage at the given
// generation. The claim must not move the fence backwards.
func (s *Store) SetPrimary(lineage, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fe := s.fences[lineage]; gen < fe.gen {
		return fmt.Errorf("%w: claiming generation %d for lineage %d behind fence %d",
			ErrStaleGeneration, gen, lineage, fe.gen)
	}
	s.fences[lineage] = fenceEntry{gen: gen, primary: true}
	return nil
}

// AdoptFence raises a lineage's fence to gen without claiming the
// primary role. If the fence actually moves forward, any local
// primary claim is dropped: a higher generation means someone else
// was promoted.
func (s *Store) AdoptFence(lineage, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fe := s.fences[lineage]; gen > fe.gen {
		s.fences[lineage] = fenceEntry{gen: gen, primary: false}
	}
}

// Handoff renounces this store's primary role for a lineage as part
// of a migration handover: the fence rises to gen and any local
// primary claim is dropped in one step, so a restarted source machine
// reading this store back sees itself as a secondary of the new line.
// Unlike AdoptFence — which keeps an existing claim when the fence
// does not actually move — Handoff drops the claim even at an equal
// generation: the handover is explicit, not inferred. It refuses to
// move the fence backwards.
func (s *Store) Handoff(lineage, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fe := s.fences[lineage]; gen < fe.gen {
		return fmt.Errorf("%w: handing off lineage %d at generation %d behind fence %d",
			ErrStaleGeneration, lineage, gen, fe.gen)
	}
	s.fences[lineage] = fenceEntry{gen: gen, primary: false}
	return nil
}

// CheckGen validates a flush stamped with generation gen against the
// lineage's fence. Stale generations are rejected; a newer generation
// is adopted as the new fence (demoting any local primary claim) —
// that is the catch-up path of a returning stale store receiving
// epochs written by the promoted primary.
func (s *Store) CheckGen(lineage, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fe := s.fences[lineage]
	switch {
	case gen < fe.gen:
		return fmt.Errorf("%w: flush stamped generation %d for lineage %d behind fence %d",
			ErrStaleGeneration, gen, lineage, fe.gen)
	case gen > fe.gen:
		s.fences[lineage] = fenceEntry{gen: gen, primary: false}
	}
	return nil
}

func (s *Store) fenceHighLocked() uint64 {
	var hi uint64
	for _, fe := range s.fences {
		if fe.gen > hi {
			hi = fe.gen
		}
	}
	return hi
}
