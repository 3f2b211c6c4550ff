package objstore

// PrimaryLineages lists the lineages this store claims the primary
// role for.
func (s *Store) PrimaryLineages() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for l, fe := range s.fences {
		if fe.primary {
			out = append(out, l)
		}
	}
	return out
}

// FenceHighWater returns the highest fencing generation across all
// lineages — the value published in the superblock header.
func (s *Store) FenceHighWater() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenceHighLocked()
}
