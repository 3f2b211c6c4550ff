package vm

// ProtectedCount returns the number of currently write-protected pages.
func (o *Object) ProtectedCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.protected)
}

// DirtyPages returns the pages written since the last barrier.
func (o *Object) DirtyPages() []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]int64, 0, len(o.dirty))
	for idx := range o.dirty {
		out = append(out, idx)
	}
	return out
}

// Protect changes the protection of the mapping starting at start.
func (as *AddressSpace) Protect(start Addr, prot Prot) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, m := range as.maps {
		if m.Start == start {
			m.Prot = prot
			if prot&ProtWrite == 0 {
				as.readOnlyLocked(m)
			}
			return nil
		}
	}
	return ErrNoMapping
}
