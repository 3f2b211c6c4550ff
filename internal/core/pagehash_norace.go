//go:build !race

package core

// snapshot copies the digest's chaining words, at a block boundary, to m.
func (h *pageHasher) snapshot(m *midstate) {
	b, _ := h.save(h.state[:0])
	copy(m[:], b[len(sha256Magic):])
}
