package netback

// Partitioned reports whether the session has ended (a partition or a
// loss) and not yet been healed.
func (l *FaultLink) Partitioned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cut
}

// DropFrames scripts deterministic drops: frames numbered from..to
// (inclusive, 1-based, per direction) vanish in flight.
func (l *FaultLink) DropFrames(dir LinkDir, from, to int64) {
	l.mu.Lock()
	l.dirs[dir].scripts = append(l.dirs[dir].scripts, linkScript{from: from, to: to})
	l.mu.Unlock()
}

// FrameCount reports frames written into a direction so far.
func (l *FaultLink) FrameCount(dir LinkDir) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirs[dir].frames
}

// ReceivedBytes reports bytes taken off the wire.
func (r *Receiver) ReceivedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recvd
}
