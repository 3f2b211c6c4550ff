package storage

import (
	"fmt"
	"sync"
	"time"
)

// Array stripes I/O across several member devices, modeling the
// paper's testbed of four Optane NVMe drives. Params reports the
// aggregate envelope (bandwidth and queue depth summed over members,
// latency that of one), and large transfers are split into per-member
// chunks at stripe granularity. Every member bills the clock for its own
// chunk, one after another, so an operation costs the sum of the chunks
// it touched, and that sum is what it returns: the members are not
// modeled as running in parallel.
type Array struct {
	members []Device
	stripe  int64
	params  DeviceParams
	// batch is ReadBatch's per-member split, made by the first batch and
	// reused by every later one.
	batch struct {
		mu   sync.Mutex
		bufs [][][]byte
		offs [][]int64
	}
}

// NewArray builds a striped array. All members should share a block
// size; the stripe unit defaults to 64 KiB when stripe <= 0.
func NewArray(members []Device, stripe int64) (*Array, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("storage: array needs at least one member")
	}
	if stripe <= 0 {
		stripe = 64 << 10
	}
	p := members[0].Params()
	agg := p
	agg.Name = fmt.Sprintf("array[%dx%s]", len(members), p.Name)
	agg.ReadBW = p.ReadBW * int64(len(members))
	agg.WriteBW = p.WriteBW * int64(len(members))
	agg.QueueDepth = p.QueueDepth * len(members)
	if p.Capacity > 0 {
		agg.Capacity = p.Capacity * int64(len(members))
	}
	return &Array{members: members, stripe: stripe, params: agg}, nil
}

// Params returns the aggregate performance envelope.
func (a *Array) Params() DeviceParams { return a.params }

// WithClock returns a view of the array whose members charge modeled
// costs to c. Members that cannot redirect are shared as-is.
func (a *Array) WithClock(c *Clock) *Array {
	members := make([]Device, len(a.members))
	for i, m := range a.members {
		members[i] = Redirect(m, c)
	}
	return &Array{members: members, stripe: a.stripe, params: a.params}
}

// Redirect implements Redirector.
func (a *Array) Redirect(c *Clock) Device { return a.WithClock(c) }

// Stats sums the members' counters.
func (a *Array) Stats() DeviceStats {
	var s DeviceStats
	for _, m := range a.members {
		ms := m.Stats()
		s.Reads += ms.Reads
		s.Writes += ms.Writes
		s.Syncs += ms.Syncs
		s.BytesRead += ms.BytesRead
		s.BytesWritten += ms.BytesWritten
		if ms.Busy > s.Busy {
			s.Busy = ms.Busy // members operate in parallel
		}
	}
	return s
}

// locate maps a logical offset to (member, member offset).
func (a *Array) locate(off int64) (int, int64) {
	stripeIdx := off / a.stripe
	member := int(stripeIdx % int64(len(a.members)))
	memberStripe := stripeIdx / int64(len(a.members))
	return member, memberStripe*a.stripe + off%a.stripe
}

// ReadAt implements Device; it costs the sum of its chunks' reads.
func (a *Array) ReadAt(p []byte, off int64) (time.Duration, error) {
	return a.forEachChunk(len(p), off, func(m Device, lo, hi int, moff int64) (time.Duration, error) {
		return m.ReadAt(p[lo:hi], moff)
	})
}

// ChargeRead implements ReadCharger: ReadAt's chunks, each charged to
// its member without a copy.
func (a *Array) ChargeRead(n int, off int64) (time.Duration, error) {
	return a.forEachChunk(n, off, func(m Device, lo, hi int, moff int64) (time.Duration, error) {
		return ChargeRead(m, hi-lo, moff)
	})
}

// Peek implements Peeker: every chunk from its member.
func (a *Array) Peek(p []byte, off int64) bool {
	_, err := a.forEachChunk(len(p), off, func(m Device, lo, hi int, moff int64) (time.Duration, error) {
		if !Peek(m, p[lo:hi], moff) {
			return 0, ErrClosed
		}
		return 0, nil
	})
	return err == nil
}

// WriteAt implements Device.
func (a *Array) WriteAt(p []byte, off int64) (time.Duration, error) {
	return a.forEachChunk(len(p), off, func(m Device, lo, hi int, moff int64) (time.Duration, error) {
		return m.WriteAt(p[lo:hi], moff)
	})
}

// forEachChunk splits the length-byte range at off at stripe boundaries
// and hands each chunk — bytes [lo, hi) of the range — to op with its
// member and member offset. It returns what the chunks cost together.
func (a *Array) forEachChunk(length int, off int64, op func(m Device, lo, hi int, moff int64) (time.Duration, error)) (time.Duration, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	var total time.Duration
	for n := 0; n < length; {
		member, moff := a.locate(off + int64(n))
		span := int(a.stripe - (off+int64(n))%a.stripe)
		if span > length-n {
			span = length - n
		}
		cost, err := op(a.members[member], n, n+span, moff)
		total += cost
		if err != nil {
			return total, err
		}
		n += span
	}
	return total, nil
}

// ReadBatch implements Device: extents scatter across members by the
// striping function and each member overlaps its share at its own
// queue depth; the cost is the sum of the members' batches. The split
// is built in lists the array keeps (batch), one batch at a time, so a
// batch allocates nothing: a demand fault reads a line page's base and
// patch as one.
func (a *Array) ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error) {
	if len(bufs) != len(offs) {
		return 0, ErrBadOffset
	}
	a.batch.mu.Lock()
	defer a.batch.mu.Unlock()
	if a.batch.bufs == nil {
		a.batch.bufs, a.batch.offs = make([][][]byte, len(a.members)), make([][]int64, len(a.members))
	}
	mbufs, moffs := a.batch.bufs, a.batch.offs
	for m := range mbufs {
		mbufs[m], moffs[m] = mbufs[m][:0], moffs[m][:0]
	}
	for i, p := range bufs {
		// Split each extent at stripe boundaries.
		off := offs[i]
		for n := 0; n < len(p); {
			member, moff := a.locate(off + int64(n))
			span := int(a.stripe - (off+int64(n))%a.stripe)
			if span > len(p)-n {
				span = len(p) - n
			}
			mbufs[member] = append(mbufs[member], p[n:n+span])
			moffs[member] = append(moffs[member], moff)
			n += span
		}
	}
	defer func() {
		for m := range mbufs {
			clear(mbufs[m]) // the caller's buffers are not the array's to keep
		}
	}()
	var total time.Duration
	for m := range a.members {
		if len(mbufs[m]) == 0 {
			continue
		}
		c, err := a.members[m].ReadBatch(mbufs[m], moffs[m])
		total += c
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Sync flushes every member; the modeled cost is the sum of theirs.
func (a *Array) Sync() (time.Duration, error) {
	var total time.Duration
	for _, m := range a.members {
		c, err := m.Sync()
		total += c
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// NewOptaneArray builds the paper's testbed storage: n Optane 900P
// class NVMe devices striped together on a shared clock.
func NewOptaneArray(n int, clock *Clock) *Array {
	members := make([]Device, n)
	for i := range members {
		p := ParamsOptaneNVMe
		p.Name = fmt.Sprintf("nvme%d", i)
		members[i] = NewMemDevice(p, clock)
	}
	a, err := NewArray(members, 64<<10)
	if err != nil {
		panic(err) // unreachable: n >= 1 enforced by callers
	}
	return a
}
