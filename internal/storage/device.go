package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Common device errors.
var (
	// ErrOutOfSpace is returned when a bounded device is full.
	ErrOutOfSpace = errors.New("storage: device out of space")
	// ErrBadOffset is returned for negative or misaligned offsets.
	ErrBadOffset = errors.New("storage: bad offset")
	// ErrClosed is returned after a device has been closed.
	ErrClosed = errors.New("storage: device closed")
)

// Device is a simulated block device. Reads and writes move real bytes
// and additionally charge a modeled cost to the device's Clock. Offsets
// are arbitrary byte offsets; devices store data sparsely so petabyte
// address spaces cost only what is written.
//
// Cost accounting: every operation charges the device's clock the
// modeled time it occupied the device, as if it were the only one in
// flight, and returns that time. Overlap is the issuer's to model, and
// exactly two issuers do. Reads: the restore path hands ReadBatch a
// whole extent list and the device divides by its queue depth. Writes:
// there is no batched write — a decorator that forwards only the
// methods below (FaultDevice, a tracing wrapper) must see every write
// as one WriteAt — so the object store's flush path bills its device
// view to a scratch clock (Redirect, Clock.Drain), issues an epoch's
// writes one call at a time and charges its lane Batch(Params(), n,
// mean) once for all of them (objstore.Store.Overlapped). Every other
// caller — file system sync, the NT log, scrub and repair, demand
// paging — is
// synchronous I/O on its caller's timeline: one operation at a time.
type Device interface {
	// ReadAt reads len(p) bytes at off. Unwritten regions read as zero.
	ReadAt(p []byte, off int64) (time.Duration, error)
	// WriteAt writes len(p) bytes at off.
	WriteAt(p []byte, off int64) (time.Duration, error)
	// ReadBatch reads several extents concurrently at the device's
	// queue depth: the modeled cost divides by the effective
	// parallelism, which is how NVMe hardware actually behaves and
	// what makes bulk image reads fast.
	ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error)
	// Sync models a durability barrier (e.g. a flush/FUA) and returns
	// its cost.
	Sync() (time.Duration, error)
	// Params returns the device's performance envelope.
	Params() DeviceParams
	// Stats returns cumulative operation counters.
	Stats() DeviceStats
}

// DeviceStats are cumulative counters for a device.
type DeviceStats struct {
	Reads        int64
	Writes       int64
	Syncs        int64
	BytesRead    int64
	BytesWritten int64
	Busy         time.Duration // total modeled device-busy time
}

// Redirector is implemented by devices that can produce a view of
// themselves charging modeled costs to a different clock. Background
// flush lanes use this so overlapped I/O does not stall the foreground
// virtual timeline.
type Redirector interface {
	Redirect(c *Clock) Device
}

// Redirect returns a view of dev charging costs to c when the device
// supports redirection, and dev itself otherwise.
func Redirect(dev Device, c *Clock) Device {
	if r, ok := dev.(Redirector); ok {
		return r.Redirect(c)
	}
	return dev
}

// ResidentReporter is implemented by devices that can report how many
// bytes are physically resident. Space-pressure watermarks are computed
// from Resident() against Params().Capacity.
type ResidentReporter interface {
	Resident() int64
}

// Trimmer is implemented by devices that support releasing a byte range
// back to the free pool (TRIM).
type Trimmer interface {
	Discard(off, length int64)
}

// ReadCharger is implemented by devices that can bill a read without
// moving its bytes: ChargeRead(n, off) counts, costs and — on a faulty
// device — draws its fate exactly as ReadAt of an n-byte buffer at off
// would, but copies nothing. It is for callers that model a read whose
// contents they already hold (see ChargeRead).
type ReadCharger interface {
	ChargeRead(n int, off int64) (time.Duration, error)
}

// ChargeRead bills dev for reading n bytes at off: through ReadCharger
// when dev has it, else by reading into a buffer that is thrown away.
func ChargeRead(dev Device, n int, off int64) (time.Duration, error) {
	if c, ok := dev.(ReadCharger); ok {
		return c.ChargeRead(n, off)
	}
	return dev.ReadAt(make([]byte, n), off)
}

// Peeker is implemented by devices that can copy out what they hold
// without billing, counting or faulting the read. It is for assertions:
// a check compiled into race builds reads the media through it, so
// checking an operation moves no clock, counter or fault schedule.
type Peeker interface {
	Peek(p []byte, off int64) bool
}

// Peek copies dev's bytes at off into p through Peeker, and reports
// false when dev cannot (or is closed).
func Peek(dev Device, p []byte, off int64) bool {
	pk, ok := dev.(Peeker)
	return ok && pk.Peek(p, off)
}

// ResidentBytes reports dev's resident byte count, unwrapping fault or
// redirection layers that forward the capability. It returns -1 when the
// device cannot report residency.
func ResidentBytes(dev Device) int64 {
	if r, ok := dev.(ResidentReporter); ok {
		return r.Resident()
	}
	return -1
}

// DiscardRange TRIMs [off, off+length) on dev when the device supports
// it, and is a no-op otherwise.
func DiscardRange(dev Device, off, length int64) {
	if t, ok := dev.(Trimmer); ok {
		t.Discard(off, length)
	}
}

// memCore is the shared state behind a MemDevice and all of its
// clock-redirected views: one set of blocks, counters, and locks.
type memCore struct {
	mu     sync.RWMutex
	blocks map[int64][]byte // block index -> block contents
	used   int64            // bytes resident
	closed bool
	stats  DeviceStats
}

// MemDevice is the standard Device implementation: a sparse in-memory
// block store plus the cost model from its DeviceParams. It is safe for
// concurrent use.
type MemDevice struct {
	*memCore
	params DeviceParams
	clock  *Clock
}

// NewMemDevice creates a device with the given performance profile.
// The clock may be shared among many devices; it is advanced by the
// modeled cost of every operation performed synchronously.
func NewMemDevice(params DeviceParams, clock *Clock) *MemDevice {
	if params.BlockSize <= 0 {
		params.BlockSize = 4096
	}
	return &MemDevice{
		memCore: &memCore{blocks: make(map[int64][]byte)},
		params:  params,
		clock:   clock,
	}
}

// WithClock returns a view sharing all device state (blocks, capacity
// accounting, stats) but charging modeled costs to c.
func (d *MemDevice) WithClock(c *Clock) *MemDevice {
	return &MemDevice{memCore: d.memCore, params: d.params, clock: c}
}

// Redirect implements Redirector.
func (d *MemDevice) Redirect(c *Clock) Device { return d.WithClock(c) }

// Params returns the device's performance envelope.
func (d *MemDevice) Params() DeviceParams { return d.params }

// Stats returns a snapshot of the cumulative counters.
func (d *MemDevice) Stats() DeviceStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// Resident returns the number of bytes physically resident on the
// device (sparse regions excluded).
func (d *MemDevice) Resident() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.used
}

// Close marks the device closed; subsequent operations fail.
func (d *MemDevice) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	if !d.Peek(p, off) {
		return 0, ErrClosed
	}
	return d.chargeRead(len(p)), nil
}

// Peek implements Peeker.
func (d *MemDevice) Peek(p []byte, off int64) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed || off < 0 {
		return false
	}
	bs := int64(d.params.BlockSize)
	for n := 0; n < len(p); {
		blk := (off + int64(n)) / bs
		bo := (off + int64(n)) % bs
		span := int(bs - bo)
		if span > len(p)-n {
			span = len(p) - n
		}
		if b, ok := d.blocks[blk]; ok {
			copy(p[n:n+span], b[bo:bo+int64(span)])
		} else {
			zero(p[n : n+span])
		}
		n += span
	}
	return true
}

// ChargeRead implements ReadCharger.
func (d *MemDevice) ChargeRead(n int, off int64) (time.Duration, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	d.mu.RLock()
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	return d.chargeRead(n), nil
}

// chargeRead counts and bills one read of n bytes.
func (d *MemDevice) chargeRead(n int) time.Duration {
	cost := d.params.readCost(n)
	d.account(func(s *DeviceStats) {
		s.Reads++
		s.BytesRead += int64(n)
		s.Busy += cost
	})
	d.clock.Advance(cost)
	return cost
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, ErrClosed
	}
	bs := int64(d.params.BlockSize)
	if d.params.Capacity > 0 && len(p) > 0 {
		// Only bytes the write would newly materialize count against
		// capacity: rewriting resident blocks in place must keep working
		// on a full device or reclamation could never publish its own
		// results (superblock slots, reused free-list blocks).
		var growth int64
		for blk := off / bs; blk <= (off+int64(len(p))-1)/bs; blk++ {
			if _, ok := d.blocks[blk]; !ok {
				growth += bs
			}
		}
		if d.used+growth > d.params.Capacity {
			d.mu.Unlock()
			return 0, ErrOutOfSpace
		}
	}
	for n := 0; n < len(p); {
		blk := (off + int64(n)) / bs
		bo := (off + int64(n)) % bs
		span := int(bs - bo)
		if span > len(p)-n {
			span = len(p) - n
		}
		b, ok := d.blocks[blk]
		if !ok {
			b = make([]byte, bs)
			d.blocks[blk] = b
			d.used += bs
		}
		copy(b[bo:bo+int64(span)], p[n:n+span])
		n += span
	}
	d.mu.Unlock()

	cost := d.params.writeCost(len(p))
	d.account(func(s *DeviceStats) {
		s.Writes++
		s.BytesWritten += int64(len(p))
		s.Busy += cost
	})
	d.clock.Advance(cost)
	return cost, nil
}

// ReadBatch implements Device: data moves like sequential ReadAt calls
// but the modeled time overlaps requests at the queue depth.
func (d *MemDevice) ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error) {
	if len(bufs) != len(offs) {
		return 0, ErrBadOffset
	}
	if len(bufs) == 0 {
		return 0, nil
	}
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return 0, ErrClosed
	}
	bs := int64(d.params.BlockSize)
	var bytesTotal int64
	for i, p := range bufs {
		off := offs[i]
		if off < 0 {
			d.mu.RUnlock()
			return 0, ErrBadOffset
		}
		for n := 0; n < len(p); {
			blk := (off + int64(n)) / bs
			bo := (off + int64(n)) % bs
			span := int(bs - bo)
			if span > len(p)-n {
				span = len(p) - n
			}
			if b, ok := d.blocks[blk]; ok {
				copy(p[n:n+span], b[bo:bo+int64(span)])
			} else {
				zero(p[n : n+span])
			}
			n += span
		}
		bytesTotal += int64(len(p))
	}
	d.mu.RUnlock()

	per := d.params.readCost(int(bytesTotal) / len(bufs))
	cost := Batch(d.params, len(bufs), per)
	d.account(func(s *DeviceStats) {
		s.Reads += int64(len(bufs))
		s.BytesRead += bytesTotal
		s.Busy += cost
	})
	d.clock.Advance(cost)
	return cost, nil
}

// Discard drops a byte range, releasing resident blocks (TRIM). Partial
// blocks at the edges are zeroed rather than released.
func (d *MemDevice) Discard(off, length int64) {
	if off < 0 || length <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	bs := int64(d.params.BlockSize)
	end := off + length
	for pos := off; pos < end; {
		blk := pos / bs
		bo := pos % bs
		span := bs - bo
		if span > end-pos {
			span = end - pos
		}
		if b, ok := d.blocks[blk]; ok {
			if bo == 0 && span == bs {
				delete(d.blocks, blk)
				d.used -= bs
			} else {
				zero(b[bo : bo+span])
			}
		}
		pos += span
	}
}

// Sync implements Device. The cost models a full-latency round trip.
func (d *MemDevice) Sync() (time.Duration, error) {
	d.mu.RLock()
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	cost := d.params.Latency
	d.account(func(s *DeviceStats) {
		s.Syncs++
		s.Busy += cost
	})
	d.clock.Advance(cost)
	return cost, nil
}

func (d *MemDevice) account(f func(*DeviceStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// Batch models a group of I/Os issued concurrently at the device's
// queue depth: the wall-clock cost of n operations of individual cost c
// is n*c divided by the queue depth, but never less than one operation.
func Batch(p DeviceParams, n int, each time.Duration) time.Duration {
	if n <= 0 {
		return 0
	}
	qd := p.QueueDepth
	if qd < 1 {
		qd = 1
	}
	total := time.Duration(n) * each / time.Duration(qd)
	if total < each {
		total = each
	}
	return total
}

// String describes the device for logs and harness output.
func (d *MemDevice) String() string {
	return fmt.Sprintf("%s(%s)", d.params.Name, d.params.Class)
}
