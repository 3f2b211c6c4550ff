// Package vm implements Aurora's virtual memory substrate: physical
// frames, Mach-style VM objects, simulated page tables, and one
// copy-on-write rule: a write fault on a protected page installs a copy
// shared by *all* processes mapping the object, while the original frame
// stays with whoever protected it — an in-flight checkpoint, a restore's
// image, or the other side of a fork. Fork gives each side of a private
// mapping an object of its own over the same frames, so the rule that
// keeps shared memory shared across a checkpoint keeps private memory
// private across a fork.
//
// The package also provides per-checkpoint-epoch dirty tracking (so a
// page is never flushed twice across incremental checkpoints), heat
// tracking used to drive eager paging on lazy restores, and a clock
// page-replacement algorithm for which the persistent image is the only
// backing store: a clean page leaves memory by dropping its frame and
// comes back through its object's page source.
//
// All memory contents are real bytes; costs (page-table manipulation,
// fault service, page copies) are charged to a Meter so the SLS
// orchestrator can report modeled stop-time breakdowns.
package vm

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/storage"
)

// Page geometry. Aurora uses 4 KiB pages like its FreeBSD host.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Addr is a simulated virtual address.
type Addr uint64

// PageIndex returns the page number containing a.
func (a Addr) PageIndex() int64 { return int64(a >> PageShift) }

// PageOffset returns the offset of a within its page.
func (a Addr) PageOffset() int64 { return int64(a & PageMask) }

// PageBase returns the page-aligned base of a.
func (a Addr) PageBase() Addr { return a &^ Addr(PageMask) }

// RoundUpPage rounds n up to a page multiple.
func RoundUpPage(n int64) int64 { return (n + PageMask) &^ int64(PageMask) }

// Line geometry. An object's dirty set records, per page, which 64-byte
// lines writes have touched since the last barrier: bit i of a page's
// line mask is bytes [64i, 64i+64). A page a write fills any other way —
// a zero-fill, a page-in — is dirty in every line.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
	AllLines  = ^uint64(0)
)

// LineMask returns the mask of the lines that bytes [off, off+n) of a
// page touch; n > 0 and off+n <= PageSize.
func LineMask(off, n int64) uint64 {
	first, last := off>>LineShift, (off+n-1)>>LineShift
	return AllLines >> (63 - (last - first)) << first
}

// Errors returned by the VM layer.
var (
	ErrNoMapping   = errors.New("vm: address not mapped")
	ErrProtection  = errors.New("vm: protection violation")
	ErrMapOverlap  = errors.New("vm: mapping overlaps existing region")
	ErrBadRange    = errors.New("vm: bad address range")
	ErrOutOfMemory = errors.New("vm: out of physical memory")
)

// Prot is a page protection mask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// poisonByte is what Free fills a page with when poisonOnFree is set.
const poisonByte = 0xDB

// Frame is a physical page frame holding real data. A holder owns the
// frame for as long as it keeps a reference; once the last reference
// is freed the allocator hands the same Frame to someone else, so a
// pointer kept past its Free is a use-after-free.
type Frame struct {
	Data []byte // always PageSize bytes
	refs int32  // references from objects and checkpoint flush sets
	// base is the capture whose frame CowFault copied this one from (0:
	// the frame was filled some other way), taker the first capture to
	// take this one since. Both are set once; at taker, the lines the
	// frame's dirty mask leaves out hold what they held at base.
	base, taker uint64
}

// Ref adds a reference to the frame. The caller must already hold one:
// a frame with none is on the free list, or about to be.
func (f *Frame) Ref() {
	if atomic.AddInt32(&f.refs, 1) <= 1 {
		panic("vm: Ref on a freed frame")
	}
}

// Refs returns the current reference count.
func (f *Frame) Refs() int32 { return atomic.LoadInt32(&f.refs) }

// CopiedFrom returns, for the capture (CheckpointSet.Capture) that took
// the frame, the capture of the frame CowFault copied it from: at the
// first capture to take a COW copy, the lines outside its dirty mask
// are that capture's. It returns 0 for a frame that is no COW copy of
// a captured frame, and for any later capture of the same frame, whose
// dirty mask no longer says how it differs from the one it was copied
// from.
func (f *Frame) CopiedFrom(capture uint64) uint64 {
	if f.taker != capture {
		return 0
	}
	return f.base
}

// PhysMem is the physical frame allocator. It tracks residency so the
// pageout daemon and the experiment harness can observe memory
// pressure, and recycles freed frames through a LIFO free list (its
// own, not a sync.Pool: which frame an allocation gets must not depend
// on the garbage collector). It also mints the machine's VM object and
// address-space IDs: an ID's varint width lands in checkpoint metadata
// bytes and so in virtual time, so IDs are per machine — what another
// machine in the same process minted first must not move a run's numbers.
type PhysMem struct {
	maxFrames int64 // 0 = unbounded
	allocated atomic.Int64
	allocs    atomic.Int64
	frees     atomic.Int64

	objectIDs, spaceIDs atomic.Uint64
	// captureIDs numbers the machine's barrier captures (CheckpointSet.
	// Capture), across all its objects. A capture ID is only ever compared
	// for equality, so it lands in no image and no charge.
	captureIDs atomic.Uint64

	mu   sync.Mutex
	free []*Frame // frames with no references, bytes stale
}

// NewPhysMem creates an allocator bounded to maxFrames frames
// (0 = unbounded).
func NewPhysMem(maxFrames int64) *PhysMem {
	return &PhysMem{maxFrames: maxFrames}
}

// reserve accounts for one more resident frame and pops the free list.
// A nil frame with a nil error means the list was empty: the caller
// makes a fresh frame. A recycled frame comes back with one reference
// and whatever bytes its last owner left.
func (pm *PhysMem) reserve() (*Frame, error) {
	if pm.maxFrames > 0 && pm.allocated.Load() >= pm.maxFrames {
		return nil, ErrOutOfMemory
	}
	pm.allocated.Add(1)
	pm.allocs.Add(1)
	pm.mu.Lock()
	var f *Frame
	if n := len(pm.free); n > 0 {
		f = pm.free[n-1]
		pm.free[n-1] = nil
		pm.free = pm.free[:n-1]
	}
	pm.mu.Unlock()
	if f != nil {
		atomic.StoreInt32(&f.refs, 1)
		f.base, f.taker = 0, 0
	}
	return f, nil
}

// Alloc allocates a zeroed frame.
func (pm *PhysMem) Alloc() (*Frame, error) {
	f, err := pm.reserve()
	if err != nil {
		return nil, err
	}
	if f == nil {
		return &Frame{Data: make([]byte, PageSize), refs: 1}, nil
	}
	clear(f.Data)
	return f, nil
}

// AllocData allocates a frame holding src (at most a page), zero-padded
// to a page. Nothing is cleared that src overwrites.
func (pm *PhysMem) AllocData(src []byte) (*Frame, error) {
	f, err := pm.reserve()
	if err != nil {
		return nil, err
	}
	if f == nil {
		// make directly followed by copy: the compiler fuses the two
		// and clears only the tail src does not cover.
		data := make([]byte, PageSize)
		copy(data, src)
		return &Frame{Data: data, refs: 1}, nil
	}
	clear(f.Data[copy(f.Data, src):])
	return f, nil
}

// AllocCopy allocates a frame initialized with the contents of src.
func (pm *PhysMem) AllocCopy(src *Frame) (*Frame, error) {
	return pm.AllocData(src.Data)
}

// Fill allocates a frame and has fetch write a page into it, with no
// buffer in between. It returns (nil, nil) when fetch reports the page
// absent. A recycled frame is handed to fetch as its last owner left
// it, neither cleared nor copied over: fetch owns every byte of it until
// it returns, and the frame leaves Fill only after a fetch that found
// and wrote the whole page. On an error or a miss it goes back on the
// free list, whatever was written to it. A PageSource's PageIn calls it
// once it has found the page.
func (pm *PhysMem) Fill(fetch func(dst []byte) (found bool, err error)) (*Frame, error) {
	f, err := pm.reserve()
	if err != nil {
		return nil, err
	}
	if f == nil {
		f = &Frame{Data: make([]byte, PageSize), refs: 1}
	}
	found, err := fetch(f.Data)
	if err != nil || !found {
		pm.Free(f)
		return nil, err
	}
	return f, nil
}

// Free drops a reference to the frame. At zero the frame goes on the
// free list and its next Alloc may be anyone's, so the caller must not
// touch it again; a count below zero means two owners believed they
// held the same reference, and panics.
func (pm *PhysMem) Free(f *Frame) {
	if f == nil {
		return
	}
	n := atomic.AddInt32(&f.refs, -1)
	if n < 0 {
		panic("vm: frame freed more often than referenced")
	}
	if n > 0 {
		return
	}
	pm.allocated.Add(-1)
	pm.frees.Add(1)
	if poisonOnFree {
		for i := range f.Data {
			f.Data[i] = poisonByte
		}
	}
	pm.mu.Lock()
	pm.free = append(pm.free, f)
	pm.mu.Unlock()
}

// Resident returns the number of allocated frames.
func (pm *PhysMem) Resident() int64 { return pm.allocated.Load() }

// Meter charges VM costs to the virtual clock and counts operations.
// All fields are manipulated atomically; a nil Meter is valid and
// charges nothing, which keeps unit tests lightweight.
type Meter struct {
	Clock *storage.Clock
	Costs storage.CostModel

	Instrs     atomic.Int64
	PTEOps     atomic.Int64
	Faults     atomic.Int64
	CowFaults  atomic.Int64
	PageCopies atomic.Int64
	PageIns    atomic.Int64
	PageOuts   atomic.Int64
	ZeroFills  atomic.Int64
}

// NewMeter builds a meter around a clock using the default cost model.
func NewMeter(clock *storage.Clock) *Meter {
	return &Meter{Clock: clock, Costs: storage.DefaultCosts}
}

// ChargeInstr records n interpreted instructions of CPU time.
func (m *Meter) ChargeInstr(n int64) {
	if m == nil {
		return
	}
	m.Instrs.Add(n)
	if m.Clock != nil && n > 0 {
		m.Clock.Advance(time.Duration(n) * m.Costs.Instr)
	}
}

// ChargePTE records n page-table entry manipulations.
func (m *Meter) ChargePTE(n int64) {
	if m == nil {
		return
	}
	m.PTEOps.Add(n)
	if m.Clock != nil && n > 0 {
		m.Clock.Advance(time.Duration(n) * m.Costs.PTEOp)
	}
}

// ChargeProtect records n bulk COW write-protect operations (range
// PTE updates during a serialization barrier, far cheaper per entry
// than a single PTEOp).
func (m *Meter) ChargeProtect(n int64) {
	if m == nil {
		return
	}
	m.PTEOps.Add(n)
	if m.Clock != nil && n > 0 {
		m.Clock.Advance(time.Duration(n) * m.Costs.ProtectPerPage)
	}
}

// ChargeFault records a page fault trap.
func (m *Meter) ChargeFault() {
	if m == nil {
		return
	}
	m.Faults.Add(1)
	if m.Clock != nil {
		m.Clock.Advance(m.Costs.PageFault)
	}
}

// ChargeCopy records n page copies.
func (m *Meter) ChargeCopy(n int64) {
	if m == nil {
		return
	}
	m.PageCopies.Add(n)
	if m.Clock != nil && n > 0 {
		m.Clock.Advance(time.Duration(n) * m.Costs.PageCopy)
	}
}
