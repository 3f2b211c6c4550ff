package vm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"aurora/internal/storage"
)

// ErrBackendDown marks a paging operation that exhausted its retry
// budget against a backing store that stayed failed (permanently down
// or persistently erroring). It is always returned wrapped with the
// failing page's context; select with errors.Is. The faulting thread
// sees this instead of spinning forever against a dead device.
var ErrBackendDown = errors.New("vm: paging backend down")

// DefaultSwapInRetries bounds how many times a swap-in retries a
// transient read fault before surfacing ErrBackendDown. A permanently
// down device (storage.ErrDeviceDown) short-circuits after the first
// attempt — retrying a dead device buys nothing.
const DefaultSwapInRetries = 3

// Swap is the swap area: page-granularity slots on a simulated device.
type Swap struct {
	dev  storage.Device
	mu   sync.Mutex
	next int64
	free []int64
}

// NewSwap creates a swap area on dev.
func NewSwap(dev storage.Device) *Swap { return &Swap{dev: dev} }

// Device returns the backing device.
func (s *Swap) Device() storage.Device { return s.dev }

// WritePage stores a frame and returns its slot.
func (s *Swap) WritePage(f *Frame) (int64, error) {
	s.mu.Lock()
	var slot int64
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = s.next
		s.next++
	}
	s.mu.Unlock()
	if _, err := s.dev.WriteAt(f.Data, slot*PageSize); err != nil {
		s.FreeSlot(slot)
		return 0, err
	}
	return slot, nil
}

// ReadPage loads a slot into p (which must be PageSize bytes).
func (s *Swap) ReadPage(slot int64, p []byte) error {
	_, err := s.dev.ReadAt(p, slot*PageSize)
	return err
}

// FreeSlot returns a slot to the free list.
func (s *Swap) FreeSlot(slot int64) {
	s.mu.Lock()
	s.free = append(s.free, slot)
	s.mu.Unlock()
}

// AccessedAndClear tests and clears the referenced bit of any PTE in
// this space that maps the given object page (the clock algorithm's
// probe). It reports whether the page had been referenced.
func (as *AddressSpace) AccessedAndClear(obj *Object, idx int64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	ref := false
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		if base, ok := m.pageAddr(idx); ok {
			if e, ok := as.pt[base]; ok && e.accessed {
				e.accessed = false
				as.pt[base] = e
				ref = true
			}
		}
	}
	return ref
}

// Pager implements the clock (second-chance) page-replacement
// algorithm over registered objects, evicting cold pages to swap under
// memory pressure, and the swap-in path that services SwapFaults. The
// paper integrates swap with Aurora so that pages evicted between
// checkpoints are incorporated into the next checkpoint directly from
// the swap area.
type Pager struct {
	pm    *PhysMem
	swap  *Swap
	meter *Meter

	// SwapInRetries overrides DefaultSwapInRetries when > 0.
	SwapInRetries int

	mu      sync.Mutex
	objects []*Object
	spaces  []*AddressSpace
	handObj int // clock hand: object index
}

// NewPager creates a pager.
func NewPager(pm *PhysMem, swap *Swap, meter *Meter) *Pager {
	return &Pager{pm: pm, swap: swap, meter: meter}
}

// Register adds an object to the clock's sweep.
func (p *Pager) Register(obj *Object) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range p.objects {
		if o == obj {
			return
		}
	}
	p.objects = append(p.objects, obj)
}

// RegisterSpace adds an address space whose referenced bits the clock
// consults.
func (p *Pager) RegisterSpace(as *AddressSpace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.spaces {
		if s == as {
			return
		}
	}
	p.spaces = append(p.spaces, as)
}

// UnregisterSpace removes an address space (when its process is
// reaped).
func (p *Pager) UnregisterSpace(as *AddressSpace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.spaces {
		if s == as {
			p.spaces = append(p.spaces[:i], p.spaces[i+1:]...)
			return
		}
	}
}

// Unregister removes objects that died (their process was reaped) and
// returns the swap slots of their paged-out pages to the swap area.
func (p *Pager) Unregister(dead ...*Object) {
	p.mu.Lock()
	p.objects = slices.DeleteFunc(p.objects, func(o *Object) bool { return slices.Contains(dead, o) })
	p.mu.Unlock()
	for _, obj := range dead {
		for _, slot := range obj.takeSwapSlots() {
			p.swap.FreeSlot(slot)
		}
	}
}

// Reclaim runs the clock algorithm until it has evicted up to target
// pages to swap, giving referenced pages a second chance. It returns
// the number of pages evicted. Checkpoint-protected pages are skipped:
// their frames are owned by an in-flight checkpoint and will be
// released when the flush completes.
func (p *Pager) Reclaim(target int) (int, error) {
	if p.swap == nil {
		return 0, errors.New("vm: no swap configured")
	}
	p.mu.Lock()
	objects := make([]*Object, len(p.objects))
	copy(objects, p.objects)
	spaces := make([]*AddressSpace, len(p.spaces))
	copy(spaces, p.spaces)
	p.mu.Unlock()
	if len(objects) == 0 {
		return 0, nil
	}

	evicted := 0
	// Two full sweeps bound the scan: the first clears referenced
	// bits, the second can evict everything if needed.
	for sweep := 0; sweep < 2 && evicted < target; sweep++ {
		for oi := 0; oi < len(objects) && evicted < target; oi++ {
			obj := objects[(p.handObj+oi)%len(objects)]
			pages := obj.ResidentPages()
			sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
			for _, idx := range pages {
				if evicted >= target {
					break
				}
				if obj.IsProtected(idx) {
					continue
				}
				referenced := false
				for _, s := range spaces {
					if s.AccessedAndClear(obj, idx) {
						referenced = true
					}
				}
				if referenced {
					continue // second chance
				}
				if err := p.evict(obj, idx, spaces); err != nil {
					return evicted, err
				}
				evicted++
			}
		}
	}
	p.mu.Lock()
	p.handObj = (p.handObj + 1) % max(len(objects), 1)
	p.mu.Unlock()
	return evicted, nil
}

// evict writes one page to swap and drops it from memory.
func (p *Pager) evict(obj *Object, idx int64, spaces []*AddressSpace) error {
	f := obj.Lookup(idx)
	if f == nil {
		return nil
	}
	slot, err := p.swap.WritePage(f)
	if err != nil {
		return err
	}
	evicted := obj.SwapOut(idx, slot)
	if evicted == nil {
		// Raced with a fault; give the slot back.
		p.swap.FreeSlot(slot)
		return nil
	}
	for _, s := range spaces {
		s.InvalidateObjectPage(obj, idx)
	}
	p.pm.Free(evicted)
	if p.meter != nil {
		p.meter.PageOuts.Add(1)
	}
	// A page evicted after being dirtied must still reach the next
	// checkpoint; it stays in the object's dirty set and the barrier
	// picks it up from its swap slot.
	return nil
}

// SwapIn brings a paged-out page back into memory. Transient device
// errors are retried up to the pager's budget; a backend that stays
// failed (or is permanently down) surfaces a typed error wrapping
// ErrBackendDown so the faulting thread unblocks instead of spinning.
func (p *Pager) SwapIn(obj *Object, idx int64) error {
	slot, ok := obj.SwapSlot(idx)
	if !ok {
		return nil // raced with another swap-in
	}
	f, err := p.pm.Alloc()
	if err != nil {
		return err
	}
	retries := p.SwapInRetries
	if retries <= 0 {
		retries = DefaultSwapInRetries
	}
	var rerr error
	for attempt := 0; attempt <= retries; attempt++ {
		rerr = p.swap.ReadPage(slot, f.Data)
		if rerr == nil {
			break
		}
		if errors.Is(rerr, storage.ErrDeviceDown) {
			// Permanent failure: one attempt is proof enough.
			break
		}
	}
	if rerr != nil {
		p.pm.Free(f)
		return fmt.Errorf("%w: swap-in of page %d (slot %d) after %d attempts: %v",
			ErrBackendDown, idx, slot, retries+1, rerr)
	}
	obj.InsertPage(p.pm, idx, f)
	p.swap.FreeSlot(slot)
	if p.meter != nil {
		p.meter.PageIns.Add(1)
	}
	return nil
}

// SwapInPrivate brings the paged-out pages of every private mapping of
// as back into memory, in page order: a swap slot is one object's, and
// a fork shares its parent's frames, not its slots.
func (p *Pager) SwapInPrivate(as *AddressSpace) error {
	for _, m := range as.Mappings() {
		if m.Shared {
			continue
		}
		for _, idx := range m.Obj.swappedPages() {
			if err := p.SwapIn(m.Obj, idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Resolve services a SwapFault if err is one, returning true when the
// faulting access should be retried.
func (p *Pager) Resolve(err error) (bool, error) {
	var sf *SwapFault
	if !errors.As(err, &sf) {
		return false, err
	}
	if err := p.SwapIn(sf.Obj, sf.Page); err != nil {
		return false, err
	}
	return true, nil
}

// HottestPages orders the pages of a heat snapshot hottest-first, used
// by lazy restore to eagerly page in the working set (the paper's
// clock-derived warm-up). The snapshot itself is left in page order.
func HottestPages(heat []PageHeat) []int64 {
	byCount := append([]PageHeat(nil), heat...)
	sort.Slice(byCount, func(i, j int) bool {
		if byCount[i].Count != byCount[j].Count {
			return byCount[i].Count > byCount[j].Count
		}
		return byCount[i].Page < byCount[j].Page
	})
	out := make([]int64, len(byCount))
	for i, h := range byCount {
		out[i] = h.Page
	}
	return out
}

// SwapRead reads a frozen swap slot (checkpoint incorporation of
// paged-out pages).
func (p *Pager) SwapRead(slot int64, buf []byte) error {
	if p.swap == nil {
		return errors.New("vm: no swap configured")
	}
	return p.swap.ReadPage(slot, buf)
}
