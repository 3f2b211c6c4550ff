package vm

import (
	"fmt"
	"sort"
	"sync"
)

// Mapping is one entry of an address space: a virtual address range
// backed by a window into a VM object.
type Mapping struct {
	Start  Addr
	End    Addr // exclusive
	Obj    *Object
	Off    int64 // byte offset of Start within Obj
	Prot   Prot
	Shared bool // shared mapping: writes go to the object for all mappers
	Name   string
	// NoPersist excludes the mapping from checkpoints (sls_mctl):
	// scratch regions the application can rebuild are skipped to
	// shrink images and stop time.
	NoPersist bool
	// Restore is the sls_mctl lazy-restore policy hint for this
	// mapping's pages.
	Restore RestorePolicy
}

// RestorePolicy is an application hint (sls_mctl) for how a mapping's
// pages should come back at restore time.
type RestorePolicy uint8

// Restore policies.
const (
	// RestoreDefault follows the orchestrator-wide choice.
	RestoreDefault RestorePolicy = iota
	// RestoreEager pages everything in up front (latency-critical
	// regions: index structures, hot code).
	RestoreEager
	// RestoreLazy always faults pages in on demand (cold bulk data).
	RestoreLazy
)

// Len returns the mapping's length in bytes.
func (m *Mapping) Len() int64 { return int64(m.End - m.Start) }

// pageIndex translates a virtual address inside the mapping to a page
// index within the backing object.
func (m *Mapping) pageIndex(a Addr) int64 {
	return (int64(a.PageBase()-m.Start) + m.Off) >> PageShift
}

// pageAddr is the inverse of pageIndex: the virtual address at which
// the mapping shows object page idx, if its window covers that page.
func (m *Mapping) pageAddr(idx int64) (Addr, bool) {
	off := idx<<PageShift - m.Off
	if off < 0 || off >= m.Len() {
		return 0, false
	}
	return m.Start + Addr(off), true
}

// pte is a simulated page-table entry. The data path always reads
// through the VM object (so shared pages can be replaced atomically for
// all mappers, as a kernel pmap would); the pte tracks per-address-
// space permission and the referenced bit used by the clock algorithm.
type pte struct {
	present  bool
	writable bool
	accessed bool
}

// AddressSpace is a simulated process address space: an ordered set of
// mappings plus a page table.
type AddressSpace struct {
	ID uint64

	mu   sync.Mutex
	maps []*Mapping // sorted by Start, non-overlapping
	pt   map[Addr]pte

	pm    *PhysMem
	meter *Meter
}

// NewAddressSpace creates an empty address space, with the next
// address-space ID of pm's machine.
func NewAddressSpace(pm *PhysMem, meter *Meter) *AddressSpace {
	return &AddressSpace{
		ID:    pm.spaceIDs.Add(1),
		pt:    make(map[Addr]pte),
		pm:    pm,
		meter: meter,
	}
}

// Meter returns the cost meter shared by this space.
func (as *AddressSpace) Meter() *Meter { return as.meter }

// PhysMem returns the frame allocator backing this space.
func (as *AddressSpace) PhysMem() *PhysMem { return as.pm }

// Map installs a mapping of length bytes of obj at start (both
// page-aligned; length is rounded up). If start is zero, a free range
// above 0x4000_0000 is chosen. Returns the mapped range.
func (as *AddressSpace) Map(start Addr, length int64, prot Prot, obj *Object, off int64, shared bool, name string) (*Mapping, error) {
	if length <= 0 || off < 0 || off&PageMask != 0 || start&Addr(PageMask) != 0 {
		return nil, ErrBadRange
	}
	length = RoundUpPage(length)

	as.mu.Lock()
	defer as.mu.Unlock()
	if start == 0 {
		start = as.findFreeLocked(length)
	}
	end := start + Addr(length)
	if end <= start {
		return nil, ErrBadRange
	}
	for _, m := range as.maps {
		if start < m.End && m.Start < end {
			return nil, ErrMapOverlap
		}
	}
	obj.Ref()
	obj.Grow(off + length)
	m := &Mapping{Start: start, End: end, Obj: obj, Off: off, Prot: prot, Shared: shared, Name: name}
	as.maps = append(as.maps, m)
	sort.Slice(as.maps, func(i, j int) bool { return as.maps[i].Start < as.maps[j].Start })
	return m, nil
}

// MapAnon creates and maps a fresh anonymous object at a free range.
func (as *AddressSpace) MapAnon(length int64, prot Prot, shared bool, name string) (*Mapping, error) {
	return as.MapAnonAt(0, length, prot, shared, name)
}

// MapAnonAt creates a fresh anonymous object and maps it at start
// (0 = pick a free range). The mapping holds the object's only
// reference, so unmapping it returns the object's frames.
func (as *AddressSpace) MapAnonAt(start Addr, length int64, prot Prot, shared bool, name string) (*Mapping, error) {
	obj := as.pm.NewObject(name, RoundUpPage(length))
	m, err := as.Map(start, length, prot, obj, 0, shared, name)
	// Map took its own reference; drop the construction reference.
	obj.Deref()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// findFreeLocked picks the lowest free range of the given length at or
// above the mmap base.
func (as *AddressSpace) findFreeLocked(length int64) Addr {
	const mmapBase = Addr(0x4000_0000)
	candidate := mmapBase
	for _, m := range as.maps {
		if m.End <= candidate {
			continue
		}
		if m.Start >= candidate+Addr(length) {
			break
		}
		candidate = m.End
	}
	return candidate
}

// Unmap removes all mappings fully contained in [start, start+length).
// Partial unmaps of a mapping are not supported (as in early mmap
// implementations); attempting one returns ErrBadRange.
func (as *AddressSpace) Unmap(start Addr, length int64) error {
	end := start + Addr(RoundUpPage(length))
	as.mu.Lock()
	defer as.mu.Unlock()
	kept := as.maps[:0]
	var removed []*Mapping
	for _, m := range as.maps {
		switch {
		case m.Start >= start && m.End <= end:
			removed = append(removed, m)
		case m.Start < end && start < m.End:
			as.maps = append(kept, as.maps[len(kept):]...)
			return ErrBadRange
		default:
			kept = append(kept, m)
		}
	}
	as.maps = kept
	for _, m := range removed {
		for a := m.Start; a < m.End; a += PageSize {
			delete(as.pt, a)
		}
		if m.Obj.Deref() {
			m.Obj.ReleaseAll(as.pm)
		}
	}
	return nil
}

// UnmapAll tears the whole address space down (process exit): the page
// table is dropped and every mapping gives up its object reference.
// Objects nobody else maps return their frames to the allocator; those
// are returned, for the caller to take out of the pager's sweep.
func (as *AddressSpace) UnmapAll() []*Object {
	as.mu.Lock()
	maps := as.maps
	as.maps = nil
	as.pt = make(map[Addr]pte)
	as.mu.Unlock()
	var dead []*Object
	for _, m := range maps {
		if m.Obj.Deref() {
			m.Obj.ReleaseAll(as.pm)
			dead = append(dead, m.Obj)
		}
	}
	return dead
}

// Find returns the mapping containing addr, or nil.
func (as *AddressSpace) Find(addr Addr) *Mapping {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.findLocked(addr)
}

func (as *AddressSpace) findLocked(addr Addr) *Mapping {
	i := sort.Search(len(as.maps), func(i int) bool { return as.maps[i].End > addr })
	if i < len(as.maps) && as.maps[i].Start <= addr {
		return as.maps[i]
	}
	return nil
}

// Mappings returns a snapshot of the mapping list.
func (as *AddressSpace) Mappings() []*Mapping {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]*Mapping, len(as.maps))
	copy(out, as.maps)
	return out
}

// Protect changes the protection of the mapping starting at start.
func (as *AddressSpace) Protect(start Addr, prot Prot) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, m := range as.maps {
		if m.Start == start {
			m.Prot = prot
			// Downgrade any cached writable PTEs.
			if prot&ProtWrite == 0 {
				for a := m.Start; a < m.End; a += PageSize {
					if p, ok := as.pt[a]; ok && p.writable {
						p.writable = false
						as.pt[a] = p
						as.meter.ChargePTE(1)
					}
				}
			}
			return nil
		}
	}
	return ErrNoMapping
}

// Read copies len(p) bytes from the address space starting at addr.
func (as *AddressSpace) Read(addr Addr, p []byte) error {
	return as.access(addr, p, false)
}

// Write copies p into the address space starting at addr.
func (as *AddressSpace) Write(addr Addr, p []byte) error {
	return as.access(addr, p, true)
}

// access is the unified data path: it walks pages, faulting as needed.
// For writes, the fault returns with the object's write bracket held
// (Object.BeginWrite) so the permission check and the data copy are
// atomic with respect to a serialization barrier, as they would be at
// a real MMU; the bracket is released once the copy has landed.
func (as *AddressSpace) access(addr Addr, p []byte, write bool) error {
	for n := 0; n < len(p); {
		pageBase := (addr + Addr(n)).PageBase()
		po := (addr + Addr(n)).PageOffset()
		span := int(PageSize - po)
		if span > len(p)-n {
			span = len(p) - n
		}
		var lines uint64
		if write {
			lines = LineMask(po, int64(span))
		}
		frame, obj, err := as.fault(pageBase, lines)
		if err != nil {
			return err
		}
		if write {
			copy(frame.Data[po:po+int64(span)], p[n:n+span])
			obj.EndWrite()
		} else if frame != nil {
			copy(p[n:n+span], frame.Data[po:po+int64(span)])
		} else {
			zero(p[n : n+span]) // unresident anon page reads as zero
		}
		n += span
	}
	return nil
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// fault resolves one page access, servicing faults: a write of the given
// lines of the page, or a read when lines is zero. For reads of
// unresident anonymous pages it returns (nil, nil, nil): the page
// reads as zero without allocating a frame. For successful writes the
// lines are in the object's dirty set and the object is returned with
// its write bracket held (Object.BeginWrite); the caller must EndWrite
// after copying the data.
func (as *AddressSpace) fault(pageBase Addr, lines uint64) (*Frame, *Object, error) {
	write := lines != 0
	as.mu.Lock()
	m := as.findLocked(pageBase)
	if m == nil {
		as.mu.Unlock()
		return nil, nil, ErrNoMapping
	}
	if write && m.Prot&ProtWrite == 0 {
		as.mu.Unlock()
		return nil, nil, ErrProtection
	}
	if !write && m.Prot&ProtRead == 0 {
		as.mu.Unlock()
		return nil, nil, ErrProtection
	}
	obj := m.Obj
	idx := m.pageIndex(pageBase)
	entry, havePTE := as.pt[pageBase]
	if havePTE && !entry.accessed {
		entry.accessed = true
		as.pt[pageBase] = entry
	}
	as.mu.Unlock()

	if !write {
		// Read path: soft fault to install the PTE, then read through
		// the object (possibly its shadow chain).
		f, owner := obj.Lookup(idx)
		if f == nil {
			if slot, swapped := obj.SwapSlot(idx); swapped {
				return nil, nil, &SwapFault{Obj: obj, Page: idx, Slot: slot}
			}
			// Lazy restore: pull the page from the checkpoint image.
			lf, err := obj.fetchFromSource(as.pm, idx, as.meter)
			if err != nil {
				return nil, nil, err
			}
			if lf != nil {
				as.meter.ChargeFault()
				as.installPTE(pageBase, false)
				obj.Touch(idx)
				return lf, nil, nil
			}
			return nil, nil, nil // zero-fill read, no allocation
		}
		if !havePTE {
			as.installPTE(pageBase, false)
			as.meter.ChargeFault()
		}
		_ = owner
		obj.Touch(idx)
		return f, nil, nil
	}

	// Write path: from here to the caller's data copy a serialization
	// barrier must not intervene, or the copy could mutate a frame the
	// barrier already captured.
	obj.BeginWrite()
	if _, swapped := obj.SwapSlot(idx); swapped {
		if _, resident := obj.Lookup(idx); resident == nil {
			if slot, ok := obj.SwapSlot(idx); ok {
				obj.EndWrite()
				return nil, nil, &SwapFault{Obj: obj, Page: idx, Slot: slot, Write: true}
			}
		}
	}
	if havePTE && entry.writable {
		// Fast path: but the page may have been COW-protected by a
		// barrier after this PTE was cached; ProtectObject clears the
		// writable bit, so reaching here means the page is writable.
		f, owner := obj.Lookup(idx)
		if f != nil && owner == obj && !obj.IsProtected(idx) {
			obj.MarkDirty(idx, lines)
			obj.Touch(idx)
			return f, obj, nil
		}
	}

	as.meter.ChargeFault()

	// COW-protected page: Aurora's shared-COW rule.
	if obj.IsProtected(idx) {
		f, err := obj.CowFault(as.pm, idx, as.meter)
		if err != nil {
			obj.EndWrite()
			return nil, nil, err
		}
		obj.MarkDirty(idx, lines)
		as.installPTE(pageBase, true)
		obj.Touch(idx)
		return f, obj, nil
	}

	// Resident in this object, or shadow-chain / zero-fill allocation.
	f, _, err := obj.EnsurePage(as.pm, idx, as.meter)
	if err != nil {
		obj.EndWrite()
		return nil, nil, err
	}
	obj.MarkDirty(idx, lines)
	obj.Touch(idx)
	as.installPTE(pageBase, true)
	return f, obj, nil
}

func (as *AddressSpace) installPTE(pageBase Addr, writable bool) {
	as.mu.Lock()
	as.pt[pageBase] = pte{present: true, writable: writable, accessed: true}
	as.mu.Unlock()
	as.meter.ChargePTE(1)
}

// ProtectObject clears the writable bit of every cached PTE that maps
// one of the given object pages, charging one PTE operation per entry
// changed. This is the address-space half of the serialization
// barrier; it returns the number of PTEs manipulated. The work is
// proportional to the pages given, not to the size of the mapping.
func (as *AddressSpace) ProtectObject(obj *Object, pages map[int64]*Frame) int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var ops int64
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		for idx := range pages {
			a, ok := m.pageAddr(idx)
			if !ok {
				continue
			}
			if e, ok := as.pt[a]; ok && e.writable {
				e.writable = false
				as.pt[a] = e
				ops++
			}
		}
	}
	as.meter.ChargeProtect(ops)
	return ops
}

// InvalidateObjectPage drops any PTE mapping the given object page;
// used by the pageout daemon when evicting to swap.
func (as *AddressSpace) InvalidateObjectPage(obj *Object, idx int64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		if base, ok := m.pageAddr(idx); ok {
			if _, ok := as.pt[base]; ok {
				delete(as.pt, base)
				as.meter.ChargePTE(1)
			}
		}
	}
}

// Objects returns the distinct objects mapped by this space.
func (as *AddressSpace) Objects() []*Object {
	as.mu.Lock()
	defer as.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []*Object
	for _, m := range as.maps {
		if !seen[m.Obj.ID] {
			seen[m.Obj.ID] = true
			out = append(out, m.Obj)
		}
	}
	return out
}

// Fork clones the address space with fork semantics: shared mappings
// alias the same object; private mappings get a shadow object so that
// writes in either copy COW privately (the standard mechanism whose
// shared-memory breakage Aurora's checkpoint COW avoids).
func (as *AddressSpace) Fork() *AddressSpace {
	as.mu.Lock()
	defer as.mu.Unlock()
	child := NewAddressSpace(as.pm, as.meter)
	for _, m := range as.maps {
		var obj *Object
		if m.Shared {
			obj = m.Obj
			obj.Ref()
		} else {
			obj = m.Obj.NewShadow(as.pm)
			// The parent must also COW against the snapshot: replace
			// the parent's object with its own fresh shadow so both
			// sides see the pre-fork data and copy up on write.
			parentShadow := m.Obj.NewShadow(as.pm)
			if m.Obj.Deref() {
				// unreachable: the two shadows hold references
				m.Obj.ReleaseAll(as.pm)
			}
			m.Obj = parentShadow
			// Invalidate parent's writable PTEs for this mapping: the
			// next write must COW up into the new shadow.
			for a := m.Start; a < m.End; a += PageSize {
				if e, ok := as.pt[a]; ok && e.writable {
					e.writable = false
					as.pt[a] = e
					as.meter.ChargePTE(1)
				}
			}
		}
		cm := &Mapping{Start: m.Start, End: m.End, Obj: obj, Off: m.Off, Prot: m.Prot, Shared: m.Shared, Name: m.Name}
		child.maps = append(child.maps, cm)
	}
	sort.Slice(child.maps, func(i, j int) bool { return child.maps[i].Start < child.maps[j].Start })
	return child
}

// ReleaseAll frees every resident page of the object and detaches its
// lazy-restore source. Called when an object's last reference is
// dropped.
func (o *Object) ReleaseAll(pm *PhysMem) {
	o.mu.Lock()
	pages := o.pages
	o.pages = make(map[int64]*Frame)
	shadow := o.shadow
	o.shadow = nil
	o.source = nil
	o.mu.Unlock()
	for _, f := range pages {
		pm.Free(f)
	}
	if shadow != nil && shadow.Deref() {
		shadow.ReleaseAll(pm)
	}
}

// String identifies the address space for debugging.
func (as *AddressSpace) String() string {
	return fmt.Sprintf("as%d(%d mappings)", as.ID, len(as.Mappings()))
}

// SwapFault is returned by the data path when an access touches a
// paged-out page; the kernel's pager services it and retries.
type SwapFault struct {
	Obj   *Object
	Page  int64
	Slot  int64
	Write bool
}

// Error implements error.
func (sf *SwapFault) Error() string {
	return fmt.Sprintf("vm: page %d of %s is on swap (slot %d)", sf.Page, sf.Obj, sf.Slot)
}
