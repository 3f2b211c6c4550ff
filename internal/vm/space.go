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
// Objects nobody else maps return their frames to the allocator.
func (as *AddressSpace) UnmapAll() {
	as.mu.Lock()
	maps := as.maps
	as.maps = nil
	as.pt = make(map[Addr]pte)
	as.mu.Unlock()
	for _, m := range maps {
		if m.Obj.Deref() {
			m.Obj.ReleaseAll(as.pm)
		}
	}
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

// readOnlyLocked clears the writable bit of every cached PTE of m,
// charging one PTE operation per entry changed. The caller holds as.mu.
func (as *AddressSpace) readOnlyLocked(m *Mapping) {
	for a := m.Start; a < m.End; a += PageSize {
		if e, ok := as.pt[a]; ok && e.writable {
			e.writable = false
			as.pt[a] = e
			as.meter.ChargePTE(1)
		}
	}
}

// Read copies len(p) bytes from the address space starting at addr.
func (as *AddressSpace) Read(addr Addr, p []byte) error {
	return as.Access(addr, p, false)
}

// Write copies p into the address space starting at addr.
func (as *AddressSpace) Write(addr Addr, p []byte) error {
	return as.Access(addr, p, true)
}

// Access is the unified data path, a write of p to addr or a read into
// it: it walks pages, faulting as needed.
// The fault returns with the object's access bracket held
// (Object.beginAccess), so a write's permission check and its data copy
// are atomic with respect to a serialization barrier, as they would be at
// a real MMU, and no eviction frees a frame under a copy; the bracket is
// released once the copy has landed.
func (as *AddressSpace) Access(addr Addr, p []byte, write bool) error {
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
		switch {
		case write:
			copy(frame.Data[po:po+int64(span)], p[n:n+span])
		case frame != nil:
			copy(p[n:n+span], frame.Data[po:po+int64(span)])
		default:
			zero(p[n : n+span]) // unresident anon page reads as zero
		}
		obj.endAccess()
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
// lines of the page, or a read when lines is zero. A read of an
// unresident anonymous page returns a nil frame: the page reads as zero
// without allocating one. For successful writes the lines are in the
// object's dirty set. A successful fault returns the object with its
// access bracket held (Object.beginAccess); the caller must endAccess
// after copying the data. A fault that finds physical memory full
// returns ErrOutOfMemory with no lock held, for the kernel to reclaim
// and retry.
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

	// From here to the caller's data copy a serialization barrier must not
	// intervene, or a write could mutate a frame the barrier already
	// captured, and the pager must not free the frame being copied.
	obj.beginAccess()
	if !write {
		// Read path: soft fault to install the PTE, then read through
		// the object.
		f := obj.Lookup(idx)
		if f == nil {
			// Demand paging: pull the page from the object's source.
			lf, err := obj.fetchFromSource(as.pm, idx, as.meter)
			if err != nil {
				obj.endAccess()
				return nil, nil, err
			}
			if lf != nil {
				as.meter.ChargeFault()
				as.installPTE(pageBase, false)
				obj.Touch(idx)
			}
			return lf, obj, nil // nil: a zero-fill read, no allocation
		}
		if !havePTE {
			as.installPTE(pageBase, false)
			as.meter.ChargeFault()
		}
		obj.Touch(idx)
		return f, obj, nil
	}

	if havePTE && entry.writable {
		// Fast path: but the page may have been COW-protected by a
		// barrier after this PTE was cached; ProtectObject clears the
		// writable bit, so reaching here means the page is writable.
		if f := obj.Lookup(idx); f != nil && !obj.IsProtected(idx) {
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
			obj.endAccess()
			return nil, nil, err
		}
		obj.MarkDirty(idx, lines)
		as.installPTE(pageBase, true)
		obj.Touch(idx)
		return f, obj, nil
	}

	// Resident in this object, or a page-in or zero-fill allocation.
	f, err := obj.EnsurePage(as.pm, idx, as.meter)
	if err != nil {
		obj.endAccess()
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
func (as *AddressSpace) ProtectObject(obj *Object, pages []Page) int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var ops int64
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		for _, p := range pages {
			a, ok := m.pageAddr(p.Idx)
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

// invalidateObjectPage drops any PTE mapping the given object page;
// the pager calls it for a page it evicted.
func (as *AddressSpace) invalidateObjectPage(obj *Object, idx int64) {
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

// Fork clones the address space with fork semantics: shared mappings
// alias the same object; each mapping of the child keeps the parent's
// (its sls_mctl hints included), and each private one gets an object of
// its own that shares the parent's frames under copy-on-write
// protection (Object.fork), so the first write on either side copies the
// page for that side alone. The parent keeps its objects. A page the
// parent evicted comes back to the child through the page source they
// share (Object.fork).
func (as *AddressSpace) Fork() *AddressSpace {
	child := NewAddressSpace(as.pm, as.meter)
	for _, m := range as.Mappings() {
		obj := m.Obj
		if m.Shared {
			obj.Ref()
		} else {
			// The pages are protected before their PTEs, as a barrier
			// protects them: a write holds the object's barrier lock
			// while it takes as.mu.
			obj = obj.fork(as.pm)
		}
		as.mu.Lock()
		if !m.Shared {
			as.readOnlyLocked(m) // the parent's next write faults and copies
		}
		cm := *m // the sls_mctl hints too
		cm.Obj = obj
		as.mu.Unlock()
		child.maps = append(child.maps, &cm)
	}
	return child
}

// fork returns a fork child's object for a private mapping of o: a new
// object holding o's resident frames, each with a reference of its own,
// and o's page source, immutable and pinned, for the pages neither has
// faulted in — o's evicted pages among them. Every frame is write-protected in both objects as a
// restore's are (capture 0), except where a capture already protects it
// in o, which keeps that one: the first write on either side goes
// through CowFault and copies the page for that side alone.
func (o *Object) fork(pm *PhysMem) *Object {
	c := pm.NewObject(o.Name, 0)
	// Exclude in-flight writes, as a barrier does: a write that passed
	// its permission check lands before the frames are shared.
	o.barrier.Lock()
	defer o.barrier.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	c.Anon, c.size = o.Anon, o.size
	c.setSourceLocked(o.source, 0)
	for idx, f := range o.pages {
		f.Ref()
		c.pages[idx] = f
		c.protected[idx] = 0
		if _, ok := o.protected[idx]; !ok {
			o.protected[idx] = 0
		}
	}
	return c
}

// ReleaseAll frees every resident page of the object and detaches its
// lazy-restore source. Called when an object's last reference is
// dropped.
func (o *Object) ReleaseAll(pm *PhysMem) {
	o.mu.Lock()
	pages := o.pages
	o.pages = make(map[int64]*Frame)
	o.setSourceLocked(nil, 0)
	o.mu.Unlock()
	for _, f := range pages {
		pm.Free(f)
	}
}

// String identifies the address space for debugging.
func (as *AddressSpace) String() string {
	return fmt.Sprintf("as%d(%d mappings)", as.ID, len(as.Mappings()))
}
