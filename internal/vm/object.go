package vm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Object is a Mach-style VM object: a container of pages backing one
// or more mappings. Anonymous memory, shared memory segments, and
// file caches are all Objects. Objects form shadow chains for
// fork-style COW: a lookup that misses in the top object falls through
// to its shadow.
//
// Aurora extends the object with checkpoint state: a protection epoch
// (pages write-protected by the last serialization barrier), a dirty
// set (pages written since the last checkpoint, each with the 64-byte
// lines written), heat counters for clock-driven restore prefetch, and
// swap slots.
type Object struct {
	ID   uint64
	Name string // debugging aid: "heap", "stack", "shm:1234", ...
	Anon bool   // anonymous (zero-fill) memory

	// barrier serializes the serialization barrier against in-flight
	// write accesses: BeginCheckpoint holds the write side while it
	// captures frames; the data path holds the read side from the write
	// permission check through the data copy (see AddressSpace.access).
	// On real hardware the check and the store are atomic at the MMU;
	// without this lock a write could land in a frame after the barrier
	// captured it, mutating data the background flusher is reading.
	barrier sync.RWMutex

	mu     sync.Mutex
	size   int64 // bytes; lookups beyond size still zero-fill for anon
	pages  map[int64]*Frame
	shadow *Object // backing object for fork-style COW chains
	refs   int32

	// Aurora checkpoint tracking.
	tracked   bool             // registered with the SLS orchestrator
	protected map[int64]bool   // pages write-protected for COW tracking
	dirty     map[int64]uint64 // pages written since last checkpoint epoch -> lines written
	heat      []uint32         // access counts for restore prefetch, by page index
	hot       int              // pages ever touched: sizes the heat snapshot
	swapSlots map[int64]int64  // page -> swap slot for paged-out pages
	epoch     uint64           // checkpoint epoch of the last barrier
	source    PageSource       // lazy-restore backing (nil = none)
}

// PageHeat is one page's access count in a heat snapshot. Snapshots are
// slices of the non-zero counters in ascending page order.
type PageHeat struct {
	Page  int64
	Count uint32
}

// NewObject creates an anonymous VM object of the given size in bytes,
// with the next object ID of pm's machine.
func (pm *PhysMem) NewObject(name string, size int64) *Object {
	return &Object{
		ID:        pm.objectIDs.Add(1),
		Name:      name,
		Anon:      true,
		size:      size,
		pages:     make(map[int64]*Frame),
		refs:      1,
		protected: make(map[int64]bool),
		dirty:     make(map[int64]uint64),
		swapSlots: make(map[int64]int64),
	}
}

// Ref adds a mapping reference.
func (o *Object) Ref() { atomic.AddInt32(&o.refs, 1) }

// Deref drops a mapping reference and reports whether the object died.
func (o *Object) Deref() bool { return atomic.AddInt32(&o.refs, -1) == 0 }

// Refs returns the current reference count.
func (o *Object) Refs() int32 { return atomic.LoadInt32(&o.refs) }

// Size returns the object's size in bytes.
func (o *Object) Size() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.size
}

// Grow extends the object to at least size bytes.
func (o *Object) Grow(size int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if size > o.size {
		o.size = size
	}
}

// Shadow returns the object's backing object, if any.
func (o *Object) Shadow() *Object {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.shadow
}

// NewShadow creates a shadow object on top of o, as fork does for
// private mappings: the child object starts empty and falls through to
// o on lookup; writes populate the child (fork-style private COW).
func (o *Object) NewShadow(pm *PhysMem) *Object {
	s := pm.NewObject(o.Name+"+shadow", o.Size())
	s.Anon = o.Anon
	o.Ref()
	s.shadow = o
	return s
}

// BeginWrite and EndWrite bracket one write access to the object's
// pages. They hold the barrier read-side so a concurrent serialization
// barrier cannot capture a frame between the write-permission check
// and the data copy.
func (o *Object) BeginWrite() { o.barrier.RLock() }

// EndWrite releases the write-access bracket taken by BeginWrite.
func (o *Object) EndWrite() { o.barrier.RUnlock() }

// SetTracked marks the object as registered with the SLS orchestrator.
func (o *Object) SetTracked(v bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tracked = v
}

// Tracked reports whether the object is under SLS checkpoint tracking.
func (o *Object) Tracked() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tracked
}

// Epoch returns the checkpoint epoch stamped by the last barrier.
func (o *Object) Epoch() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// lookupLocked finds the frame for page idx, walking the shadow chain.
// It returns the frame and the object that owns it (nil if unresident).
func (o *Object) lookupLocked(idx int64) (*Frame, *Object) {
	if f, ok := o.pages[idx]; ok {
		return f, o
	}
	for s := o.shadow; s != nil; {
		s.mu.Lock()
		f, ok := s.pages[idx]
		next := s.shadow
		s.mu.Unlock()
		if ok {
			return f, s
		}
		s = next
	}
	return nil, nil
}

// Lookup finds the frame for page idx, walking the shadow chain.
func (o *Object) Lookup(idx int64) (*Frame, *Object) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lookupLocked(idx)
}

// ResidentPages returns the sorted-free list of page indices resident
// in this object (shadow chain excluded).
func (o *Object) ResidentPages() []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]int64, 0, len(o.pages))
	for idx := range o.pages {
		out = append(out, idx)
	}
	return out
}

// ResidentCount returns the number of pages resident in this object.
func (o *Object) ResidentCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pages)
}

// InsertPage installs a frame at page idx, replacing (and releasing to
// pm) any previous frame. Used by restore and swap-in paths. A page
// already dirty counts as written in every line from here.
func (o *Object) InsertPage(pm *PhysMem, idx int64, f *Frame) {
	o.mu.Lock()
	old := o.pages[idx]
	o.pages[idx] = f
	delete(o.swapSlots, idx)
	if _, dirty := o.dirty[idx]; dirty {
		o.dirty[idx] = AllLines
	}
	o.mu.Unlock()
	if old != nil {
		pm.Free(old)
	}
}

// Touch bumps the heat counter used by clock-driven restore prefetch.
// The counters are a dense array that grows to the highest page
// touched.
func (o *Object) Touch(idx int64) {
	if idx < 0 {
		return
	}
	o.mu.Lock()
	if idx >= int64(len(o.heat)) {
		o.heat = append(o.heat, make([]uint32, idx+1-int64(len(o.heat)))...)
	}
	if o.heat[idx] == 0 {
		o.hot++
	}
	o.heat[idx]++
	o.mu.Unlock()
}

// Heat returns the access count of page idx.
func (o *Object) Heat(idx int64) uint32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if idx < 0 || idx >= int64(len(o.heat)) {
		return 0
	}
	return o.heat[idx]
}

// heatSnapshotLocked lists the non-zero counters in page order.
func (o *Object) heatSnapshotLocked() []PageHeat {
	if o.hot == 0 {
		return nil
	}
	out := make([]PageHeat, 0, o.hot)
	for idx, h := range o.heat {
		if h != 0 {
			out = append(out, PageHeat{Page: int64(idx), Count: h})
		}
	}
	return out
}

// MarkDirty records a write to the given lines of page idx for
// incremental checkpointing.
func (o *Object) MarkDirty(idx int64, lines uint64) {
	o.mu.Lock()
	o.dirty[idx] |= lines
	o.mu.Unlock()
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

// DirtyCount returns the size of the dirty set.
func (o *Object) DirtyCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.dirty)
}

// PageSource supplies pages for lazy restores: a restored object
// starts empty, with faults pulling pages from the checkpoint image
// (memory backend) or the object store (disk backend) on demand.
type PageSource interface {
	// FetchInto writes the page into dst (PageSize bytes, contents
	// undefined) and reports whether the source holds it. When it does
	// the whole of dst is written, a short page zero-padded; when it
	// does not (the page then zero-fills), or on an error, dst is left
	// in no particular state and the caller must not use it.
	FetchInto(idx int64, dst []byte) (found bool, err error)
	// HasPage reports whether the source holds the page. A source that
	// cannot tell says yes, so that the fetch reports why.
	HasPage(idx int64) bool
	// Pages enumerates the source's page indices, so a full
	// checkpoint can capture pages the application never faulted in.
	Pages() []int64
}

// SetSource attaches a lazy-restore page source.
func (o *Object) SetSource(src PageSource) {
	o.mu.Lock()
	o.source = src
	o.mu.Unlock()
}

// Source returns the attached page source, if any.
func (o *Object) Source() PageSource {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.source
}

// fetchFromSource pulls one page from the lazy-restore source into the
// object. It returns (nil, nil) when the source has no such page.
func (o *Object) fetchFromSource(pm *PhysMem, idx int64, meter *Meter) (*Frame, error) {
	o.mu.Lock()
	src := o.source
	if f, ok := o.pages[idx]; ok {
		o.mu.Unlock()
		return f, nil
	}
	o.mu.Unlock()
	if src == nil || !src.HasPage(idx) {
		return nil, nil
	}
	f, err := pm.PageIn(src, idx)
	if f == nil {
		return nil, err
	}
	o.mu.Lock()
	if cur, ok := o.pages[idx]; ok {
		o.mu.Unlock()
		pm.Free(f)
		return cur, nil
	}
	o.pages[idx] = f
	if end := (idx + 1) << PageShift; end > o.size {
		o.size = end
	}
	o.mu.Unlock()
	if meter != nil {
		meter.PageIns.Add(1)
	}
	return f, nil
}

// String identifies the object for debugging.
func (o *Object) String() string {
	return fmt.Sprintf("obj%d(%s,%dB)", o.ID, o.Name, o.Size())
}
