package vm

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Object is a Mach-style VM object: a container of pages backing one
// or more mappings. Anonymous memory, shared memory segments, and
// file caches are all Objects. An object reads only its own pages and
// its page source: fork gives each side of a private mapping an object
// of its own, sharing frames under the same copy-on-write protection a
// barrier or a restore uses (Object.fork).
//
// Aurora extends the object with checkpoint state: a protection epoch
// (pages write-protected by the last serialization barrier), a dirty
// set (pages written since the last checkpoint, each with the 64-byte
// lines written), heat counters for clock-driven restore prefetch, and
// the barrier whose store view its page source is, when it is one: a
// clean page of such an object leaves memory by dropping its frame
// (Object.evict) and comes back through the source.
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

	mu    sync.Mutex
	size  int64 // bytes; lookups beyond size still zero-fill for anon
	pages map[int64]*Frame
	refs  int32

	// Aurora checkpoint tracking.
	protected map[int64]uint64 // pages write-protected for COW tracking -> the capture that did (0: a restore)
	captures  *atomic.Uint64   // the machine's capture IDs (PhysMem.captureIDs)
	dirty     map[int64]uint64 // pages written since last checkpoint epoch -> lines written
	heat      []uint32         // access counts for restore prefetch, by page index
	marks     []uint32         // bit per page of heat: touched since the last barrier (growHeatLocked)
	hot       int              // pages ever touched: sizes a full barrier's heat
	touched   int              // pages marked: sizes an incremental barrier's heat
	epoch     uint64           // checkpoint epoch of the last barrier
	source    PageSource       // demand-paging backing: a restore's, or a view (nil = none)
	// viewOf is the epoch whose store view source is (0: none): the
	// object's last barrier (Repoint), or the epoch a restore attached
	// the view of, which stands until the object's first barrier
	// (SetSource). While it stands, every page not dirty reads back from
	// source as it is in memory.
	viewOf uint64
}

// PageHeat is one page's access count. A barrier's heat is a slice of
// them in ascending page order: every non-zero counter for a full
// barrier, the counters touched since the previous barrier for an
// incremental one. A full list is also a valid delta.
type PageHeat struct {
	Page  int64
	Count uint32
}

// MergeHeat is the one rule by which heat resolves along a chain, the
// way pages do: the heat at an epoch is every delta from the chain's full
// image up merged, and a page's count is the one in the newest delta that
// lists it. Both lists are in page order and so is the result. The
// smaller list is folded into the larger in place (FoldRun), so both
// arguments belong to the merge: a caller that still needs one passes a
// copy.
func MergeHeat(older, newer []PageHeat) []PageHeat {
	if len(older) > len(newer) {
		return FoldRun(older, newer, heatPage, false, nil)
	}
	return FoldRun(newer, older, heatPage, true, nil)
}

func heatPage(h *PageHeat) int64 { return h.Page }

// HeatInOrder reports whether heat lists its pages in strictly ascending
// order, the form MergeHeat relies on: a decoder refuses any other.
func HeatInOrder(heat []PageHeat) bool {
	for i := 1; i < len(heat); i++ {
		if heat[i-1].Page >= heat[i].Page {
			return false
		}
	}
	return true
}

// FoldRun folds run add into run base, both strictly ascending by key,
// and returns their union in that order. Where both hold a key, base's
// entry stays when baseWins, else add's is copied over it; lose (if not
// nil) gets the loser. Base is patched in place, O(len(add)·log
// len(base)), and grown — merging from the back — only for keys it
// lacks. add is never written, base only where add wins or into spare
// capacity: a shared base goes in clipped, with baseWins.
func FoldRun[T any](base, add []T, key func(*T) int64, baseWins bool, lose func(*T)) []T {
	if lose == nil {
		lose = func(*T) {}
	}
	extra := 0
	for j := range add {
		i, ok := SearchRun(base, key(&add[j]), key)
		switch {
		case !ok:
			extra++
		case baseWins:
			lose(&add[j])
		default:
			lose(&base[i])
			base[i] = add[j]
		}
	}
	if extra == 0 {
		return base
	}
	// Merge from the back into base grown by the new keys: every entry
	// moves at most once and none is overwritten before it is read.
	i, j := len(base)-1, len(add)-1
	base = slices.Grow(base, extra)[:len(base)+extra]
	for k := len(base) - 1; j >= 0; k-- {
		if i >= 0 && key(&base[i]) >= key(&add[j]) {
			if key(&base[i]) == key(&add[j]) { // resolved above
				j--
			}
			base[k] = base[i]
			i--
		} else {
			base[k] = add[j]
			j--
		}
	}
	return base
}

// SearchRun finds key k in run, strictly ascending by key, the way
// slices.BinarySearchFunc would, without copying an entry.
func SearchRun[T any](run []T, k int64, key func(*T) int64) (int, bool) {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if key(&run[m]) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(run) && key(&run[lo]) == k
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
		protected: make(map[int64]uint64),
		captures:  &pm.captureIDs,
		dirty:     make(map[int64]uint64),
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

// beginAccess and endAccess bracket one access to the object's pages.
// They hold the barrier read-side, so a concurrent serialization barrier
// cannot capture a frame between a write's permission check and its data
// copy, and the pager cannot evict a frame an access is copying.
func (o *Object) beginAccess() { o.barrier.RLock() }

func (o *Object) endAccess() { o.barrier.RUnlock() }

// Epoch returns the checkpoint epoch stamped by the last barrier.
func (o *Object) Epoch() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// Lookup returns the frame resident at page idx (nil if none).
func (o *Object) Lookup(idx int64) *Frame {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pages[idx]
}

// ResidentPages returns the sorted-free list of page indices resident
// in this object.
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
// pm) any previous frame. Used by eager restores and prefetch. A page
// already dirty counts as written in every line from here.
func (o *Object) InsertPage(pm *PhysMem, idx int64, f *Frame) {
	o.mu.Lock()
	old := o.pages[idx]
	o.pages[idx] = f
	if _, dirty := o.dirty[idx]; dirty {
		o.dirty[idx] = AllLines
	}
	o.mu.Unlock()
	if old != nil {
		pm.Free(old)
	}
}

// Touch bumps the heat counter used by clock-driven restore prefetch
// and marks the page touched since the last barrier.
func (o *Object) Touch(idx int64) {
	if idx < 0 {
		return
	}
	o.mu.Lock()
	if idx >= int64(len(o.heat)) {
		o.growHeatLocked(idx)
	}
	if o.heat[idx] == 0 {
		o.hot++
	}
	o.heat[idx]++
	if w, bit := idx/32, uint32(1)<<(idx%32); o.marks[w]&bit == 0 {
		o.marks[w] |= bit
		o.touched++
	}
	o.mu.Unlock()
}

// growHeatLocked makes room for page idx's counter. The counters are a
// dense array as long as the highest page touched; their capacity grows
// the way append grows a slice — to what is needed when that is more
// than double, else by a quarter and then some — rounded up to 32
// counters, or to 2,048 (8 KiB) past 1,024, so that a restored object's
// first scattered touches do not reallocate it again and again. Their
// touch marks, a bit per page of capacity, sit in the same allocation
// behind them, so tracking what an incremental barrier must persist
// costs a touch no allocation of its own.
func (o *Object) growHeatLocked(idx int64) {
	need := int(idx) + 1
	if n := cap(o.heat); need > n {
		if need > 2*n {
			n = need
		}
		for n < need {
			n += (n + 768) / 4
		}
		if n > 1024 {
			n = (n + 2047) &^ 2047
		} else {
			n = (n + 31) &^ 31
		}
		buf := make([]uint32, n+n/32)
		copy(buf, o.heat)
		copy(buf[n:], o.marks)
		o.heat, o.marks = buf[:len(o.heat):n], buf[n:]
	}
	o.heat = o.heat[:need]
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

// takeHeatLocked is a barrier's heat, in page order: every non-zero
// counter when full, else the counters of the pages marked touched
// since the previous barrier — O(touched) plus a scan of the marks, a
// bit per page. Either way every mark is cleared.
func (o *Object) takeHeatLocked(full bool) []PageHeat {
	var out []PageHeat
	switch {
	case full && o.hot > 0:
		out = make([]PageHeat, 0, o.hot)
		for idx, h := range o.heat {
			if h != 0 {
				out = append(out, PageHeat{Page: int64(idx), Count: h})
			}
		}
	case !full && o.touched > 0:
		out = make([]PageHeat, 0, o.touched)
		for w := 0; w < len(o.marks) && len(out) < o.touched; w++ {
			for m := o.marks[w]; m != 0; m &= m - 1 {
				idx := int64(w*32 + bits.TrailingZeros32(m))
				out = append(out, PageHeat{Page: idx, Count: o.heat[idx]})
			}
		}
	}
	if o.touched > 0 {
		clear(o.marks)
		o.touched = 0
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

// PageSource supplies pages on demand: a lazily restored object starts
// empty, with faults pulling pages from the checkpoint image (memory
// backend) or the object store (disk backend), and an object re-pointed
// at a store's view of its last barrier (Object.Repoint) faults back
// the clean pages it evicted.
type PageSource interface {
	// PageIn pages in page idx: the source finds the page once and,
	// only when it holds it, has pm fill a frame with it (PhysMem.Fill).
	// It returns (nil, nil) when the source does not hold the page — the
	// page then zero-fills, and no frame was taken for it — and an error
	// when it cannot tell or cannot read.
	PageIn(pm *PhysMem, idx int64) (*Frame, error)
}

// SourceUsers is implemented by a page source that counts the objects
// paging from it: each object that takes it as its source calls
// Users(1), and Users(-1) when it lets it go (another source, or its
// release). What the source keeps alive — a store epoch — can then
// outlive whoever attached it, for as long as some object reads it.
type SourceUsers interface {
	Users(delta int32)
}

// setSourceLocked makes src the object's page source, a view of epoch
// viewOf (0: none), and tells the old and the new source. The caller
// holds o.mu.
func (o *Object) setSourceLocked(src PageSource, viewOf uint64) {
	users(o.source, -1)
	users(src, 1)
	o.source, o.viewOf = src, viewOf
}

func users(src PageSource, delta int32) {
	if u, ok := src.(SourceUsers); ok {
		u.Users(delta)
	}
}

// SetSource attaches a restore's page source. A nonzero view names the
// store epoch src holds every page of the object at, as the restore left
// it: until the object's first barrier a clean page may then leave
// memory (Object.evict) and fault back from src. A source that holds
// only some pages — the rest are frames the restore installed — is no
// view (0).
func (o *Object) SetSource(src PageSource, view uint64) {
	o.mu.Lock()
	o.setSourceLocked(src, view)
	o.mu.Unlock()
}

// Source returns the object's page source (nil: none).
func (o *Object) Source() PageSource {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.source
}

// Repoint makes src, a store's view of the object at barrier epoch, the
// object's page source, when epoch is the object's last barrier; it
// reports whether it did. From here until the next barrier a page not
// in the dirty set may leave memory (Object.evict): the view gives back
// the bytes it held at that barrier, which no write has changed since.
func (o *Object) Repoint(src PageSource, epoch uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if epoch == 0 || o.epoch != epoch {
		return false
	}
	o.setSourceLocked(src, epoch)
	return true
}

// evict drops clean page idx from memory and returns its frame for the
// caller to free, or nil when the page may not leave: it is not
// resident, it is dirty, the object's source is no view that still
// stands (viewedLocked), or an access is in progress.
func (o *Object) evict(idx int64) *Frame {
	if !o.barrier.TryLock() {
		return nil
	}
	defer o.barrier.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	f := o.pages[idx]
	if _, dirty := o.dirty[idx]; f == nil || dirty || !o.viewedLocked() {
		return nil
	}
	delete(o.pages, idx)
	delete(o.protected, idx)
	return f
}

// pagesFromView reports whether the object's source is a store view that
// still stands: whether any of its pages may leave memory.
func (o *Object) pagesFromView() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.viewedLocked()
}

// viewedLocked reports whether source is a view that still stands: of
// the last barrier, or a restore's before the first. The caller holds
// o.mu.
func (o *Object) viewedLocked() bool {
	return o.viewOf != 0 && (o.viewOf == o.epoch || o.epoch == 0)
}

// fetchFromSource pulls one page from the object's page source into the
// object. It returns (nil, nil) when the source has no such page.
func (o *Object) fetchFromSource(pm *PhysMem, idx int64, meter *Meter) (*Frame, error) {
	o.mu.Lock()
	src := o.source
	if f, ok := o.pages[idx]; ok {
		o.mu.Unlock()
		return f, nil
	}
	o.mu.Unlock()
	if src == nil {
		return nil, nil
	}
	f, err := src.PageIn(pm, idx)
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
