package vm

import "fmt"

// This file implements the checkpoint side of the VM object: the
// serialization-barrier protocol (BeginCheckpoint), Aurora's shared
// copy-on-write fault rule (CowFault), and the bookkeeping that makes
// incremental checkpoints never flush the same page twice.

// CheckpointSet is the set of frames an in-flight checkpoint owns for
// one object. The barrier takes a reference on every frame so the
// application can keep running (and COW-fault) while the flusher
// writes the original data asynchronously — the paper's "lazy data
// copy".
type CheckpointSet struct {
	Obj   *Object
	Epoch uint64
	// Pages maps object page index -> the frame as of the barrier.
	Pages map[int64]*Frame
	// SwapPages maps page index -> swap slot for pages that were paged
	// out since the last checkpoint; they are incorporated into this
	// checkpoint directly from swap.
	SwapPages map[int64]int64
	// SourcePages lists pages that live only in the object's
	// lazy-restore source (never faulted in): a full checkpoint must
	// pull them from the source or the image would lose them.
	SourcePages map[int64][]byte
	// Heat is a snapshot of the access counters, persisted to drive
	// clock-based eager paging on restore.
	Heat []PageHeat
	// Lines is the object's dirty set as the barrier found it: each page
	// written since the previous barrier, with the lines written
	// (AllLines for a page filled some other way). A page of an
	// incremental capture differs from its contents at the previous
	// barrier in those lines only. The barrier hands the map over and
	// starts the object a new one, so it is never written again.
	Lines map[int64]uint64
}

// PageCount returns the number of in-memory pages in the set.
func (cs *CheckpointSet) PageCount() int { return len(cs.Pages) }

// Release drops the checkpoint's frame references after the flush
// completes.
func (cs *CheckpointSet) Release(pm *PhysMem) {
	for _, f := range cs.Pages {
		pm.Free(f)
	}
	cs.Pages = nil
}

// BeginCheckpoint executes the object's part of a serialization
// barrier and returns the frames the checkpoint must flush.
//
// In full mode every resident page is captured; in incremental mode
// only pages dirtied since the previous barrier are captured. Captured
// pages are write-protected: the next write to one triggers CowFault,
// which replaces the page with a copy shared by all mappers while this
// checkpoint keeps the original.
//
// The caller is responsible for reflecting the write-protection into
// every address space that maps the object (see
// AddressSpace.ProtectObject) and for charging PTE costs.
//
// A full capture of a lazily restored object also takes the pages still
// parked in its restore source. If the source cannot produce one of
// them the barrier fails with an error wrapping ErrBackendDown (and the
// source's own) and the object is left exactly as it was — nothing
// captured, nothing protected, its dirty set intact: an image with a
// hole where the page should be must never be made.
func (o *Object) BeginCheckpoint(epoch uint64, full bool) (*CheckpointSet, error) {
	// Exclude in-flight writes: a write that passed its permission check
	// before this barrier finishes its copy before we capture the frame
	// (see Object.BeginWrite).
	o.barrier.Lock()
	defer o.barrier.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()

	want := len(o.dirty)
	if full {
		want = len(o.pages)
	}
	cs := &CheckpointSet{
		Obj:       o,
		Epoch:     epoch,
		Pages:     make(map[int64]*Frame, want),
		SwapPages: make(map[int64]int64),
		Heat:      o.heatSnapshotLocked(),
	}
	// Pages still parked in the lazy-restore source belong to the image
	// as much as resident ones do. They are fetched first: it is the
	// one step that can fail, and nothing has been changed yet.
	if full && o.source != nil {
		for _, idx := range o.source.Pages() {
			if _, resident := o.pages[idx]; resident {
				continue
			}
			if _, swapped := o.swapSlots[idx]; swapped {
				continue
			}
			data := make([]byte, PageSize)
			found, err := o.source.FetchInto(idx, data)
			if err != nil {
				return nil, fmt.Errorf("%w: capturing page %d of object %q from its restore source: %w", ErrBackendDown, idx, o.Name, err)
			}
			if found {
				if cs.SourcePages == nil {
					cs.SourcePages = make(map[int64][]byte)
				}
				cs.SourcePages[idx] = data
			}
		}
	}
	capture := func(idx int64) {
		if f, ok := o.pages[idx]; ok {
			f.Ref()
			cs.Pages[idx] = f
			o.protected[idx] = true
		} else if slot, ok := o.swapSlots[idx]; ok {
			cs.SwapPages[idx] = slot
		}
	}
	if full {
		for idx := range o.pages {
			capture(idx)
		}
		for idx, slot := range o.swapSlots {
			if _, resident := o.pages[idx]; !resident {
				cs.SwapPages[idx] = slot
			}
		}
	} else {
		for idx := range o.dirty {
			capture(idx)
		}
	}
	cs.Lines = o.dirty
	o.dirty = make(map[int64]uint64)
	o.epoch = epoch
	return cs, nil
}

// ProtectedCount returns the number of currently write-protected pages.
func (o *Object) ProtectedCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.protected)
}

// IsProtected reports whether page idx is COW-protected by an
// in-flight or durable checkpoint.
func (o *Object) IsProtected(idx int64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.protected[idx]
}

// CowFault services a write fault on a checkpoint-protected page using
// Aurora's rule: allocate a new frame, copy the old contents into it,
// and install it as the page seen by every process mapping the object.
// The original frame remains owned by the checkpoint set that
// protected it. The new page is immediately dirty with respect to the
// next checkpoint, in no line yet: it holds what the barrier captured,
// and the faulting write marks the lines it changes.
//
// This differs from fork-style COW, which would give only the faulting
// process a private copy and thereby break shared-memory semantics —
// the reason stock kernels refuse to COW-track shared pages at all.
func (o *Object) CowFault(pm *PhysMem, idx int64, meter *Meter) (*Frame, error) {
	o.mu.Lock()
	old, ok := o.pages[idx]
	if !ok || !o.protected[idx] {
		// Raced with another fault that already resolved it.
		f := o.pages[idx]
		o.mu.Unlock()
		return f, nil
	}
	o.mu.Unlock()

	fresh, err := pm.AllocCopy(old)
	if err != nil {
		return nil, err
	}

	o.mu.Lock()
	// Re-check under the lock; a concurrent fault may have won.
	if cur, ok := o.pages[idx]; !ok || cur != old || !o.protected[idx] {
		cur := o.pages[idx]
		o.mu.Unlock()
		pm.Free(fresh)
		return cur, nil
	}
	o.pages[idx] = fresh
	delete(o.protected, idx)
	o.dirty[idx] |= 0 // in the set; the write adds its lines
	o.mu.Unlock()

	pm.Free(old) // drop the object's reference; the checkpoint still holds one
	if meter != nil {
		meter.CowFaults.Add(1)
		meter.ChargeCopy(1)
	}
	return fresh, nil
}

// Unprotect clears COW protection without a copy. Used when a
// checkpoint aborts, and by tests.
func (o *Object) Unprotect(idx int64) {
	o.mu.Lock()
	delete(o.protected, idx)
	o.mu.Unlock()
}

// allocPageLocked allocates a zero frame at idx. Caller holds o.mu.
func (o *Object) allocPageLocked(pm *PhysMem, idx int64) (*Frame, error) {
	f, err := pm.Alloc()
	if err != nil {
		return nil, err
	}
	o.pages[idx] = f
	if end := (idx + 1) << PageShift; end > o.size {
		o.size = end
	}
	return f, nil
}

// EnsurePage returns the frame backing page idx of this object,
// allocating a zero-filled page (or privately copying a shadow page,
// fork-style) as needed. The returned frame always lives in o itself,
// making it safe to write. Reports whether a fork-style private copy
// was made. A page it fills is dirty in every line.
func (o *Object) EnsurePage(pm *PhysMem, idx int64, meter *Meter) (*Frame, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if f, ok := o.pages[idx]; ok {
		return f, false, nil
	}
	// Lazy restore: a write to an image-backed page pulls it in first.
	if o.source != nil {
		if _, ok := o.swapSlots[idx]; !ok && o.source.HasPage(idx) {
			src := o.source
			o.mu.Unlock()
			f, err := pm.PageIn(src, idx)
			o.mu.Lock()
			if err != nil {
				return nil, false, err
			}
			if cur, ok := o.pages[idx]; ok {
				pm.Free(f)
				o.dirty[idx] = AllLines
				return cur, false, nil
			}
			if f != nil {
				o.pages[idx] = f
				if end := (idx + 1) << PageShift; end > o.size {
					o.size = end
				}
				o.dirty[idx] = AllLines
				if meter != nil {
					meter.PageIns.Add(1)
				}
				return f, false, nil
			}
			// The source does not hold the page after all: zero-fill.
		}
	}
	// Fall through the shadow chain: a hit there must be privately
	// copied up into this object before writing (fork-style COW).
	if f, owner := o.lookupLocked(idx); f != nil && owner != o {
		cp, err := pm.AllocCopy(f)
		if err != nil {
			return nil, false, err
		}
		o.pages[idx] = cp
		o.dirty[idx] = AllLines
		if meter != nil {
			meter.ChargeCopy(1)
		}
		return cp, true, nil
	}
	f, err := o.allocPageLocked(pm, idx)
	if err != nil {
		return nil, false, err
	}
	if meter != nil {
		meter.ZeroFills.Add(1)
	}
	o.dirty[idx] = AllLines
	return f, false, nil
}

// InstallSharedPage maps an image-owned frame into the object with
// COW protection: the restored application and the checkpoint image
// share the frame until the application writes, when CowFault gives
// the object a private copy and the image keeps the original. This is
// the paper's zero-copy memory restore.
func (o *Object) InstallSharedPage(pm *PhysMem, idx int64, f *Frame) {
	f.Ref()
	o.mu.Lock()
	old := o.pages[idx]
	o.pages[idx] = f
	o.protected[idx] = true
	delete(o.swapSlots, idx)
	if end := (idx + 1) << PageShift; end > o.size {
		o.size = end
	}
	o.mu.Unlock()
	if old != nil {
		pm.Free(old)
	}
}

// SwapOut removes page idx from memory, recording its swap slot. The
// caller has already written the frame to the swap device. Returns the
// evicted frame for the caller to release.
func (o *Object) SwapOut(idx int64, slot int64) *Frame {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.pages[idx]
	if !ok {
		return nil
	}
	delete(o.pages, idx)
	delete(o.protected, idx)
	o.swapSlots[idx] = slot
	return f
}

// SwapSlot reports the swap slot of a paged-out page.
func (o *Object) SwapSlot(idx int64) (int64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	slot, ok := o.swapSlots[idx]
	return slot, ok
}

// SwappedPages lists pages currently on swap.
func (o *Object) SwappedPages() map[int64]int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[int64]int64, len(o.swapSlots))
	for k, v := range o.swapSlots {
		out[k] = v
	}
	return out
}
