package vm

// This file implements the checkpoint side of the VM object: the
// serialization-barrier protocol (BeginCheckpoint), Aurora's shared
// copy-on-write fault rule (CowFault), and the bookkeeping that makes
// incremental checkpoints never flush the same page twice.

import (
	"cmp"
	"slices"
)

// CheckpointSet is the set of frames an in-flight checkpoint owns for
// one object. The barrier takes a reference on every frame so the
// application can keep running (and COW-fault) while the flusher
// writes the original data asynchronously — the paper's "lazy data
// copy".
type CheckpointSet struct {
	Obj   *Object
	Epoch uint64
	// Capture names this capture, unique among the captures of the
	// object's machine: a COW copy of one of its frames reports it to the
	// next capture to take the copy (Frame.CopiedFrom).
	Capture uint64
	// Pages is the captured frames, one run in ascending page index, each
	// with the lines written since the previous barrier. The run is the
	// capture's to hand on: the image takes it as it is.
	Pages []Page
	// Source is the page source a full capture found the object paging
	// from (nil otherwise): a restore's, or a store view of an earlier
	// barrier (Object.Repoint). The checkpoint holds, by name only, every
	// page of it not in Pages: an immutable, pinned epoch, it reads after
	// the barrier as it was at it.
	Source PageSource
	// Heat is the access counters the checkpoint persists to drive
	// clock-based eager paging on restore: all of them (the non-zero
	// ones) for a full barrier, only those touched since the previous
	// barrier for an incremental one. MergeHeat resolves a chain of them.
	Heat []PageHeat
}

// Page is one captured page: its index, its frame as of the barrier, and
// Lines, the 64-byte lines written since the previous barrier — the
// frame differs from the object's page then in those lines only: none
// for a page no write marked, AllLines for a page filled some other way.
// A page that did not come from a barrier says AllLines.
type Page struct {
	Idx   int64
	Frame *Frame
	Lines uint64
}

// PartlyWritten reports whether the page differs from the object's page
// at the previous barrier in some lines but not all.
func (p *Page) PartlyWritten() bool { return p.Lines != AllLines }

// BeginCheckpoint executes the object's part of a serialization
// barrier and returns the frames the checkpoint must flush.
//
// In full mode every resident page is captured; in incremental mode
// only pages dirtied since the previous barrier are captured. An
// object's first capture is full whatever the mode, with every page
// whole (AllLines): no barrier of it came before, so its dirty set —
// empty for a fork child, whose pages are its parent's — says nothing
// about what the checkpoint chain holds for it. Captured
// pages are write-protected: the next write to one triggers CowFault,
// which replaces the page with a copy shared by all mappers while this
// checkpoint keeps the original.
//
// The caller is responsible for reflecting the write-protection into
// every address space that maps the object (see
// AddressSpace.ProtectObject) and for charging PTE costs.
//
// A full capture of a lazily restored object names its restore source
// (CheckpointSet.Source) and reads none of it: the barrier costs what
// the object holds resident, not what it inherits, and cannot fail.
func (o *Object) BeginCheckpoint(epoch uint64, full bool) *CheckpointSet {
	// Exclude in-flight writes: a write that passed its permission check
	// before this barrier finishes its copy before we capture the frame
	// (see Object.BeginWrite).
	o.barrier.Lock()
	defer o.barrier.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()

	cs := &CheckpointSet{Obj: o, Epoch: epoch, Capture: o.captures.Add(1)}
	first := o.epoch == 0
	if full = full || first; full {
		cs.Source = o.source
		cs.Pages = make([]Page, 0, len(o.pages))
		for idx, f := range o.pages {
			lines := o.dirty[idx]
			if first {
				lines = AllLines
			}
			cs.Pages = append(cs.Pages, Page{Idx: idx, Frame: f, Lines: lines})
		}
	} else {
		cs.Pages = make([]Page, 0, len(o.dirty))
		for idx, lines := range o.dirty {
			if f, ok := o.pages[idx]; ok {
				cs.Pages = append(cs.Pages, Page{Idx: idx, Frame: f, Lines: lines})
			}
		}
	}
	slices.SortFunc(cs.Pages, func(a, b Page) int { return cmp.Compare(a.Idx, b.Idx) })
	for _, p := range cs.Pages {
		p.Frame.Ref()
		o.protected[p.Idx] = cs.Capture
		if p.Frame.base != 0 && p.Frame.taker == 0 {
			// A COW copy is o's alone until o's barrier takes it: only
			// the first taker writes this, under o.mu.
			p.Frame.taker = cs.Capture
		}
	}
	cs.Heat = o.takeHeatLocked(full)
	// A new set, not the old one cleared: a map keeps the room of the most
	// it ever held, and clearing or ranging over it costs all of that.
	o.dirty = make(map[int64]uint64)
	o.epoch = epoch
	return cs
}

// IsProtected reports whether page idx is COW-protected by an
// in-flight or durable checkpoint.
func (o *Object) IsProtected(idx int64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.isProtectedLocked(idx)
}

func (o *Object) isProtectedLocked(idx int64) bool {
	_, ok := o.protected[idx]
	return ok
}

// CowFault services a write fault on a checkpoint-protected page using
// Aurora's rule: allocate a new frame, copy the old contents into it,
// and install it as the page seen by every process mapping the object.
// The original frame remains owned by the checkpoint set that
// protected it. The new page is immediately dirty with respect to the
// next checkpoint, in no line yet: it holds what the barrier captured,
// and the faulting write marks the lines it changes. It remembers which
// capture that was (Frame.CopiedFrom): until the next barrier takes it,
// it differs from that capture's frame in its dirty lines only.
//
// This differs from fork-style COW, which would give only the faulting
// process a private copy and thereby break shared-memory semantics —
// the reason stock kernels refuse to COW-track shared pages at all.
func (o *Object) CowFault(pm *PhysMem, idx int64, meter *Meter) (*Frame, error) {
	o.mu.Lock()
	old, ok := o.pages[idx]
	capture, protected := o.protected[idx]
	if !ok || !protected {
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
	fresh.base = capture

	o.mu.Lock()
	// Re-check under the lock; a concurrent fault may have won.
	if cur, ok := o.pages[idx]; !ok || cur != old || !o.isProtectedLocked(idx) {
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
// pulling it from the page source or allocating a zero-filled page as
// needed. A page it fills is dirty in every line.
func (o *Object) EnsurePage(pm *PhysMem, idx int64, meter *Meter) (*Frame, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if f, ok := o.pages[idx]; ok {
		return f, nil
	}
	// Demand paging: a write to a page the source holds pulls it in first.
	if o.source != nil {
		o.mu.Unlock()
		_, err := o.fetchFromSource(pm, idx, meter)
		o.mu.Lock()
		if err != nil {
			return nil, err
		}
		if f, ok := o.pages[idx]; ok {
			o.dirty[idx] = AllLines
			return f, nil
		}
		// The source does not hold the page: zero-fill.
	}
	f, err := o.allocPageLocked(pm, idx)
	if err != nil {
		return nil, err
	}
	if meter != nil {
		meter.ZeroFills.Add(1)
	}
	o.dirty[idx] = AllLines
	return f, nil
}

// InstallSharedPage maps an image-owned frame into the object with
// COW protection: the restored application and the checkpoint image
// share the frame until the application writes, when CowFault gives
// the object a private copy and the image keeps the original. This is
// the paper's zero-copy memory restore. No barrier of o captured the
// frame, so a copy of it names no capture.
func (o *Object) InstallSharedPage(pm *PhysMem, idx int64, f *Frame) {
	f.Ref()
	o.mu.Lock()
	old := o.pages[idx]
	o.pages[idx] = f
	o.protected[idx] = 0
	if end := (idx + 1) << PageShift; end > o.size {
		o.size = end
	}
	o.mu.Unlock()
	if old != nil {
		pm.Free(old)
	}
}
