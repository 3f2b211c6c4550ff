package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// cacheRig is a machine whose physical memory holds a fixed number of
// frames, with one store on a device that can be taken down.
type cacheRig struct {
	k   *kernel.Kernel
	o   *Orchestrator
	sb  *StoreBackend
	dev *storage.MemDevice
	fd  *storage.FaultDevice
}

func newCacheRig(frames int64) *cacheRig {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(frames))
	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)
	fd := storage.NewFaultDevice(dev, clock, storage.FaultConfig{})
	return &cacheRig{k: k, o: NewOrchestrator(k), sb: NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock), dev: dev, fd: fd}
}

// spawn starts a counter process with a persistence group of its own on
// backend b.
func (r *cacheRig) spawn(t *testing.T, b Backend) (*kernel.Process, *Group) {
	t.Helper()
	p, err := r.k.Spawn(0, "app")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, b)
	return p, g
}

func (r *cacheRig) checkpoint(t *testing.T, g *Group) {
	t.Helper()
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
}

// heapPages is pages [from, to) of a heap written with tag: no two pages,
// and no two tags, alike.
func heapPages(from, to int, tag byte) []byte {
	b := make([]byte, (to-from)*vm.PageSize)
	for i := range b {
		b[i] = tag ^ byte(i*7+(from*vm.PageSize+i)>>12)
	}
	return b
}

func writeHeap(t *testing.T, p *kernel.Process, from int, data []byte) {
	t.Helper()
	if err := p.WriteMem(p.HeapBase()+vm.Addr(from*vm.PageSize), data); err != nil {
		t.Fatalf("pid %d: writing heap pages from %d: %v", p.PID, from, err)
	}
}

// checkHeap reads want back from p's heap, from page from on, and fails
// on any access error or any page that differs.
func checkHeap(t *testing.T, when string, p *kernel.Process, from int, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if err := p.ReadMem(p.HeapBase()+vm.Addr(from*vm.PageSize), got); err != nil {
		t.Fatalf("%s: pid %d: %v", when, p.PID, err)
	}
	wrong := 0
	for at := 0; at < len(want); at += vm.PageSize {
		if !bytes.Equal(got[at:at+vm.PageSize], want[at:at+vm.PageSize]) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%s: pid %d reads %d of %d heap pages wrong", when, p.PID, wrong, len(want)/vm.PageSize)
	}
}

// TestMemoryIsACacheOfTheStore: a group on a store, with physical memory
// capped at half its working set, writes the working set in two halves
// with a checkpoint and a sync after each. No access fails: a write that
// finds memory full evicts clean pages of the durable epoch, which writes
// no device block, and a read of an evicted page is one store read. The
// live process and a lazy restore of it read every page back
// bit-identical. A heap that is all dirty, and a group with no store,
// evict nothing and fail the write with a typed ErrOutOfMemory; a store
// down at refault time fails the read with a typed ErrBackendDown.
func TestMemoryIsACacheOfTheStore(t *testing.T) {
	const pages = 64
	t.Run("two halves", func(t *testing.T) {
		r := newCacheRig(pages / 2)
		p, g := r.spawn(t, r.sb)
		first, second := heapPages(0, pages/2, 1), heapPages(pages/2, pages, 2)
		writeHeap(t, p, 0, first)
		r.checkpoint(t, g)

		writes := r.dev.Stats().Writes
		writeHeap(t, p, pages/2, second)
		if n := r.dev.Stats().Writes - writes; n != 0 {
			t.Fatalf("evicting for the second half wrote %d device blocks", n)
		}
		if out := r.k.Meter.PageOuts.Load(); out < pages/2 {
			t.Fatalf("%d pages evicted for the second half, want at least %d", out, pages/2)
		}
		r.checkpoint(t, g)

		st, ins := r.dev.Stats(), r.k.Meter.PageIns.Load()
		checkHeap(t, "the live process", p, 0, append(first, second...))
		refaults := r.k.Meter.PageIns.Load() - ins
		if n := r.dev.Stats().Writes - st.Writes; n != 0 {
			t.Fatalf("evicting to read the heap back wrote %d device blocks", n)
		}
		if refaults < pages/2 {
			t.Fatalf("%d refaults reading the heap back, want at least %d", refaults, pages/2)
		}
		// One read a refault, and the index read of the one re-point, at
		// the first fault, to the second epoch.
		if n := r.dev.Stats().Reads - st.Reads; n != refaults+1 {
			t.Fatalf("%d refaults took %d device reads, want one each and one for the re-point", refaults, n)
		}

		ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		np, _ := r.k.Process(ng.PIDs()[0])
		checkHeap(t, "the lazy restore's first half", np, 0, first)
		r.checkpoint(t, ng) // the restored group's own durable epoch: its pages may leave too
		checkHeap(t, "the lazy restore's second half", np, pages/2, second)
		checkHeap(t, "the live process after the restore", p, 0, append(first, second...))
	})

	t.Run("lazy restore", func(t *testing.T) {
		// A lazy restore's source is a view of the epoch it restored:
		// the clean pages it faults in leave memory again before the
		// restored group's first barrier, so it reads a working set twice
		// the cap with no checkpoint of its own.
		r := newCacheRig(pages / 2)
		p, g := r.spawn(t, r.sb)
		heap := append(heapPages(0, pages/2, 7), heapPages(pages/2, pages, 8)...)
		writeHeap(t, p, 0, heap[:len(heap)/2])
		r.checkpoint(t, g)
		writeHeap(t, p, pages/2, heap[len(heap)/2:])
		r.checkpoint(t, g)
		ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		np, _ := r.k.Process(ng.PIDs()[0])
		checkHeap(t, "the lazy restore", np, 0, heap)
		checkHeap(t, "the lazy restore's first half again", np, 0, heap[:len(heap)/2])

		// Its first capture is still full, every page whole, and restores
		// the same heap.
		if _, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: true}); err != nil {
			t.Fatal(err)
		}
		img := ng.LastImage()
		if !img.Full {
			t.Fatalf("the restored group's first checkpoint is %v, want a full one", img)
		}
		for id, mi := range img.Memory {
			for _, pg := range mi.Pages {
				if pg.Lines != vm.AllLines {
					t.Fatalf("object %d page %d captured with lines %#x, want every line", id, pg.Idx, pg.Lines)
				}
			}
		}
		if err := r.o.Sync(ng); err != nil {
			t.Fatal(err)
		}
		k := r.k.Meter.PageOuts.Load()
		back, _, err := r.o.Restore(ng, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		bp, _ := r.k.Process(back.PIDs()[0])
		checkHeap(t, "a restore of the restored group's first checkpoint", bp, 0, heap)
		if r.k.Meter.PageOuts.Load() == k {
			t.Fatal("reading a second restore evicted nothing")
		}
	})

	t.Run("restore over frames", func(t *testing.T) {
		// A restore whose state puts frames in front of an older view
		// names no view: the frames' pages are not what the view holds,
		// so none of them may leave to fault back from it.
		r := newCacheRig(0)
		p, g := r.spawn(t, r.sb)
		writeHeap(t, p, 0, heapPages(0, pages/2, 9))
		r.checkpoint(t, g)
		ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		np, _ := r.k.Process(ng.PIDs()[0])
		heap := heapPages(0, pages/2, 10)
		writeHeap(t, np, 0, heap)
		if _, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: true}); err != nil {
			t.Fatal(err)
		}
		back, _, err := r.o.Restore(ng, ng.Epoch(), RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		bp, _ := r.k.Process(back.PIDs()[0])
		r.k.Reclaim(2 * pages)
		checkHeap(t, "a restore of frames over a view, after a sweep", bp, 0, heap)
	})

	t.Run("all dirty", func(t *testing.T) {
		r := newCacheRig(pages / 2)
		p, g := r.spawn(t, r.sb)
		writeHeap(t, p, 0, heapPages(0, pages/2, 3))
		r.checkpoint(t, g)
		// Rewriting the durable half copies each page: the copies evict
		// the clean pages not yet rewritten, until every page is dirty.
		heap := heapPages(0, pages/2, 4)
		writeHeap(t, p, 0, heap)
		out := r.k.Meter.PageOuts.Load()
		err := p.WriteMem(p.HeapBase()+vm.Addr(pages/2*vm.PageSize), []byte{1})
		if !errors.Is(err, vm.ErrOutOfMemory) {
			t.Fatalf("writing past the cap with every page dirty: %v, want ErrOutOfMemory", err)
		}
		if n := r.k.Meter.PageOuts.Load() - out; n != 0 {
			t.Fatalf("evicted %d dirty pages", n)
		}
		checkHeap(t, "the dirty heap", p, 0, heap)
	})

	t.Run("memory backend only", func(t *testing.T) {
		r := newCacheRig(pages / 2)
		p, g := r.spawn(t, NewMemoryBackend(r.k.Mem, 4))
		heap := heapPages(0, pages/2, 4)
		writeHeap(t, p, 0, heap)
		r.checkpoint(t, g)
		err := p.WriteMem(p.HeapBase()+vm.Addr(pages/2*vm.PageSize), []byte{1})
		if !errors.Is(err, vm.ErrOutOfMemory) {
			t.Fatalf("writing past the cap with no store: %v, want ErrOutOfMemory", err)
		}
		if out := r.k.Meter.PageOuts.Load(); out != 0 {
			t.Fatalf("a group with no store evicted %d pages", out)
		}
		checkHeap(t, "the resident heap", p, 0, heap)
	})

	t.Run("store down", func(t *testing.T) {
		r := newCacheRig(pages / 2)
		p, g := r.spawn(t, r.sb)
		writeHeap(t, p, 0, heapPages(0, pages/2, 5))
		r.checkpoint(t, g)
		writeHeap(t, p, pages/2, heapPages(pages/2, pages, 6)) // evicts the first half
		r.checkpoint(t, g)
		checkHeap(t, "a refault with the store up", p, 0, heapPages(0, 1, 5)) // evicts the second half
		r.fd.Down()
		done := make(chan error, 1)
		go func() {
			var b [1]byte
			done <- p.ReadMem(p.HeapBase()+vm.PageSize, b[:])
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBackendDown) {
				t.Fatalf("refault with the store down: %v, want ErrBackendDown", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("refault with the store down hangs")
		}
	})
}

// TestForkedMemorySurvivesThePager: the pager sweeps a forked child's
// memory as it sweeps its parent's, and neither side of a fork reads a
// zero or the other's write where its own data was — not after a sweep
// once the two share their frames, not after a sweep of the copies
// their writes made, not for pages that were evicted at the fork, which
// the child reads through the page source it shares with its parent.
func TestForkedMemorySurvivesThePager(t *testing.T) {
	const pages = 64
	r := newCacheRig(0)
	parent, g := r.spawn(t, r.sb)
	heapObj := func(p *kernel.Process) *vm.Object { return p.Space.Find(p.HeapBase()).Obj }
	before := heapPages(0, pages, 1)
	writeHeap(t, parent, 0, before)
	r.checkpoint(t, g)
	child, err := r.k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	r.o.AddProcess(g, child)
	if n := r.k.Reclaim(pages); n != pages {
		t.Fatalf("a sweep after the fork evicted %d pages, want the parent's %d", n, pages)
	}
	checkHeap(t, "a sweep after the fork", parent, 0, before)
	checkHeap(t, "a sweep after the fork", child, 0, before)

	childs, parents := heapPages(0, pages, 2), heapPages(0, pages, 3)
	writeHeap(t, child, 0, childs)
	writeHeap(t, parent, 0, parents)
	r.checkpoint(t, g)
	r.k.Reclaim(2 * pages)
	if n := heapObj(child).ResidentCount(); n == pages {
		t.Fatal("the pager never swept the child's heap")
	}
	checkHeap(t, "a sweep of the copies writes made", child, 0, childs)
	checkHeap(t, "a sweep of the copies writes made", parent, 0, parents)

	r.k.Reclaim(2 * pages)
	if n := heapObj(parent).ResidentCount(); n != 0 {
		t.Fatalf("%d of the parent's heap pages still resident before the second fork", n)
	}
	second, err := r.k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	checkHeap(t, "a fork of a heap with pages out", second, 0, parents)
	checkHeap(t, "a fork of a heap with pages out", parent, 0, parents)
}

// TestEvictedPagesPinTheirEpoch: with HistoryLimit 1 and the space
// reclaimer at its emergency floor after every checkpoint, an epoch some
// object pages from — the group's own re-pointed objects, or a fork
// child outside the group that kept its parent's source — is never
// dropped, and every evicted page reads back. Once nothing pages from
// it, the next re-point lets it go.
func TestEvictedPagesPinTheirEpoch(t *testing.T) {
	const pages = 32
	r := newCacheRig(0)
	r.sb.HistoryLimit = 1
	rec := NewReclaimer(r.o, r.sb, RetentionPolicy{KeepLast: 1}, Watermarks{})
	r.sb.SetReclaimer(rec)
	parent, g := r.spawn(t, r.sb)
	checkpoint := func() uint64 {
		t.Helper()
		r.checkpoint(t, g)
		rec.Emergency()
		return g.Epoch()
	}
	holds := func(epoch uint64) bool {
		for _, e := range r.sb.Epochs(g.ID) {
			if e == epoch {
				return true
			}
		}
		return false
	}

	heap := heapPages(0, pages, 1)
	writeHeap(t, parent, 0, heap)
	first := checkpoint()
	if n := r.k.Reclaim(pages); n != pages {
		t.Fatalf("evicted %d pages, want %d", n, pages)
	}
	child, err := r.k.Fork(parent) // outside the group: it keeps the view of the first epoch
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		writeHeap(t, parent, i, heapPages(i, i+1, byte(10+i)))
		copy(heap[i*vm.PageSize:], heapPages(i, i+1, byte(10+i)))
		checkpoint()
		r.k.Reclaim(pages) // re-points the parent at each new epoch
		if !holds(first) {
			t.Fatalf("checkpoint %d dropped epoch %d, which the fork child pages from", i, first)
		}
		checkHeap(t, "the parent", parent, 0, heap)
	}
	checkHeap(t, "the fork child", child, 0, heapPages(0, pages, 1))

	r.k.Exit(child, 0)
	if err := r.k.Reap(child); err != nil {
		t.Fatal(err)
	}
	writeHeap(t, parent, 0, heapPages(0, 1, 20))
	checkpoint()
	r.k.Reclaim(pages)
	checkpoint()
	if holds(first) {
		t.Fatalf("epoch %d is still held with nothing paging from it", first)
	}
}

// TestUnpersistedProcessKeepsItsEpoch: a process that keeps running
// after its group is unpersisted still pages from the store epoch its
// evicted pages come back from. The epoch outlives the group: with
// HistoryLimit 1 and the space reclaimer at its emergency floor after
// each checkpoint of a second group on the same store, every evicted
// page reads back intact. Once the process is reaped, the epoch goes.
func TestUnpersistedProcessKeepsItsEpoch(t *testing.T) {
	const pages = 32
	r := newCacheRig(0)
	r.sb.HistoryLimit = 1
	rec := NewReclaimer(r.o, r.sb, RetentionPolicy{KeepLast: 1}, Watermarks{})
	r.sb.SetReclaimer(rec)
	p, g := r.spawn(t, r.sb)
	heap := heapPages(0, pages, 1)
	writeHeap(t, p, 0, heap)
	r.checkpoint(t, g)
	first := g.Epoch()
	if n := r.k.Reclaim(pages); n != pages {
		t.Fatalf("evicted %d pages, want %d", n, pages)
	}
	r.checkpoint(t, g)
	r.o.Unpersist(g)

	holds := func() bool { return slices.Contains(r.sb.Epochs(g.ID), first) }
	other, og := r.spawn(t, r.sb)
	churn := func() {
		t.Helper()
		for i := 0; i < 3; i++ {
			writeHeap(t, other, 0, heapPages(0, 1, byte(i)))
			r.checkpoint(t, og)
			rec.Emergency()
		}
	}
	churn()
	if !holds() {
		t.Fatalf("epoch %d was dropped while a live process pages from it", first)
	}
	checkHeap(t, "the process of the unpersisted group", p, 0, heap)

	r.k.Exit(p, 0)
	if err := r.k.Reap(p); err != nil {
		t.Fatal(err)
	}
	churn()
	if holds() {
		t.Fatalf("epoch %d is still held with nothing paging from it", first)
	}
}

// TestRemovedSegmentLetsItsEpochGo: a lazily restored shared memory
// segment pages from the store epoch its group was restored at, and
// keeps that epoch after the group is unpersisted and its processes are
// gone, for as long as the segment exists. Once it is removed nothing
// pages from the epoch, and the reclaimer drops it.
func TestRemovedSegmentLetsItsEpochGo(t *testing.T) {
	r := newCacheRig(0)
	rec := NewReclaimer(r.o, r.sb, RetentionPolicy{KeepLast: 1}, Watermarks{})
	r.sb.SetReclaimer(rec)
	p, g := r.spawn(t, r.sb)
	seg, err := r.k.ShmGet(7, 4*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := r.k.ShmAttach(p, seg)
	if err != nil {
		t.Fatal(err)
	}
	payload := heapPages(0, 4, 5)
	if err := p.WriteMem(addr, payload); err != nil {
		t.Fatal(err)
	}
	r.checkpoint(t, g)
	first := g.Epoch()
	writeHeap(t, p, 0, heapPages(0, 1, 6))
	r.checkpoint(t, g)
	reap := func(p *kernel.Process) {
		t.Helper()
		r.k.Exit(p, 0)
		if err := r.k.Reap(p); err != nil {
			t.Fatal(err)
		}
	}
	reap(p)
	if err := r.k.ShmRemove(7); err != nil {
		t.Fatal(err)
	}

	ng, _, err := r.o.Restore(g, first, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	got := make([]byte, vm.PageSize)
	if err := np.ReadMem(addr, got); err != nil || !bytes.Equal(got, payload[:vm.PageSize]) {
		t.Fatalf("the restored segment's first page: %v", err)
	}
	reap(np)
	r.sb.HistoryLimit = 1
	r.o.Unpersist(ng)
	r.o.Unpersist(g)

	holds := func() bool { return slices.Contains(r.sb.Epochs(g.ID), first) }
	other, og := r.spawn(t, r.sb)
	churn := func() {
		t.Helper()
		for i := 0; i < 3; i++ {
			writeHeap(t, other, 0, heapPages(0, 1, byte(i)))
			r.checkpoint(t, og)
			rec.Emergency()
		}
	}
	churn()
	if !holds() {
		t.Fatalf("epoch %d was dropped while a segment pages from it", first)
	}
	if err := r.k.ShmRemove(7); err != nil {
		t.Fatal(err)
	}
	churn()
	if holds() {
		t.Fatalf("epoch %d is still held after the segment that paged from it was removed", first)
	}
}
