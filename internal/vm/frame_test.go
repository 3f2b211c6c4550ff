package vm

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// fill returns a page of b.
func fill(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

// TestFrameRecycling: a freed frame is what the next allocation gets,
// and each allocator entry point leaves it holding exactly what it
// promises whatever the last owner wrote.
func TestFrameRecycling(t *testing.T) {
	pm := NewPhysMem(0)
	f, _ := pm.Alloc()
	copy(f.Data, fill(0x5A))
	pm.Free(f)
	if pm.Resident() != 0 {
		t.Fatalf("resident = %d after the only frame was freed", pm.Resident())
	}

	z, _ := pm.Alloc()
	if z != f {
		t.Fatal("Alloc after Free made a fresh frame instead of recycling")
	}
	if !bytes.Equal(z.Data, make([]byte, PageSize)) {
		t.Fatal("recycled frame from Alloc is not zeroed")
	}
	if z.Refs() != 1 || pm.Resident() != 1 {
		t.Fatalf("recycled frame has %d refs, resident %d; want 1, 1", z.Refs(), pm.Resident())
	}

	src, _ := pm.Alloc()
	copy(src.Data, fill(0xC3))
	copy(z.Data, fill(0x5A))
	pm.Free(z)
	c, _ := pm.AllocCopy(src)
	if c != f || !bytes.Equal(c.Data, src.Data) {
		t.Fatal("AllocCopy on a recycled frame does not hold the source bytes")
	}

	copy(c.Data, fill(0x5A))
	pm.Free(c)
	short, _ := pm.AllocData([]byte("tail must be zero"))
	want := make([]byte, PageSize)
	copy(want, "tail must be zero")
	if short != f || !bytes.Equal(short.Data, want) {
		t.Fatal("AllocData of a short slice left stale bytes behind it")
	}
	fresh, _ := pm.AllocData([]byte("tail must be zero"))
	if fresh == f || !bytes.Equal(fresh.Data, want) {
		t.Fatal("AllocData on an empty free list: wrong frame or contents")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	pm := NewPhysMem(0)
	f, _ := pm.Alloc()
	pm.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("second Free of one reference did not panic")
		}
	}()
	pm.Free(f)
}

func TestRefOnFreedFramePanics(t *testing.T) {
	pm := NewPhysMem(0)
	f, _ := pm.Alloc()
	pm.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("Ref on a frame sitting on the free list did not panic")
		}
	}()
	f.Ref()
}

// TestBoundHoldsAcrossRecycling: the free list changes where frames come
// from, not how many may be resident.
func TestBoundHoldsAcrossRecycling(t *testing.T) {
	pm := NewPhysMem(2)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	for i := 0; i < 3; i++ {
		if _, err := pm.Alloc(); err != ErrOutOfMemory {
			t.Fatalf("round %d: third frame = %v, want ErrOutOfMemory", i, err)
		}
		if _, err := pm.AllocCopy(a); err != ErrOutOfMemory {
			t.Fatalf("round %d: third frame by copy = %v, want ErrOutOfMemory", i, err)
		}
		pm.Free(b)
		var err error
		if b, err = pm.AllocCopy(a); err != nil {
			t.Fatalf("round %d: alloc after free: %v", i, err)
		}
		if pm.Resident() != 2 {
			t.Fatalf("round %d: resident = %d, want 2", i, pm.Resident())
		}
	}
}

// TestWarmCowFaultAllocatesNoPage: once the free list holds frames, a
// COW fault copies into a recycled one — no 4 KiB allocation, and on
// average not even a small one.
func TestWarmCowFaultAllocatesNoPage(t *testing.T) {
	const pages = 256
	pm, as, m := cowFixture(t, pages, pages)
	cs := barrier(as, m, 1, true)
	defer release(pm, cs)

	next := 0
	one := []byte{0xFF}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perFault := testing.AllocsPerRun(pages-2, func() {
		if err := as.Write(m.Start+Addr(next*PageSize), one); err != nil {
			t.Fatal(err)
		}
		next++
	})
	runtime.ReadMemStats(&after)
	if m.Obj.ProtectedCount() != pages-next {
		t.Fatalf("%d pages still protected after %d writes: the writes did not COW-fault", m.Obj.ProtectedCount(), next)
	}
	if perFault != 0 {
		t.Errorf("a warm COW fault makes %v allocations, want 0", perFault)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(next)*PageSize/4 {
		t.Errorf("%d warm COW faults allocated %d bytes: page frames are not being recycled", next, grew)
	}
}

// TestProtectObjectByCapturedSet: the PTE operations of a barrier are
// those of the captured pages, wherever the object sits in its mapping
// and however much larger the mapping is.
func TestProtectObjectByCapturedSet(t *testing.T) {
	pm := NewPhysMem(0)
	meter := NewMeter(nil)
	as := NewAddressSpace(pm, meter)
	obj := pm.NewObject("shared", 64*PageSize)
	// Two windows onto the same object: pages 8.. and pages 0..
	hi, err := as.Map(0, 32*PageSize, ProtRead|ProtWrite, obj, 8*PageSize, true, "hi")
	if err != nil {
		t.Fatal(err)
	}
	lo, err := as.Map(0, 16*PageSize, ProtRead|ProtWrite, obj, 0, true, "lo")
	if err != nil {
		t.Fatal(err)
	}
	obj.Deref()
	// Page 10 written through both windows, page 2 through lo only,
	// page 39 through hi only (outside lo's window).
	for _, a := range []Addr{hi.Start + 2*PageSize, lo.Start + 10*PageSize, lo.Start + 2*PageSize, hi.Start + 31*PageSize} {
		if err := as.Write(a, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	cs := obj.BeginCheckpoint(1, false)
	defer release(pm, cs)
	if len(cs.Pages) != 3 {
		t.Fatalf("captured %d pages, want 3", len(cs.Pages))
	}
	before := meter.PTEOps.Load()
	if ops := as.ProtectObject(obj, cs.Pages); ops != 4 {
		t.Fatalf("ProtectObject cleared %d PTEs, want 4 (page 10 is mapped twice)", ops)
	}
	if got := meter.PTEOps.Load() - before; got != 4 {
		t.Fatalf("ProtectObject charged %d PTE ops, want 4", got)
	}
	if ops := as.ProtectObject(obj, cs.Pages); ops != 0 {
		t.Fatalf("second ProtectObject cleared %d PTEs, want 0", ops)
	}
}

// TestHeatSnapshot: the barrier's heat snapshot lists the touched pages
// in page order with their counts, and only those.
func TestHeatSnapshot(t *testing.T) {
	pm := NewPhysMem(0)
	as := NewAddressSpace(pm, nil)
	m, _ := as.MapAnon(64*PageSize, ProtRead|ProtWrite, false, "heap")
	for _, pg := range []int{40, 3, 40, 17, 40, 3} {
		if err := as.Write(m.Start+Addr(pg*PageSize), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	cs := barrier(as, m, 1, true)
	defer release(pm, cs)
	want := []PageHeat{{3, 2}, {17, 1}, {40, 3}}
	if len(cs.Heat) != len(want) {
		t.Fatalf("heat = %v, want %v", cs.Heat, want)
	}
	for i := range want {
		if cs.Heat[i] != want[i] {
			t.Fatalf("heat = %v, want %v", cs.Heat, want)
		}
	}
	if m.Obj.Heat(40) != 3 || m.Obj.Heat(41) != 0 || m.Obj.Heat(1<<40) != 0 {
		t.Fatal("Object.Heat disagrees with the snapshot")
	}
	if idle := pm.NewObject("idle", PageSize).BeginCheckpoint(1, true); idle.Heat != nil {
		t.Fatalf("untouched object has heat %v", idle.Heat)
	}
}

// TestHeatDelta: an incremental barrier's heat lists only the pages
// touched since the previous barrier, each once with its whole count; a
// full barrier lists every non-zero counter; and MergeHeat of the deltas
// since a full barrier is the full list at every barrier.
func TestHeatDelta(t *testing.T) {
	pm := NewPhysMem(0)
	as := NewAddressSpace(pm, nil)
	m, _ := as.MapAnon(64*PageSize, ProtRead|ProtWrite, false, "heap")
	touch := func(pgs ...int) {
		for _, pg := range pgs {
			if err := as.Write(m.Start+Addr(pg*PageSize), []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	full := func() []PageHeat {
		var out []PageHeat
		for pg := int64(0); pg < 64; pg++ {
			if h := m.Obj.Heat(pg); h != 0 {
				out = append(out, PageHeat{pg, h})
			}
		}
		return out
	}
	touch(40, 3, 40)
	cs := barrier(as, m, 1, true)
	release(pm, cs)
	resolved := cs.Heat
	for epoch, pgs := range [][]int{{17, 3, 17}, {}, {63, 0, 40, 0}, {5}} {
		touch(pgs...)
		cs := barrier(as, m, uint64(epoch+2), false)
		release(pm, cs)
		distinct := slices.Clone(pgs)
		slices.Sort(distinct)
		if len(cs.Heat) != len(slices.Compact(distinct)) {
			t.Fatalf("epoch %d: heat %v lists pages the epoch did not touch %v", epoch+2, cs.Heat, pgs)
		}
		resolved = MergeHeat(resolved, cs.Heat)
		if want := full(); !slices.Equal(resolved, want) {
			t.Fatalf("epoch %d: deltas resolve to %v, want %v", epoch+2, resolved, want)
		}
	}
	touch(9)
	cs = barrier(as, m, 6, true)
	release(pm, cs)
	if want := full(); !slices.Equal(cs.Heat, want) {
		t.Fatalf("full barrier heat %v, want every counter %v", cs.Heat, want)
	}
	cs = barrier(as, m, 7, false)
	release(pm, cs)
	if cs.Heat != nil {
		t.Fatalf("an idle epoch after a full barrier has heat %v", cs.Heat)
	}
}

// TestMergeHeat: MergeHeat agrees with a map in which newer counts
// overwrite older ones, whichever side is larger and whether or not the
// smaller brings new pages.
func TestMergeHeat(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	list := func(n int, count uint32) []PageHeat {
		var out []PageHeat
		for pg := int64(0); len(out) < n; pg++ {
			if rng.IntN(3) == 0 {
				out = append(out, PageHeat{pg, count + uint32(rng.IntN(4))})
			}
		}
		return out
	}
	for round := 0; round < 500; round++ {
		older, newer := list(rng.IntN(40), 1), list(rng.IntN(40), 100)
		want := map[int64]uint32{}
		for _, h := range older {
			want[h.Page] = h.Count
		}
		for _, h := range newer {
			want[h.Page] = h.Count
		}
		got := MergeHeat(slices.Clone(older), slices.Clone(newer))
		if !slices.IsSortedFunc(got, func(a, b PageHeat) int { return cmp.Compare(a.Page, b.Page) }) || len(got) != len(want) {
			t.Fatalf("MergeHeat(%v, %v) = %v: not the %d pages in order", older, newer, got, len(want))
		}
		for _, h := range got {
			if want[h.Page] != h.Count {
				t.Fatalf("MergeHeat(%v, %v) = %v: page %d count %d, want %d", older, newer, got, h.Page, h.Count, want[h.Page])
			}
		}
	}
}

// TestUnmapAllReturnsFrames: tearing an address space down frees what
// only it mapped and spares what someone else still maps.
func TestUnmapAllReturnsFrames(t *testing.T) {
	pm := NewPhysMem(0)
	a := NewAddressSpace(pm, nil)
	b := NewAddressSpace(pm, nil)
	priv, _ := a.MapAnonAt(0x1000_0000, 8*PageSize, ProtRead|ProtWrite, false, "private")
	shared, _ := a.MapAnon(4*PageSize, ProtRead|ProtWrite, true, "shared")
	if _, err := b.Map(0, 4*PageSize, ProtRead|ProtWrite, shared.Obj, 0, true, "shared"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a.Write(priv.Start+Addr(i*PageSize), []byte{1})
	}
	for i := 0; i < 4; i++ {
		a.Write(shared.Start+Addr(i*PageSize), []byte{2})
	}
	if pm.Resident() != 12 {
		t.Fatalf("resident = %d, want 12", pm.Resident())
	}
	a.UnmapAll()
	if pm.Resident() != 4 || len(a.Mappings()) != 0 {
		t.Fatalf("after UnmapAll: resident %d, %d mappings; want 4, 0", pm.Resident(), len(a.Mappings()))
	}
	var got [1]byte
	if err := b.Read(b.Mappings()[0].Start, got[:]); err != nil || got[0] != 2 {
		t.Fatalf("shared page through the surviving space = %v, %v", got, err)
	}
	b.UnmapAll()
	if pm.Resident() != 0 {
		t.Fatalf("resident = %d after both spaces are gone", pm.Resident())
	}
}

// halfSource is a page source that writes half of dst and then gives
// up: with an error, with a miss, or — for page 0 only — not at all.
type halfSource struct {
	miss bool
	err  error
}

func (s *halfSource) PageIn(pm *PhysMem, idx int64) (*Frame, error) {
	return pm.Fill(func(dst []byte) (bool, error) {
		copy(dst, fill(0xEE)[:PageSize/2])
		if idx == 0 {
			copy(dst[PageSize/2:], fill(0xEE))
			return true, nil
		}
		return !s.miss && s.err == nil, s.err
	})
}

// TestPageInOwnsTheFrame: the source fills a recycled, un-zeroed frame
// in place, so the frame must not be seen by anyone unless the source
// found and wrote the whole page. After an error or a miss — each
// having scribbled on half the frame first — nothing is installed,
// nothing stays resident, and the page then reads, and zero-fills on
// write, as if the frame had never been out.
func TestPageInOwnsTheFrame(t *testing.T) {
	boom := errors.New("device on fire")
	for _, src := range []*halfSource{{err: boom}, {miss: true}} {
		pm := NewPhysMem(0)
		// One stale frame on the free list: what PageIn is handed.
		stale, _ := pm.Alloc()
		copy(stale.Data, fill(0x5A))
		pm.Free(stale)

		as := NewAddressSpace(pm, NewMeter(nil))
		m, err := as.MapAnon(2*PageSize, ProtRead|ProtWrite, false, "heap")
		if err != nil {
			t.Fatal(err)
		}
		m.Obj.SetSource(src, 0)
		page1 := m.Start + PageSize

		got := fill(0x11)[:16]
		err = as.Read(page1, got)
		switch {
		case src.err != nil && !errors.Is(err, boom):
			t.Fatalf("read through a failing source: %v, want %v", err, boom)
		case src.miss && (err != nil || !bytes.Equal(got, make([]byte, 16))):
			t.Fatalf("read of a page the source turned out not to hold: % x, %v; want zeros", got, err)
		}
		if pm.Resident() != 0 || m.Obj.ResidentCount() != 0 {
			t.Fatalf("a fetch that did not deliver left %d frames resident, %d pages installed",
				pm.Resident(), m.Obj.ResidentCount())
		}

		err = as.Write(page1+8, []byte{7})
		if src.err != nil {
			if !errors.Is(err, boom) || pm.Resident() != 0 || m.Obj.ResidentCount() != 0 {
				t.Fatalf("write through a failing source: %v, %d frames resident", err, pm.Resident())
			}
		} else {
			want := make([]byte, 16)
			want[8] = 7
			if rerr := as.Read(page1, got); err != nil || rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("write to a page the source does not hold left % x (%v, %v), want a zero page with one byte set",
					got, err, rerr)
			}
		}

		// The page the source does deliver is installed whole.
		whole := make([]byte, PageSize)
		if err := as.Read(m.Start, whole); err != nil || !bytes.Equal(whole, fill(0xEE)) {
			t.Fatalf("page 0: %v, starts % x", err, whole[:4])
		}
	}
}

// oneSource holds page 0 only, pages it in through PhysMem.Fill, and
// counts the calls a fault makes.
type oneSource struct{ pageIns int }

func (s *oneSource) PageIn(pm *PhysMem, idx int64) (*Frame, error) {
	s.pageIns++
	if idx != 0 {
		return nil, nil
	}
	return pm.Fill(func(dst []byte) (bool, error) {
		copy(dst, fill(0x11))
		return true, nil
	})
}

// TestFaultAsksItsSourceOnce: a demand fault asks its source once — one
// PageIn, which finds the page and fills a frame — and a page the
// source does not hold takes no frame from the source: it zero-fills.
func TestFaultAsksItsSourceOnce(t *testing.T) {
	pm := NewPhysMem(0)
	as := NewAddressSpace(pm, NewMeter(nil))
	m, err := as.MapAnon(2*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	src := &oneSource{}
	m.Obj.SetSource(src, 0)
	got := make([]byte, PageSize)
	if err := as.Read(m.Start, got); err != nil || !bytes.Equal(got, fill(0x11)) || src.pageIns != 1 {
		t.Fatalf("fault on a page the source holds: %v, %d PageIn calls", err, src.pageIns)
	}
	if err := as.Read(m.Start+PageSize, got[:8]); err != nil || !bytes.Equal(got[:8], make([]byte, 8)) || src.pageIns != 2 {
		t.Fatalf("fault on a page the source lacks: % x, %v, %d PageIn calls", got[:8], err, src.pageIns)
	}
	if err := as.Write(m.Start+PageSize+8, []byte{7}); err != nil || src.pageIns != 3 {
		t.Fatalf("write fault on a page the source lacks: %v, %d PageIn calls", err, src.pageIns)
	}
}
