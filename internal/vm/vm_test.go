package vm

import (
	"bytes"
	"testing"
	"testing/quick"

	"aurora/internal/storage"
)

func testSpace(t *testing.T) (*AddressSpace, *PhysMem, *Meter) {
	t.Helper()
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	return NewAddressSpace(pm, meter), pm, meter
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x4000_1234)
	if a.PageIndex() != 0x40001 {
		t.Fatalf("PageIndex = %#x", a.PageIndex())
	}
	if a.PageOffset() != 0x234 {
		t.Fatalf("PageOffset = %#x", a.PageOffset())
	}
	if a.PageBase() != 0x4000_1000 {
		t.Fatalf("PageBase = %#x", a.PageBase())
	}
	if RoundUpPage(1) != PageSize || RoundUpPage(PageSize) != PageSize {
		t.Fatal("RoundUpPage wrong")
	}
}

func TestMapAnonReadWrite(t *testing.T) {
	as, _, _ := testSpace(t)
	m, err := as.MapAnon(64<<10, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := as.Write(m.Start+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(m.Start+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(64<<10, ProtRead|ProtWrite, false, "heap")
	data := make([]byte, 3*PageSize+17)
	for i := range data {
		data[i] = byte(i)
	}
	addr := m.Start + PageSize - 9 // straddles page boundaries
	if err := as.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestZeroFillReadNoAlloc(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(1<<20, ProtRead|ProtWrite, false, "heap")
	got := make([]byte, 4096)
	for i := range got {
		got[i] = 0xff
	}
	if err := as.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten anon memory must read zero")
		}
	}
	if pm.Resident() != 0 {
		t.Fatalf("zero-fill read allocated %d frames", pm.Resident())
	}
}

func TestUnmappedAccess(t *testing.T) {
	as, _, _ := testSpace(t)
	if err := as.Read(0xdead0000, make([]byte, 8)); err != ErrNoMapping {
		t.Fatalf("err = %v, want ErrNoMapping", err)
	}
	if err := as.Write(0xdead0000, []byte{1}); err != ErrNoMapping {
		t.Fatalf("err = %v, want ErrNoMapping", err)
	}
}

func TestProtection(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead, false, "rodata")
	if err := as.Write(m.Start, []byte{1}); err != ErrProtection {
		t.Fatalf("write to read-only err = %v", err)
	}
	wm, _ := as.MapAnon(PageSize, ProtWrite, false, "wo")
	if err := as.Read(wm.Start, make([]byte, 1)); err != ErrProtection {
		t.Fatalf("read of write-only err = %v", err)
	}
	// mprotect flips permissions.
	if err := as.Protect(m.Start, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(m.Start, []byte{1}); err != nil {
		t.Fatalf("write after mprotect: %v", err)
	}
}

func TestMapOverlapRejected(t *testing.T) {
	as, pm, _ := testSpace(t)
	obj := pm.NewObject("o", 1<<20)
	if _, err := as.Map(0x1000_0000, 1<<20, ProtRead, obj, 0, false, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(0x1008_0000, 1<<20, ProtRead, obj, 0, false, "b"); err != ErrMapOverlap {
		t.Fatalf("overlap err = %v", err)
	}
}

func TestMapBadArgs(t *testing.T) {
	as, pm, _ := testSpace(t)
	obj := pm.NewObject("o", PageSize)
	if _, err := as.Map(0x1001, PageSize, ProtRead, obj, 0, false, "x"); err != ErrBadRange {
		t.Fatalf("unaligned start err = %v", err)
	}
	if _, err := as.Map(0x1000, 0, ProtRead, obj, 0, false, "x"); err != ErrBadRange {
		t.Fatalf("zero length err = %v", err)
	}
	if _, err := as.Map(0x1000, PageSize, ProtRead, obj, 3, false, "x"); err != ErrBadRange {
		t.Fatalf("unaligned offset err = %v", err)
	}
}

func TestUnmapReleasesFrames(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(16*PageSize, ProtRead|ProtWrite, false, "heap")
	as.Write(m.Start, make([]byte, 16*PageSize))
	if pm.Resident() != 16 {
		t.Fatalf("resident = %d", pm.Resident())
	}
	if err := as.Unmap(m.Start, 16*PageSize); err != nil {
		t.Fatal(err)
	}
	if pm.Resident() != 0 {
		t.Fatalf("resident after unmap = %d", pm.Resident())
	}
	if err := as.Read(m.Start, make([]byte, 1)); err != ErrNoMapping {
		t.Fatalf("read after unmap err = %v", err)
	}
}

func TestFindFreePlacesDisjoint(t *testing.T) {
	as, _, _ := testSpace(t)
	m1, _ := as.MapAnon(1<<20, ProtRead|ProtWrite, false, "a")
	m2, _ := as.MapAnon(1<<20, ProtRead|ProtWrite, false, "b")
	if m1.Start == m2.Start || (m2.Start >= m1.Start && m2.Start < m1.End) {
		t.Fatalf("mappings overlap: %#x %#x", m1.Start, m2.Start)
	}
}

// --- Aurora COW semantics ---

func TestAuroraCowPreservesSharing(t *testing.T) {
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	as1 := NewAddressSpace(pm, meter)
	as2 := NewAddressSpace(pm, meter)

	obj := pm.NewObject("shm", 4*PageSize)
	m1, err := as1.Map(0x1000_0000, 4*PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := as2.Map(0x2000_0000, 4*PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
	if err != nil {
		t.Fatal(err)
	}

	if err := as1.Write(m1.Start, []byte("before checkpoint")); err != nil {
		t.Fatal(err)
	}

	// Serialization barrier: capture and protect.
	cs := begin(obj, 1, true)
	as1.ProtectObject(obj, cs.Pages)
	as2.ProtectObject(obj, cs.Pages)
	if cs.PageCount() != 1 {
		t.Fatalf("checkpoint captured %d pages, want 1", cs.PageCount())
	}

	// Process 1 writes through the protected page: Aurora installs a
	// NEW page shared by both processes.
	if err := as1.Write(m1.Start, []byte("after  checkpoint")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 17)
	if err := as2.Read(m2.Start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "after  checkpoint" {
		t.Fatalf("process 2 sees %q — shared memory semantics broken", got)
	}

	// The checkpoint still owns the pre-write contents.
	var frozen *Frame
	for _, f := range cs.Pages {
		frozen = f
	}
	if !bytes.HasPrefix(frozen.Data, []byte("before checkpoint")) {
		t.Fatalf("checkpoint frame corrupted: %q", frozen.Data[:17])
	}
	if meter.CowFaults.Load() != 1 {
		t.Fatalf("cow faults = %d, want 1", meter.CowFaults.Load())
	}
	cs.Release(pm)
}

func TestForkCowBreaksSharingWithinPrivateMappings(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "data")
	as.Write(m.Start, []byte("original"))

	child := as.Fork()
	// Child writes privately.
	if err := child.Write(m.Start, []byte("childdata")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	as.Read(m.Start, got)
	if string(got[:8]) != "original" {
		t.Fatalf("parent sees child write: %q", got)
	}
	// Parent writes privately too.
	as.Write(m.Start, []byte("parentdat"))
	child.Read(m.Start, got)
	if string(got) != "childdata" {
		t.Fatalf("child sees parent write: %q", got)
	}
}

func TestForkSharedMappingStaysShared(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, true, "shm")
	as.Write(m.Start, []byte("aaaa"))
	child := as.Fork()
	child.Write(m.Start, []byte("bbbb"))
	got := make([]byte, 4)
	as.Read(m.Start, got)
	if string(got) != "bbbb" {
		t.Fatalf("shared mapping diverged after fork: %q", got)
	}
}

func TestIncrementalNeverFlushesTwice(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(64*PageSize, ProtRead|ProtWrite, false, "heap")
	as.Write(m.Start, make([]byte, 64*PageSize)) // dirty all 64

	obj := m.Obj
	cs1 := begin(obj, 1, false)
	as.ProtectObject(obj, cs1.Pages)
	if cs1.PageCount() != 64 {
		t.Fatalf("first incremental captured %d, want 64", cs1.PageCount())
	}
	cs1.Release(pm)

	// Touch only 3 pages before the next checkpoint.
	for i := 0; i < 3; i++ {
		as.Write(m.Start+Addr(i*5*PageSize), []byte{0xab})
	}
	cs2 := begin(obj, 2, false)
	as.ProtectObject(obj, cs2.Pages)
	if cs2.PageCount() != 3 {
		t.Fatalf("second incremental captured %d, want 3", cs2.PageCount())
	}
	cs2.Release(pm)

	// Nothing dirtied: third checkpoint captures nothing.
	cs3 := begin(obj, 3, false)
	if cs3.PageCount() != 0 {
		t.Fatalf("idle incremental captured %d, want 0", cs3.PageCount())
	}
}

func TestLineMask(t *testing.T) {
	for _, c := range []struct {
		off, n int64
		want   uint64
	}{
		{0, 1, 1}, {63, 1, 1}, {63, 2, 3}, {64, 64, 2}, {100, 200, 0b11110},
		{PageSize - 1, 1, 1 << 63}, {0, PageSize, AllLines}, {1, PageSize - 1, AllLines},
	} {
		if got := LineMask(c.off, c.n); got != c.want {
			t.Errorf("LineMask(%d, %d) = %#x, want %#x", c.off, c.n, got, c.want)
		}
	}
}

// TestDirtyLineMasks: the barrier hands over, per dirty page, the lines
// written since the previous barrier — from every address space mapping
// the object, across line and page boundaries — and every line outside
// a page's mask holds what the previous capture held. A zero-filled
// page, and a dirty page brought back by InsertPage, are dirty in every
// line.
func TestDirtyLineMasks(t *testing.T) {
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	as1, as2 := NewAddressSpace(pm, meter), NewAddressSpace(pm, meter)
	obj := pm.NewObject("shm", 8*PageSize)
	m1, err := as1.Map(0x1000_0000, 8*PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := as2.Map(0x2000_0000, 8*PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 4*PageSize)
	for i := range fill {
		fill[i] = byte(i * 7)
	}
	as1.Write(m1.Start, fill)
	cs1 := begin(obj, 1, false)
	for idx := int64(0); idx < 4; idx++ {
		if cs1.Lines[idx] != AllLines {
			t.Fatalf("zero-filled page %d: lines %#x, want all", idx, cs1.Lines[idx])
		}
	}
	as1.ProtectObject(obj, cs1.Pages)
	as2.ProtectObject(obj, cs1.Pages)

	as1.Write(m1.Start+100, []byte{1})                // page 0, line 1 (a COW fault)
	as2.Write(m2.Start+4000, []byte{2})               // page 0, line 62, the other process
	as1.Write(m1.Start+PageSize+63, []byte{3, 4})     // page 1, lines 0-1
	as2.Write(m2.Start+3*PageSize-6, make([]byte, 9)) // pages 2 and 3, either side of the boundary
	as1.Write(m1.Start+5*PageSize+8, []byte{5})       // page 5: never resident, a zero-fill
	obj.MarkDirty(6, 1)
	f, _ := pm.Alloc()
	obj.InsertPage(pm, 6, f) // a swap-in of a dirty page
	cs2 := begin(obj, 2, false)
	want := map[int64]uint64{0: 1<<1 | 1<<62, 1: 0b11, 2: 1 << 63, 3: 1, 5: AllLines, 6: AllLines}
	if len(cs2.Lines) != len(want) {
		t.Fatalf("dirty set %v, want %v", cs2.Lines, want)
	}
	for idx, mask := range want {
		if cs2.Lines[idx] != mask {
			t.Errorf("page %d: lines %#x, want %#x", idx, cs2.Lines[idx], mask)
		}
	}
	for idx := int64(0); idx < 4; idx++ {
		before, after := cs1.Pages[idx].Data, cs2.Pages[idx].Data
		for line := 0; line < PageSize/LineSize; line++ {
			lo := line * LineSize
			if cs2.Lines[idx]&(1<<line) == 0 && !bytes.Equal(before[lo:lo+LineSize], after[lo:lo+LineSize]) {
				t.Fatalf("page %d line %d changed outside its mask", idx, line)
			}
		}
	}
	if cs3 := begin(obj, 3, false); len(cs3.Lines) != 0 {
		t.Fatalf("idle barrier handed over %d dirty pages", len(cs3.Lines))
	}
}

func TestFullCheckpointCapturesAllResident(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(16*PageSize, ProtRead|ProtWrite, false, "heap")
	as.Write(m.Start, make([]byte, 16*PageSize))
	obj := m.Obj
	// Drain the dirty set with an incremental first.
	begin(obj, 1, false).Release(pm)
	// Full mode still captures all 16 resident pages.
	cs := begin(obj, 2, true)
	if cs.PageCount() != 16 {
		t.Fatalf("full checkpoint captured %d, want 16", cs.PageCount())
	}
	cs.Release(pm)
}

func TestCowFaultFrameRefcounting(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "x")
	as.Write(m.Start, []byte{1})
	obj := m.Obj

	cs := begin(obj, 1, true)
	as.ProtectObject(obj, cs.Pages)
	before := pm.Resident()
	as.Write(m.Start, []byte{2}) // COW fault: +1 frame
	if pm.Resident() != before+1 {
		t.Fatalf("resident after COW = %d, want %d", pm.Resident(), before+1)
	}
	cs.Release(pm) // checkpoint drops the original frame
	if pm.Resident() != before {
		t.Fatalf("resident after release = %d, want %d", pm.Resident(), before)
	}
}

func TestBarrierPTECost(t *testing.T) {
	as, _, meter := testSpace(t)
	m, _ := as.MapAnon(32*PageSize, ProtRead|ProtWrite, false, "heap")
	as.Write(m.Start, make([]byte, 32*PageSize))
	obj := m.Obj

	meter.PTEOps.Store(0)
	cs := begin(obj, 1, true)
	ops := as.ProtectObject(obj, cs.Pages)
	if ops != 32 {
		t.Fatalf("protect ops = %d, want 32 (one per writable PTE)", ops)
	}
}

// --- shadow chains ---

func TestShadowChainLookup(t *testing.T) {
	pm := NewPhysMem(0)
	base := pm.NewObject("base", 2*PageSize)
	f, _, err := base.EnsurePage(pm, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data, []byte("base page"))

	top := base.NewShadow(pm)
	got, owner := top.Lookup(0)
	if got == nil || owner != base {
		t.Fatal("shadow lookup should fall through to base")
	}
	// Writing through the shadow copies up.
	wf, copied, err := top.EnsurePage(pm, 0, nil)
	if err != nil || !copied {
		t.Fatalf("EnsurePage copied=%v err=%v", copied, err)
	}
	if !bytes.HasPrefix(wf.Data, []byte("base page")) {
		t.Fatal("copy-up lost base contents")
	}
	copy(wf.Data, []byte("top  page"))
	if !bytes.HasPrefix(f.Data, []byte("base page")) {
		t.Fatal("write through shadow modified base")
	}
}

// --- pager / clock algorithm ---

func pagerFixture(t *testing.T) (*AddressSpace, *Mapping, *Pager, *PhysMem) {
	t.Helper()
	pm := NewPhysMem(0)
	clock := storage.NewClock()
	meter := NewMeter(clock)
	as := NewAddressSpace(pm, meter)
	m, err := as.MapAnon(32*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	swap := NewSwap(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock))
	pg := NewPager(pm, swap, meter)
	pg.Register(m.Obj)
	pg.RegisterSpace(as)
	return as, m, pg, pm
}

func TestPagerReclaimAndSwapIn(t *testing.T) {
	as, m, pg, pm := pagerFixture(t)
	payload := make([]byte, 32*PageSize)
	for i := range payload {
		payload[i] = byte(i / PageSize)
	}
	as.Write(m.Start, payload)
	resident := pm.Resident()

	// First Reclaim pass clears referenced bits then evicts.
	n, err := pg.Reclaim(10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("reclaimed %d, want 10", n)
	}
	if pm.Resident() != resident-10 {
		t.Fatalf("resident = %d, want %d", pm.Resident(), resident-10)
	}

	// Reading the whole range must swap pages back in with correct data.
	got := make([]byte, len(payload))
	for {
		err := as.Read(m.Start, got)
		if err == nil {
			break
		}
		retry, rerr := pg.Resolve(err)
		if !retry {
			t.Fatal(rerr)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across swap-out/swap-in")
	}
}

func TestClockSecondChance(t *testing.T) {
	as, m, pg, _ := pagerFixture(t)
	as.Write(m.Start, make([]byte, 32*PageSize))

	// Re-touch pages 0 and 1 so their referenced bits are fresh.
	as.Read(m.Start, make([]byte, 2*PageSize))

	// Evicting a single page: the clock should pass over everything
	// once (clearing bits) and then evict; the first eviction target
	// after bit clearing is a cold page, and pages 0/1 get their
	// second chance only during the first sweep.
	if _, err := pg.Reclaim(30); err != nil {
		t.Fatal(err)
	}
	// Pages 0 and 1 were referenced equally with the rest after the
	// bulk write, so just assert the swap bookkeeping is consistent.
	swapped := m.Obj.SwappedPages()
	if len(swapped) != 30 {
		t.Fatalf("swapped %d pages, want 30", len(swapped))
	}
	for idx := range swapped {
		if f, _ := m.Obj.Lookup(idx); f != nil {
			t.Fatalf("page %d both resident and swapped", idx)
		}
	}
}

func TestCheckpointCapturesSwappedDirtyPages(t *testing.T) {
	as, m, pg, _ := pagerFixture(t)
	as.Write(m.Start, make([]byte, 4*PageSize)) // dirty 4 pages
	// Evict everything (two sweeps: first clears bits, second evicts).
	if _, err := pg.Reclaim(4); err != nil {
		t.Fatal(err)
	}
	cs := begin(m.Obj, 1, false)
	if len(cs.SwapPages)+cs.PageCount() != 4 {
		t.Fatalf("checkpoint saw %d mem + %d swap pages, want 4 total",
			cs.PageCount(), len(cs.SwapPages))
	}
	if len(cs.SwapPages) == 0 {
		t.Fatal("expected some pages captured from swap")
	}
}

func TestProtectedPagesNotEvicted(t *testing.T) {
	as, m, pg, pm := pagerFixture(t)
	as.Write(m.Start, make([]byte, 8*PageSize))
	cs := begin(m.Obj, 1, true)
	as.ProtectObject(m.Obj, cs.Pages)
	n, err := pg.Reclaim(8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("evicted %d checkpoint-protected pages", n)
	}
	cs.Release(pm)
}

func TestHottestPages(t *testing.T) {
	heat := []PageHeat{{1, 30}, {3, 10}, {4, 10}, {7, 20}}
	got := HottestPages(heat)
	want := []int64{1, 7, 3, 4} // ties broken by index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HottestPages = %v, want %v", got, want)
		}
	}
	if heat[1].Page != 3 {
		t.Fatalf("HottestPages reordered its argument: %v", heat)
	}
}

func TestPhysMemBound(t *testing.T) {
	pm := NewPhysMem(2)
	a, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("third alloc err = %v", err)
	}
	pm.Free(a)
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("alloc after free err = %v", err)
	}
}

// Property: arbitrary interleavings of writes at arbitrary offsets are
// read back exactly (memory is a faithful store through all fault
// paths).
func TestQuickMemoryFidelity(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(1<<20, ProtRead|ProtWrite, false, "heap")
	shadow := make([]byte, 1<<20) // reference model

	f := func(off uint32, data []byte) bool {
		off %= 1 << 19
		if len(data) > 1<<18 {
			data = data[:1<<18]
		}
		if len(data) == 0 {
			return true
		}
		if err := as.Write(m.Start+Addr(off), data); err != nil {
			return false
		}
		copy(shadow[off:], data)
		got := make([]byte, len(data))
		if err := as.Read(m.Start+Addr(off), got); err != nil {
			return false
		}
		return bytes.Equal(got, shadow[off:int(off)+len(data)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	// Full-range verification against the reference model.
	got := make([]byte, 1<<20)
	if err := as.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("final memory image diverges from reference model")
	}
}

// Property: checkpoints are consistent — the frames captured at a
// barrier never change afterwards, no matter what the application
// writes.
func TestQuickCheckpointImmutability(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(64*PageSize, ProtRead|ProtWrite, false, "heap")
	initial := make([]byte, 64*PageSize)
	for i := range initial {
		initial[i] = byte(i * 13)
	}
	as.Write(m.Start, initial)

	cs := begin(m.Obj, 1, true)
	as.ProtectObject(m.Obj, cs.Pages)
	snapshot := make(map[int64][]byte)
	for idx, f := range cs.Pages {
		snapshot[idx] = append([]byte(nil), f.Data...)
	}

	f := func(page uint8, val byte) bool {
		idx := int64(page) % 64
		if err := as.Write(m.Start+Addr(idx*PageSize), []byte{val}); err != nil {
			return false
		}
		return bytes.Equal(cs.Pages[idx].Data, snapshot[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	cs.Release(pm)
}
