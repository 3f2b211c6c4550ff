package vm

import (
	"bytes"
	"sync"
	"sync/atomic"
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
	cs := obj.BeginCheckpoint(1, true)
	as1.ProtectObject(obj, cs.Pages)
	as2.ProtectObject(obj, cs.Pages)
	if len(cs.Pages) != 1 {
		t.Fatalf("checkpoint captured %d pages, want 1", len(cs.Pages))
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
	frozen := cs.Pages[0].Frame
	if !bytes.HasPrefix(frozen.Data, []byte("before checkpoint")) {
		t.Fatalf("checkpoint frame corrupted: %q", frozen.Data[:17])
	}
	if meter.CowFaults.Load() != 1 {
		t.Fatalf("cow faults = %d, want 1", meter.CowFaults.Load())
	}
	release(pm, cs)
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

// TestForkSharesFramesUntilWritten: fork copies no page. The child's
// object holds the parent's frames, protected on both sides; the first
// write on either side copies the page for that side alone (CowFault),
// and the child's exit returns exactly the frames no one else holds. A
// page an in-flight capture protected keeps that capture, so the
// parent's copy of it still names the capture it was copied from.
func TestForkSharesFramesUntilWritten(t *testing.T) {
	as, pm, meter := testSpace(t)
	m, _ := as.MapAnon(4*PageSize, ProtRead|ProtWrite, false, "heap")
	as.Write(m.Start, bytes.Repeat([]byte{7}, 4*PageSize))
	cs := barrier(as, m, 1, true)
	defer release(pm, cs)

	child := as.Fork()
	cm := child.Find(m.Start)
	if cm.Obj == m.Obj || pm.Resident() != 4 {
		t.Fatalf("fork: child object %v, parent %v, %d frames resident; want two objects over 4 frames", cm.Obj, m.Obj, pm.Resident())
	}
	for idx := int64(0); idx < 4; idx++ {
		if cm.Obj.Lookup(idx) != m.Obj.Lookup(idx) || !cm.Obj.IsProtected(idx) || !m.Obj.IsProtected(idx) {
			t.Fatalf("page %d: not one frame protected on both sides", idx)
		}
	}
	faults := meter.CowFaults.Load()
	child.Write(m.Start, []byte("child"))
	as.Write(m.Start+PageSize, []byte("parent"))
	if got := meter.CowFaults.Load() - faults; got != 2 || pm.Resident() != 6 {
		t.Fatalf("two writes after the fork: %d COW faults, %d frames resident; want 2 and 6", got, pm.Resident())
	}
	got := make([]byte, 6)
	as.Read(m.Start, got)
	if got[0] != 7 {
		t.Fatalf("parent reads the child's write: %q", got)
	}
	child.Read(m.Start+PageSize, got)
	if got[0] != 7 {
		t.Fatalf("child reads the parent's write: %q", got)
	}

	next := m.Obj.BeginCheckpoint(2, false)
	defer release(pm, next)
	if len(next.Pages) != 1 || next.Pages[0].Frame.CopiedFrom(next.Capture) != cs.Capture {
		t.Fatalf("the parent's copy of a captured page does not name its capture: %+v", next.Pages)
	}
	child.UnmapAll()
	if pm.Resident() != 5 {
		t.Fatalf("%d frames resident after the child's exit, want the parent's 4 and the capture's original", pm.Resident())
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
	cs1 := obj.BeginCheckpoint(1, false)
	as.ProtectObject(obj, cs1.Pages)
	if len(cs1.Pages) != 64 {
		t.Fatalf("first incremental captured %d, want 64", len(cs1.Pages))
	}
	release(pm, cs1)

	// Touch only 3 pages before the next checkpoint.
	for i := 0; i < 3; i++ {
		as.Write(m.Start+Addr(i*5*PageSize), []byte{0xab})
	}
	cs2 := obj.BeginCheckpoint(2, false)
	as.ProtectObject(obj, cs2.Pages)
	if len(cs2.Pages) != 3 {
		t.Fatalf("second incremental captured %d, want 3", len(cs2.Pages))
	}
	release(pm, cs2)

	// Nothing dirtied: third checkpoint captures nothing.
	cs3 := obj.BeginCheckpoint(3, false)
	if len(cs3.Pages) != 0 {
		t.Fatalf("idle incremental captured %d, want 0", len(cs3.Pages))
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
	cs1 := obj.BeginCheckpoint(1, false)
	for idx, p := range cs1.Pages {
		if p.Idx != int64(idx) || p.Lines != AllLines {
			t.Fatalf("zero-filled page %d: page %d, lines %#x, want all", idx, p.Idx, p.Lines)
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
	obj.InsertPage(pm, 6, f) // a prefetch over a dirty page
	cs2 := obj.BeginCheckpoint(2, false)
	want := map[int64]uint64{0: 1<<1 | 1<<62, 1: 0b11, 2: 1 << 63, 3: 1, 5: AllLines, 6: AllLines}
	lines := make(map[int64]uint64, len(cs2.Pages))
	for _, p := range cs2.Pages {
		lines[p.Idx] = p.Lines
	}
	if len(lines) != len(want) {
		t.Fatalf("dirty set %v, want %v", lines, want)
	}
	for idx, mask := range want {
		if lines[idx] != mask {
			t.Errorf("page %d: lines %#x, want %#x", idx, lines[idx], mask)
		}
	}
	for idx := int64(0); idx < 4; idx++ {
		before, after := cs1.Pages[idx].Frame.Data, cs2.Pages[idx].Frame.Data
		for line := 0; line < PageSize/LineSize; line++ {
			lo := line * LineSize
			if lines[idx]&(1<<line) == 0 && !bytes.Equal(before[lo:lo+LineSize], after[lo:lo+LineSize]) {
				t.Fatalf("page %d line %d changed outside its mask", idx, line)
			}
		}
	}
	if cs3 := obj.BeginCheckpoint(3, false); len(cs3.Pages) != 0 {
		t.Fatalf("idle barrier handed over %d dirty pages", len(cs3.Pages))
	}
}

func TestFullCheckpointCapturesAllResident(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(16*PageSize, ProtRead|ProtWrite, false, "heap")
	as.Write(m.Start, make([]byte, 16*PageSize))
	obj := m.Obj
	// Drain the dirty set with an incremental first.
	release(pm, obj.BeginCheckpoint(1, false))
	// Full mode still captures all 16 resident pages.
	cs := obj.BeginCheckpoint(2, true)
	if len(cs.Pages) != 16 {
		t.Fatalf("full checkpoint captured %d, want 16", len(cs.Pages))
	}
	release(pm, cs)
}

func TestCowFaultFrameRefcounting(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "x")
	as.Write(m.Start, []byte{1})
	obj := m.Obj

	cs := obj.BeginCheckpoint(1, true)
	as.ProtectObject(obj, cs.Pages)
	before := pm.Resident()
	as.Write(m.Start, []byte{2}) // COW fault: +1 frame
	if pm.Resident() != before+1 {
		t.Fatalf("resident after COW = %d, want %d", pm.Resident(), before+1)
	}
	release(pm, cs) // checkpoint drops the original frame
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
	cs := obj.BeginCheckpoint(1, true)
	ops := as.ProtectObject(obj, cs.Pages)
	if ops != 32 {
		t.Fatalf("protect ops = %d, want 32 (one per writable PTE)", ops)
	}
}

// --- pager / clock algorithm ---

// viewSource is a store's view of one barrier, as a test holds it: the
// bytes the capture took, by page. It counts the pages asked of it and
// has no way to be written.
type viewSource struct {
	pages   map[int64][]byte
	pageIns atomic.Int64
}

func (s *viewSource) PageIn(pm *PhysMem, idx int64) (*Frame, error) {
	s.pageIns.Add(1)
	d, ok := s.pages[idx]
	if !ok {
		return nil, nil
	}
	return pm.Fill(func(dst []byte) (bool, error) {
		copy(dst, d)
		return true, nil
	})
}

// checkpointTo runs a full barrier over m's object at epoch, keeps what
// it captured in a view source, lets the capture go as a flushed image
// does, and re-points the object at the view.
func checkpointTo(t *testing.T, as *AddressSpace, m *Mapping, epoch uint64) *viewSource {
	t.Helper()
	cs := barrier(as, m, epoch, true)
	src := &viewSource{pages: make(map[int64][]byte, len(cs.Pages))}
	for _, p := range cs.Pages {
		src.pages[p.Idx] = bytes.Clone(p.Frame.Data)
	}
	release(as.PhysMem(), cs)
	if !m.Obj.Repoint(src, epoch) {
		t.Fatalf("re-point at epoch %d refused", epoch)
	}
	return src
}

// pagerFixture maps a 32-page heap, writes every page with its index,
// and checkpoints it into a view the heap pages from.
func pagerFixture(t *testing.T) (*AddressSpace, *Mapping, *Pager, *viewSource, []byte) {
	t.Helper()
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	as := NewAddressSpace(pm, meter)
	m, err := as.MapAnon(32*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32*PageSize)
	for i := range payload {
		payload[i] = byte(i / PageSize)
	}
	if err := as.Write(m.Start, payload); err != nil {
		t.Fatal(err)
	}
	src := checkpointTo(t, as, m, 1)
	return as, m, NewPager(pm, meter), src, payload
}

// TestPagerEvictsCleanPagesAndRefaults: a clean page of an object that
// pages from a view of its last barrier leaves memory by dropping its
// frame, and its demand fault brings the same bytes back — one page-in
// per evicted page.
func TestPagerEvictsCleanPagesAndRefaults(t *testing.T) {
	as, m, pg, src, payload := pagerFixture(t)
	pm := as.PhysMem()
	resident := pm.Resident()
	// The first sweep clears referenced bits, the second evicts.
	if n := pg.Reclaim([]*AddressSpace{as}, 10); n != 10 {
		t.Fatalf("reclaimed %d, want 10", n)
	}
	if pm.Resident() != resident-10 || m.Obj.ResidentCount() != 22 {
		t.Fatalf("resident = %d (object %d), want %d (22)", pm.Resident(), m.Obj.ResidentCount(), resident-10)
	}
	got := make([]byte, len(payload))
	if err := as.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across eviction and refault")
	}
	if n := src.pageIns.Load(); n != 10 {
		t.Fatalf("refaults asked the view for %d pages, want 10", n)
	}
}

// TestClockSecondChance: a referenced page is passed over once, its bit
// cleared, and the clock evicts the next cold page instead.
func TestClockSecondChance(t *testing.T) {
	as, m, pg, _, _ := pagerFixture(t)
	spaces := []*AddressSpace{as}
	// Every page is referenced after the bulk write: the first sweep
	// clears every bit, the second evicts pages 0-3.
	if n := pg.Reclaim(spaces, 4); n != 4 {
		t.Fatalf("evicted %d pages, want 4", n)
	}
	as.Read(m.Start+4*PageSize, make([]byte, 1)) // page 4 referenced again
	if n := pg.Reclaim(spaces, 2); n != 2 {
		t.Fatalf("evicted %d pages, want 2", n)
	}
	for idx, resident := range map[int64]bool{3: false, 4: true, 5: false, 6: false, 7: true} {
		if (m.Obj.Lookup(idx) != nil) != resident {
			t.Fatalf("page %d resident = %v, want %v: page 4 gets its second chance, 5 and 6 go", idx, !resident, resident)
		}
	}
}

// TestDirtyPagesStayResident: a page written since the view's barrier
// is never evicted — its bytes are nowhere else — and reaches the next
// barrier as a frame; after that barrier the view is stale, and nothing
// leaves until the object is re-pointed at the new epoch.
func TestDirtyPagesStayResident(t *testing.T) {
	as, m, pg, _, _ := pagerFixture(t)
	spaces := []*AddressSpace{as}
	if err := as.Write(m.Start+4*PageSize, make([]byte, 4*PageSize)); err != nil { // dirty pages 4-7
		t.Fatal(err)
	}
	if n := pg.Reclaim(spaces, 32); n != 28 {
		t.Fatalf("evicted %d pages, want the 28 clean ones", n)
	}
	cs := barrier(as, m, 2, false)
	if len(cs.Pages) != 4 || cs.Pages[0].Idx != 4 || !bytes.Equal(cs.Pages[0].Frame.Data, make([]byte, PageSize)) {
		t.Fatalf("barrier captured %d pages, want the 4 dirty frames", len(cs.Pages))
	}
	release(as.PhysMem(), cs)
	if n := pg.Reclaim(spaces, 32); n != 0 {
		t.Fatalf("evicted %d pages through a view of an older barrier", n)
	}
	checkpointTo(t, as, m, 2)
	if n := pg.Reclaim(spaces, 32); n != 4 {
		t.Fatalf("evicted %d pages after the re-point at epoch 2, want 4", n)
	}
}

// TestProtectedPagesNotEvicted: pages a capture protects stay in memory
// while the object pages from no view of that capture's barrier.
func TestProtectedPagesNotEvicted(t *testing.T) {
	as, pm, meter := testSpace(t)
	m, err := as.MapAnon(8*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	as.Write(m.Start, make([]byte, 8*PageSize))
	cs := barrier(as, m, 1, true)
	if n := NewPager(pm, meter).Reclaim([]*AddressSpace{as}, 8); n != 0 {
		t.Fatalf("evicted %d checkpoint-protected pages", n)
	}
	release(pm, cs)
}

// TestPagerEvictsNothingWithoutAView: an object with no source, one that
// pages from a restore's source, and one whose view is of an older
// barrier have no page that may leave memory.
func TestPagerEvictsNothingWithoutAView(t *testing.T) {
	as, pm, meter := testSpace(t)
	pg := NewPager(pm, meter)
	m, err := as.MapAnon(8*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	as.Write(m.Start, make([]byte, 8*PageSize))
	release(pm, barrier(as, m, 1, true))
	if n := pg.Reclaim([]*AddressSpace{as}, 8); n != 0 {
		t.Fatalf("no source: evicted %d pages", n)
	}
	m.Obj.SetSource(&countingSource{n: 8}, 0)
	if n := pg.Reclaim([]*AddressSpace{as}, 8); n != 0 {
		t.Fatalf("a restore's source: evicted %d pages", n)
	}
	if m.Obj.Repoint(&viewSource{}, 2) {
		t.Fatal("re-pointed at an epoch the object never reached")
	}
	checkpointTo(t, as, m, 2)
	release(pm, barrier(as, m, 3, false))
	if m.Obj.Repoint(&viewSource{}, 2) {
		t.Fatal("re-pointed at a barrier older than the last")
	}
	if n := pg.Reclaim([]*AddressSpace{as}, 8); n != 0 {
		t.Fatalf("a view of an older barrier: evicted %d pages", n)
	}
	for idx := int64(0); idx < 8; idx++ {
		if m.Obj.evict(idx) != nil {
			t.Fatalf("page %d evicted through a view of an older barrier", idx)
		}
	}
}

// TestPagerSweepsOnlyTheSpacesItIsGiven: the pager keeps no registry; a
// space its caller does not pass — a reaped process's — is not swept.
func TestPagerSweepsOnlyTheSpacesItIsGiven(t *testing.T) {
	as, m, pg, _, _ := pagerFixture(t)
	other := NewAddressSpace(as.PhysMem(), as.Meter())
	if n := pg.Reclaim(nil, 10); n != 0 {
		t.Fatalf("reclaim over no spaces evicted %d", n)
	}
	if n := pg.Reclaim([]*AddressSpace{other}, 10); n != 0 || m.Obj.ResidentCount() != 32 {
		t.Fatalf("reclaim over another space evicted %d", n)
	}
}

// TestReclaimRacesAccesses: evictions run beside reads and writes of the
// same pages, and no access copies from a frame an eviction freed: under
// -race a freed frame is poisoned, which a read would return.
func TestReclaimRacesAccesses(t *testing.T) {
	as, m, pg, _, payload := pagerFixture(t)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pg.Reclaim([]*AddressSpace{as}, 8)
		}
	}()
	buf := make([]byte, PageSize)
	for i := 0; i < rounds; i++ {
		idx := int64(i % 32)
		if err := as.Read(m.Start+Addr(idx*PageSize), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload[idx*PageSize:(idx+1)*PageSize]) {
			t.Fatalf("round %d: page %d read wrong", i, idx)
		}
		if i%4 == 0 { // a write keeps the page's bytes: it stays dirty, and resident
			if err := as.Write(m.Start+Addr(idx*PageSize), buf[:1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
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

	cs := m.Obj.BeginCheckpoint(1, true)
	as.ProtectObject(m.Obj, cs.Pages)
	snapshot := make(map[int64][]byte)
	for _, p := range cs.Pages {
		snapshot[p.Idx] = append([]byte(nil), p.Frame.Data...)
	}

	f := func(page uint8, val byte) bool {
		idx := int64(page) % 64
		if err := as.Write(m.Start+Addr(idx*PageSize), []byte{val}); err != nil {
			return false
		}
		return bytes.Equal(cs.Pages[idx].Frame.Data, snapshot[idx]) // the run is pages 0–63
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	release(pm, cs)
}

// countingSource holds pages [0, n), each filled with its index's low
// byte, and counts the pages asked of it.
type countingSource struct{ n, pageIns int }

func (s *countingSource) PageIn(pm *PhysMem, idx int64) (*Frame, error) {
	s.pageIns++
	if idx >= int64(s.n) {
		return nil, nil
	}
	return pm.Fill(func(dst []byte) (bool, error) {
		copy(dst, fill(byte(idx)))
		return true, nil
	})
}

// TestFullBarrierReadsNoSourcePage: a full barrier over an object with
// 1,024 pages parked in its restore source reads none of them. It
// captures what is resident and names the source; an incremental one
// names none.
func TestFullBarrierReadsNoSourcePage(t *testing.T) {
	const parked = 1024
	as, pm, _ := testSpace(t)
	m, err := as.MapAnon(parked*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{n: parked}
	m.Obj.SetSource(src, 0)
	buf := make([]byte, 8)
	if err := as.Read(m.Start, buf); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(m.Start+3*PageSize, []byte{9}); err != nil {
		t.Fatal(err)
	}
	pageIns := src.pageIns
	cs := m.Obj.BeginCheckpoint(1, true)
	as.ProtectObject(m.Obj, cs.Pages)
	if src.pageIns != pageIns {
		t.Fatalf("the full barrier read its restore source: %d page-ins", src.pageIns-pageIns)
	}
	if cs.Source != PageSource(src) || len(cs.Pages) != 2 {
		t.Fatalf("full capture: source %v, %d pages; want the object's source and its 2 resident pages", cs.Source, len(cs.Pages))
	}
	release(pm, cs)
	if err := as.Write(m.Start, []byte{1}); err != nil {
		t.Fatal(err)
	}
	inc := m.Obj.BeginCheckpoint(2, false)
	defer release(pm, inc)
	if inc.Source != nil || len(inc.Pages) != 1 || src.pageIns != pageIns {
		t.Fatalf("incremental capture: source %v, %d pages, %d page-ins; want none, 1, 0", inc.Source, len(inc.Pages), src.pageIns-pageIns)
	}
}
