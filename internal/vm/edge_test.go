package vm

import (
	"bytes"
	"testing"

	"aurora/internal/storage"
)

// Edge cases and less-traveled paths of the VM layer.

func TestUnmapPartialOverlapRejected(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(8*PageSize, ProtRead|ProtWrite, false, "x")
	if err := as.Unmap(m.Start+PageSize, PageSize); err != ErrBadRange {
		t.Fatalf("partial unmap err = %v", err)
	}
	// The mapping survives a rejected unmap intact.
	if err := as.Write(m.Start, []byte{1}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapEmptyRangeIsNoop(t *testing.T) {
	as, _, _ := testSpace(t)
	if err := as.Unmap(0x9000_0000, PageSize); err != nil {
		t.Fatalf("unmap of nothing: %v", err)
	}
}

func TestProtectUnknownMapping(t *testing.T) {
	as, _, _ := testSpace(t)
	if err := as.Protect(0xdead000, ProtRead); err != ErrNoMapping {
		t.Fatalf("err = %v", err)
	}
}

func TestMapExplicitOffsetWindow(t *testing.T) {
	// Two mappings exposing different windows of one object.
	as, _, _ := testSpace(t)
	obj := NewObject("file", 4*PageSize)
	w0, err := as.Map(0x1000_0000, 2*PageSize, ProtRead|ProtWrite, obj, 0, true, "w0")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := as.Map(0x2000_0000, 2*PageSize, ProtRead|ProtWrite, obj, 2*PageSize, true, "w2")
	if err != nil {
		t.Fatal(err)
	}
	as.Write(w0.Start+5, []byte("lo"))
	as.Write(w2.Start+5, []byte("hi"))
	// The windows are disjoint pages of the same object.
	got := make([]byte, 2)
	as.Read(w0.Start+5, got)
	if string(got) != "lo" {
		t.Fatalf("w0 = %q", got)
	}
	as.Read(w2.Start+5, got)
	if string(got) != "hi" {
		t.Fatalf("w2 = %q", got)
	}
	if f0, _ := obj.Lookup(0); f0 == nil {
		t.Fatal("page 0 missing")
	}
	if f2, _ := obj.Lookup(2); f2 == nil {
		t.Fatal("page 2 missing")
	}
}

func TestObjectRefcountReleaseAll(t *testing.T) {
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	as1 := NewAddressSpace(pm, meter)
	as2 := NewAddressSpace(pm, meter)
	obj := NewObject("shared", 4*PageSize)
	m1, _ := as1.Map(0x1000_0000, 4*PageSize, ProtRead|ProtWrite, obj, 0, true, "a")
	as2.Map(0x1000_0000, 4*PageSize, ProtRead|ProtWrite, obj, 0, true, "b")
	obj.Deref() // drop the construction reference
	as1.Write(m1.Start, make([]byte, 4*PageSize))
	if pm.Resident() != 4 {
		t.Fatalf("resident = %d", pm.Resident())
	}
	// First unmap keeps the object alive; second frees the pages.
	if err := as1.Unmap(0x1000_0000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if pm.Resident() != 4 {
		t.Fatal("pages freed while still mapped elsewhere")
	}
	if err := as2.Unmap(0x1000_0000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if pm.Resident() != 0 {
		t.Fatalf("leaked %d frames", pm.Resident())
	}
}

func TestForkChainDepth(t *testing.T) {
	// fork of fork of fork: shadow chains resolve through all levels.
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "x")
	as.Write(m.Start, []byte("gen0"))
	c1 := as.Fork()
	c1.Write(m.Start, []byte("gen1"))
	c2 := c1.Fork()
	c3 := c2.Fork()
	got := make([]byte, 4)
	c3.Read(m.Start, got)
	if string(got) != "gen1" {
		t.Fatalf("grandchild reads %q through the chain", got)
	}
	// Writes at any level stay private to that level.
	c2.Write(m.Start, []byte("gen2"))
	c3.Read(m.Start, got)
	if string(got) != "gen1" {
		t.Fatalf("c3 sees c2's write: %q", got)
	}
	c1.Read(m.Start, got)
	if string(got) != "gen1" {
		t.Fatalf("c1 disturbed: %q", got)
	}
}

func TestSwapFaultErrorMessage(t *testing.T) {
	sf := &SwapFault{Obj: NewObject("x", PageSize), Page: 3, Slot: 7}
	if sf.Error() == "" {
		t.Fatal("empty error")
	}
}

func TestPagerResolveNonSwapError(t *testing.T) {
	pm := NewPhysMem(0)
	pg := NewPager(pm, NewSwap(storage.NewMemDevice(storage.ParamsDRAM, storage.NewClock())), nil)
	retry, err := pg.Resolve(ErrNoMapping)
	if retry || err != ErrNoMapping {
		t.Fatalf("Resolve passed through wrong: %v %v", retry, err)
	}
}

func TestPagerReclaimWithoutSwap(t *testing.T) {
	pg := NewPager(NewPhysMem(0), nil, nil)
	if _, err := pg.Reclaim(1); err == nil {
		t.Fatal("reclaim without swap should fail")
	}
}

func TestPagerUnregister(t *testing.T) {
	_, m, pg, _ := pagerFixture(t)
	pg.Unregister(m.Obj)
	n, err := pg.Reclaim(10)
	if err != nil || n != 0 {
		t.Fatalf("reclaim after unregister = %d, %v", n, err)
	}
}

func TestSwapSlotReuse(t *testing.T) {
	s := NewSwap(storage.NewMemDevice(storage.ParamsDRAM, storage.NewClock()))
	pm := NewPhysMem(0)
	f, _ := pm.Alloc()
	copy(f.Data, []byte("one"))
	slot1, err := s.WritePage(f)
	if err != nil {
		t.Fatal(err)
	}
	s.FreeSlot(slot1)
	slot2, _ := s.WritePage(f)
	if slot2 != slot1 {
		t.Fatalf("freed slot not reused: %d vs %d", slot2, slot1)
	}
}

func TestCheckpointSetReleaseIdempotent(t *testing.T) {
	as, pm, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "x")
	as.Write(m.Start, []byte{1})
	cs := begin(m.Obj, 1, true)
	cs.Release(pm)
	cs.Release(pm) // second release must not double-free
	if pm.Resident() != 1 {
		t.Fatalf("resident = %d, want 1 (the object's page)", pm.Resident())
	}
}

func TestUnprotectAbortsCheckpointTracking(t *testing.T) {
	as, pm, meter := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "x")
	as.Write(m.Start, []byte{1})
	cs := begin(m.Obj, 1, true)
	as.ProtectObject(m.Obj, cs.Pages)
	m.Obj.Unprotect(0)
	before := meter.CowFaults.Load()
	as.Write(m.Start, []byte{2}) // no COW: protection was dropped
	if meter.CowFaults.Load() != before {
		t.Fatal("write after Unprotect still COW-faulted")
	}
	cs.Release(pm)
}

func TestInstallSharedPageReplacesResident(t *testing.T) {
	pm := NewPhysMem(0)
	obj := NewObject("x", PageSize)
	old, _, _ := obj.EnsurePage(pm, 0, nil)
	copy(old.Data, []byte("old"))
	img, _ := pm.Alloc()
	copy(img.Data, []byte("img"))
	obj.InstallSharedPage(pm, 0, img)
	f, _ := obj.Lookup(0)
	if !bytes.HasPrefix(f.Data, []byte("img")) {
		t.Fatal("shared page not installed")
	}
	if !obj.IsProtected(0) {
		t.Fatal("shared page must be COW-protected")
	}
	// The image keeps its reference even after the object lets go.
	obj.ReleaseAll(pm)
	if img.Refs() != 1 {
		t.Fatalf("image frame refs = %d, want 1", img.Refs())
	}
}

func TestMeterNilSafety(t *testing.T) {
	var m *Meter
	m.ChargePTE(5)
	m.ChargeFault()
	m.ChargeCopy(3)
	m.ChargeInstr(10)
	m.ChargeProtect(2) // all no-ops, no panic
}

func TestGrowNeverShrinks(t *testing.T) {
	o := NewObject("x", 4*PageSize)
	o.Grow(2 * PageSize)
	if o.Size() != 4*PageSize {
		t.Fatalf("Grow shrank the object to %d", o.Size())
	}
	o.Grow(8 * PageSize)
	if o.Size() != 8*PageSize {
		t.Fatalf("Grow failed: %d", o.Size())
	}
}
