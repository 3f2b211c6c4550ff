package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"slices"
	"testing"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// touchedHeap grows p's heap to `pages` pages and writes every one of
// them, so the whole object is resident and has heat.
func touchedHeap(t testing.TB, p *kernel.Process, pages int) {
	t.Helper()
	if _, err := p.Sbrk(int64(pages) * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vm.PageSize)
	for i := 0; i < pages; i++ {
		buf[0], buf[1], buf[2] = byte(i), byte(i>>8), 0x77
		if err := p.WriteMem(p.HeapBase()+vm.Addr(i*vm.PageSize), buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleasedImageResolvesNothing: once an image is released its
// frames are someone else's. It must hold no pointer to them, keep no
// link that pins the chain below it, and every walk that reaches it —
// from itself or from an image built on top of it — must come back
// with nothing found and never read through it.
func TestReleasedImageResolvesNothing(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	touchedHeap(t, p, 8)
	g, _ := r.o.Persist("app", p)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	base := g.LastImage()
	r.k.Run(3)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	top := g.LastImage()
	heap := imgObjIDOfHeap(base)
	st, err := top.resolve(nil)
	if top.Prev != base || err != nil || len(st.objs[heap].frames) < 8 {
		t.Fatalf("fixture: the incremental image should resolve through its full predecessor (err %v)", err)
	}
	procOID := base.Roots[0]
	if !slices.ContainsFunc(st.meta, func(m MetaRec) bool { return m.OID == procOID }) {
		t.Fatal("fixture: process metadata should resolve")
	}

	base.Release(r.k.Mem)
	base.Release(r.k.Mem) // twice is once
	for id, mi := range base.Memory {
		if mi.Pages != nil {
			t.Fatalf("released image still points at %d frames of object %d", len(mi.Pages), id)
		}
	}
	if base.Prev != nil {
		t.Fatal("released image still links to its predecessor")
	}
	for name, img := range map[string]*Image{"released image": base, "image built on it": top} {
		if img.Resolvable() {
			t.Errorf("%s reports Resolvable", name)
		}
		if _, err := img.resolve(nil); !errors.Is(err, ErrNoImage) {
			t.Errorf("resolving %s = %v, want ErrNoImage", name, err)
		}
		if data := img.ResolvePage(heap, 7); data != nil { // a page only the base captured
			t.Errorf("%s resolved a page through the released image", name)
		}
		if _, _, err := r.o.RestoreImage(img, 0, RestoreOpts{}); !errors.Is(err, ErrNoImage) {
			t.Errorf("restoring %s = %v, want ErrNoImage", name, err)
		}
	}
	// Identity survives: a store flush of the successor needs Prev.Epoch.
	if base.Epoch != 1 || top.Prev.Epoch != 1 || !base.Released() || top.Released() {
		t.Fatal("release damaged image identity")
	}
}

// TestRestoreResolvesItsChainOnce: a restore reads its image's chain in
// one walk, and that walk is its only check. An image released before
// the walk restores as ErrNoImage, never as objects with no pages; one
// released after it cannot take back the frames the restore maps.
func TestRestoreResolvesItsChainOnce(t *testing.T) {
	const pages = 8
	r := newRig(t)
	p := spawnCounter(t, r)
	touchedHeap(t, p, pages)
	g, _ := r.o.Persist("app", p)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	base := g.LastImage()
	r.k.Run(3)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	top := g.LastImage()
	want := make([]byte, pages*vm.PageSize)
	if err := p.ReadMem(p.HeapBase(), want); err != nil {
		t.Fatal(err)
	}
	// From here the two images hold the captured frames alone.
	r.k.Exit(p, 0)
	if err := r.k.Reap(p); err != nil {
		t.Fatal(err)
	}

	st, err := top.resolve(r.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	base.Release(r.k.Mem)
	top.Release(r.k.Mem)
	for i := 0; i < 4*pages; i++ { // whatever was freed is handed out and scribbled on
		f, err := r.k.Mem.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.Data {
			f.Data[j] = 0xEE
		}
	}
	ng, _, err := r.o.restoreState(top, st, 0, RestoreOpts{})
	st.unpin()
	if err != nil {
		t.Fatalf("restoring what the walk read: %v", err)
	}
	np, err := r.k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pages*vm.PageSize)
	if err := np.ReadMem(np.HeapBase(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the restored heap differs from the one checkpointed: a release after the walk took its frames")
	}
	if _, _, err := r.o.RestoreImage(top, 0, RestoreOpts{}); !errors.Is(err, ErrNoImage) {
		t.Fatalf("restoring the released image = %v, want ErrNoImage", err)
	}
}

// The delta encodings of codecImage(epoch 4, 24 pages per object,
// distinctFill), captured at the commit before heat became a slice.
const (
	goldenDeltaLen, goldenDeltaSHA     = 303660, "5692b77ae02d857b4e9af1d9627095a5c827c1c30a337887d3d36e2d2c0fe637"
	goldenCompactLen, goldenCompactSHA = 303734, "ab6f6fe3d62b3153ae809898425400e16f2d856cdfa9d050502d401791fdf05f"
	goldenRefsLen, goldenRefsSHA       = 206174, "9aac68086c76a5c8bff81a791e69d57bd1db43bda8011cba204253dbe866faca"
)

// TestDeltaEncodingsMatchGolden: the wire bytes did not move.
func TestDeltaEncodingsMatchGolden(t *testing.T) {
	img := codecImage(t, vm.NewPhysMem(0), 4, false, 24, distinctFill)
	check := func(what string, got []byte, wantLen int, wantSHA string) {
		t.Helper()
		sum := sha256.Sum256(got)
		if len(got) != wantLen || hex.EncodeToString(sum[:]) != wantSHA {
			t.Errorf("%s: %d bytes, sha256 %x; golden is %d bytes, %s", what, len(got), sum, wantLen, wantSHA)
		}
	}
	check("EncodeDelta", img.EncodeDelta(), goldenDeltaLen, goldenDeltaSHA)
	compact, _, _ := img.EncodeDeltaCompact(nil)
	check("EncodeDeltaCompact(nil)", compact, goldenCompactLen, goldenCompactSHA)
	n := 0
	refs, _, skipped := img.EncodeDeltaCompact(func(objstore.Hash) bool { n++; return n%3 == 0 })
	if skipped != 24 {
		t.Errorf("every third page skipped = %d, want 24", skipped)
	}
	check("EncodeDeltaCompact(every third)", refs, goldenRefsLen, goldenRefsSHA)
}

// TestHeatSurvivesConsolidatedEncode: Encode writes the newest
// non-empty snapshot of the chain in page order, and DecodeImage hands
// it back unchanged.
func TestHeatSurvivesConsolidatedEncode(t *testing.T) {
	pm := vm.NewPhysMem(0)
	base := codecImage(t, pm, 1, true, 8, distinctFill)
	top := codecImage(t, pm, 2, false, 4, distinctFill)
	top.Prev = base
	top.Memory[3].Heat = nil // object 3: only the base image has heat
	dec, err := DecodeImage(top.Encode(), pm)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.Memory[3].Heat, base.Memory[3].Heat) {
		t.Errorf("object 3 heat = %v, want the base image's %v", dec.Memory[3].Heat, base.Memory[3].Heat)
	}
	if !slices.Equal(dec.Memory[700].Heat, top.Memory[700].Heat) {
		t.Errorf("object 700 heat = %v, want the newer image's %v", dec.Memory[700].Heat, top.Memory[700].Heat)
	}
	if dec.Memory[11].Heat != nil {
		t.Errorf("object 11 never had heat, decoded %v", dec.Memory[11].Heat)
	}
}

// TestWarmCheckpointCycleAllocatesByDirtySet is the count guard of the
// checkpoint data path: one warm write → barrier → flush → trim cycle
// that dirties 16 pages of a 16 384-page, fully touched object under
// HistoryLimit allocates at most 512 KiB. Before the merge-forward
// folded the smaller side and heat was a map, the same cycle allocated
// over 3 MiB (the heir map regrown to 16 384 entries, the heat map
// copied). What remains is dominated by the heat snapshot, which the
// format keeps at one 16-byte entry per page ever touched: 256 KiB
// here.
func TestWarmCheckpointCycleAllocatesByDirtySet(t *testing.T) {
	const pages, dirty, limit = 16384, 16, 512 << 10
	r := newRig(t)
	r.store.HistoryLimit = 3
	p, err := r.k.Spawn(0, "big")
	if err != nil {
		t.Fatal(err)
	}
	touchedHeap(t, p, pages)
	g, _ := r.o.Persist("big", p)
	r.o.Attach(g, r.store)
	cycle := func(round int) {
		for j := 0; j < dirty; j++ {
			pg := (j*(pages/dirty) + round) % pages
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), []byte{byte(round), 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 6; round++ { // full checkpoint, then fill the history
		cycle(round)
	}
	dropped := r.store.Store().Stats().EpochsDropped
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle(6)
	runtime.ReadMemStats(&after)
	if got := r.store.Store().Stats().EpochsDropped - dropped; got != 1 {
		t.Fatalf("the measured cycle dropped %d epochs, want 1: history trimming is not warm", got)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Errorf("one warm %d-dirty-page cycle on a %d-page object allocated %d KiB, limit %d KiB",
			dirty, pages, grew>>10, limit>>10)
	} else {
		t.Logf("one warm cycle allocated %d KiB", grew>>10)
	}
}

// TestReapReturnsEverything: restore → demand-page → exit → reap →
// unpersist, two hundred times, on a machine with room for the image
// plus 128 frames. Unless Reap unmaps the address space, residency only
// grows and the bounded allocator runs dry in the third round.
func TestReapReturnsEverything(t *testing.T) {
	const pages, touch, rounds = 256, 64, 200
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(pages+128))
	o := NewOrchestrator(k)
	defer o.Close()
	st := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
	p, err := k.Spawn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	touchedHeap(t, p, pages)
	g, _ := o.Persist("app", p)
	o.Attach(g, NewStoreBackend(st, k.Mem, clock))
	if _, err := o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := o.Sync(g); err != nil {
		t.Fatal(err)
	}
	start := k.Mem.Resident()
	if start != pages {
		t.Fatalf("fixture holds %d frames, want the %d heap pages", start, pages)
	}

	buf := make([]byte, 8)
	for round := 0; round < rounds; round++ {
		ng, _, err := o.Restore(g, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		np, _ := k.Process(ng.PIDs()[0])
		for j := 0; j < touch; j++ {
			pg := (j*(pages/touch) + round) % pages
			if err := np.ReadMem(np.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
				t.Fatalf("round %d: demand paging page %d: %v", round, pg, err)
			}
			if buf[0] != byte(pg) || buf[1] != byte(pg>>8) || buf[2] != 0x77 {
				t.Fatalf("round %d: page %d restored as % x", round, pg, buf[:3])
			}
		}
		if got := k.Mem.Resident(); got != start+touch {
			t.Fatalf("round %d: %d frames resident with %d pages demand-paged, want %d", round, got, touch, start+touch)
		}
		k.Exit(np, 0)
		if err := k.Reap(np); err != nil {
			t.Fatalf("round %d: reap: %v", round, err)
		}
		o.Unpersist(ng)
		if got := k.Mem.Resident(); got != start {
			t.Fatalf("round %d: %d frames resident after reap, started at %d", round, got, start)
		}
	}
}
