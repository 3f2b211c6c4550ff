package core

import (
	"encoding"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// incrEpoch writes one epoch of redis-incr's shape into the rig's heap
// of `resident` pages: `bytes` distinct pages get a one-byte write at a
// seeded offset and `whole` others are overwritten whole. It returns,
// per page written, the offset of its first written byte.
func incrEpoch(t *testing.T, r *flushRig, rng *rand.Rand, resident, bytes, whole int) map[int64]int {
	t.Helper()
	first := make(map[int64]int, bytes+whole)
	page := make([]byte, vm.PageSize)
	for i, pg := range rng.Perm(resident)[:bytes+whole] {
		at := r.p.HeapBase() + vm.Addr(pg*vm.PageSize)
		if i < whole {
			for j := range page {
				page[j] = byte(rng.Uint32())
			}
			if err := r.p.WriteMem(at, page); err != nil {
				t.Fatal(err)
			}
			first[int64(pg)] = 0
			continue
		}
		off := rng.IntN(vm.PageSize)
		if err := r.p.WriteMem(at+vm.Addr(off), []byte{byte(rng.Uint32()) | 1}); err != nil {
			t.Fatal(err)
		}
		first[int64(pg)] = off
	}
	return first
}

// heapImage returns the image's capture of the rig's heap.
func heapImage(t *testing.T, img *Image) *MemImage {
	t.Helper()
	for _, mi := range img.Memory {
		if mi.Name == "heap" {
			return mi
		}
	}
	t.Fatal("the image holds no heap")
	return nil
}

// TestPartlyWrittenPagesResumeTheirHash is redis-incr's epoch on a
// 4,096-page heap: 192 one-byte writes at seeded offsets and 64 whole
// pages overwritten. A page written in one line hashes from the last
// 512-byte step at or before that line, resuming from the midstate the
// previous epoch's hash of the page left there; the whole pages hash
// whole, and so does about one resumable page in resumeCheckEvery,
// which checks the midstate it would have resumed from. So an epoch
// hashes 64 × 4 KiB and, for each one-byte page, 4 KiB less its
// untouched 512-byte steps in front — about 688 KiB, against 1 MiB for
// whole pages — and every hash is still the SHA-256 of the page. Three
// epochs in a row: the second and third resume from midstates a
// resumed hash left.
func TestPartlyWrittenPagesResumeTheirHash(t *testing.T) {
	const resident, bytes, whole = 4096, 192, 64
	r := newFlushRig(t, resident, 0)
	rng := rand.New(rand.NewPCG(1, 37))
	checked := 0
	for epoch := 0; epoch < 3; epoch++ {
		first := incrEpoch(t, r, rng, resident, bytes, whole)
		img := r.next(false)
		mi := heapImage(t, img)
		var want int64
		for idx, off := range first {
			step := off / midstateStep
			if step > 0 {
				from, ok := mi.midstates.load(idx, frameAt(mi, idx).CopiedFrom(mi.capture), step-1)
				if !ok {
					t.Fatalf("epoch %d: page %d holds no midstate to resume from", epoch, idx)
				}
				if resumeChecked(img.Epoch, idx, &from) {
					step = 0
					checked++
				}
			}
			want += int64(vm.PageSize - step*midstateStep)
		}
		pages := img.PageHashes()
		if len(pages) != bytes+whole || img.PagesHashed() != bytes+whole {
			t.Fatalf("epoch %d: %d pages, %d hashed; want %d", epoch, len(pages), img.PagesHashed(), bytes+whole)
		}
		if got := img.BytesHashed(); got != want {
			t.Errorf("epoch %d: hashed %d bytes, the rule predicts %d", epoch, got, want)
		}
		if got := img.BytesHashed(); got > 720<<10 || got < 640<<10 {
			t.Errorf("epoch %d: hashed %d KiB, want about 688", epoch, got>>10)
		}
		for _, p := range pages {
			if got, want := p.Hash, objstore.ContentHash(mi.page(p.Idx)); got != want {
				t.Fatalf("epoch %d: page %d (first write at %d) hashes to %x, its content to %x", epoch, p.Idx, first[p.Idx], got[:4], want[:4])
			}
		}
		if err := r.o.Sync(r.g); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Error("no resumable page was checked in three epochs")
	}
}

// TestResumedHashCheckedWholeUnderRace: a resumed hash is the page's
// content hash only if the midstate it resumed from is. Poison the one
// a page's next hash will resume from, with a value the sampled check
// passes over: that hash comes out wrong, and under the race detector
// the store's verifySuppliedHashes, which recomputes every supplied
// hash over the whole page, refuses the flush.
func TestResumedHashCheckedWholeUnderRace(t *testing.T) {
	r := newFlushRig(t, 64, 0)
	const pg, off = 5, 3000 // resumes at step 5
	write := func(b byte) *Image {
		if err := r.p.WriteMem(r.p.HeapBase()+vm.Addr(pg*vm.PageSize+off), []byte{b}); err != nil {
			t.Fatal(err)
		}
		return r.next(false)
	}
	base := heapImage(t, write(1)).capture
	if err := r.o.Sync(r.g); err != nil {
		t.Fatal(err)
	}

	img := write(2)
	var poison pageMidstates
	for b := byte(0); ; b++ {
		poison[off/midstateStep-1][0] = b
		if !resumeChecked(img.Epoch, pg, &poison[off/midstateStep-1]) {
			break
		}
	}
	mi := heapImage(t, img)
	mi.midstates.store(pg, base, base, 1, &poison)
	page := mi.page(pg)
	for _, p := range img.PageHashes() {
		if p.Idx == pg && p.Hash == objstore.ContentHash(page) {
			t.Fatal("a hash resumed from a poisoned midstate came out right: it did not resume")
		}
	}
	refused := func() (refused bool) {
		defer func() { refused = recover() != nil }()
		r.store.WithLane(r.clock.Lane()).Flush(img, nil)
		return false
	}()
	if refused != raceEnabled {
		t.Fatalf("race detector %v: the store refused a wrong resumed hash: %v", raceEnabled, refused)
	}
}

// TestResumeCheckCatchesAnUnmarkedWrite: a write the dirty-line mask
// missed, in front of a page's first marked line, leaves the bytes a
// resumed hash skips different from those the earlier capture hashed.
// The resumed hash is then the hash of the page the store's line entry
// would rebuild, not of the page, and no read-side check could tell.
// The pages resumeChecked picks are hashed whole instead, and the
// midstate that hash passes at the resume step differs from the table's:
// the flush stops there, in any build. 256 pages written at byte 3000
// after a change at byte 100 no barrier saw; hashed inline, so the
// panic is the test's to recover.
func TestResumeCheckCatchesAnUnmarkedWrite(t *testing.T) {
	const pages, off = 256, 3000
	r := newFlushRig(t, pages, 0)
	write := func(b byte) *Image {
		for pg := 0; pg < pages; pg++ {
			if err := r.p.WriteMem(r.p.HeapBase()+vm.Addr(pg*vm.PageSize+off), []byte{b}); err != nil {
				t.Fatal(err)
			}
		}
		return r.next(false)
	}
	write(1)
	if err := r.o.Sync(r.g); err != nil {
		t.Fatal(err)
	}
	img := write(2)
	mi := heapImage(t, img)
	for _, p := range mi.Pages {
		p.Frame.Data[100] ^= 0xFF // behind the mask's back
	}
	span, _, _ := img.pageOrder()
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		img.hashRun(span, make([]uint8, len(span)))
		return nil
	}()
	if msg == nil {
		t.Fatal("an unmarked write in front of the first dirty line went unnoticed on all 256 pages")
	}
	if s := fmt.Sprint(msg); !strings.Contains(s, "a write was not marked") {
		t.Fatalf("panic %q does not name the missed write", s)
	}
}

// TestMidstateTablesFollowTrackedObjects: the group keeps one midstate
// table per object its barriers track, the same one from barrier to
// barrier, and lets go of an object's once a barrier no longer tracks
// it.
func TestMidstateTablesFollowTrackedObjects(t *testing.T) {
	r := newFlushRig(t, 16, 0)
	heap := heapImage(t, r.next(false))
	obj := r.k.Mem.NewObject("shm", 4*vm.PageSize)
	const at = vm.Addr(0x7000_0000)
	if _, err := r.p.Space.Map(at, 4*vm.PageSize, vm.ProtRead|vm.ProtWrite, obj, 0, true, "shm"); err != nil {
		t.Fatal(err)
	}
	if err := r.p.WriteMem(at+100, []byte{1}); err != nil {
		t.Fatal(err)
	}
	img := r.next(false)
	if got := heapImage(t, img).midstates; got != heap.midstates {
		t.Fatal("the heap got a new midstate table at its second barrier")
	}
	if img.Memory[obj.ID] == nil || r.g.midstates[obj.ID] != img.Memory[obj.ID].midstates {
		t.Fatal("a newly mapped object's capture does not carry the group's table for it")
	}
	if err := r.p.Space.Unmap(at, 4*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	r.next(false)
	if _, ok := r.g.midstates[obj.ID]; ok || len(r.g.midstates) != len(r.g.LastImage().Memory) {
		t.Fatalf("the group holds %d tables after a barrier that tracked %d objects", len(r.g.midstates), len(r.g.LastImage().Memory))
	}
}

// TestPageHasherMarshalsWithoutAppendBinary: a crypto/sha256 digest
// before Go 1.24 has no AppendBinary, and the hasher reads its state
// with MarshalBinary instead. Both read the same midstates, and a hash
// resumed from one of them is the page's content hash.
func TestPageHasherMarshalsWithoutAppendBinary(t *testing.T) {
	page := make([]byte, vm.PageSize)
	rng := rand.New(rand.NewPCG(1, 37))
	for i := range page {
		page[i] = byte(rng.Uint32())
	}
	want := objstore.ContentHash(page)
	appends, marshals := newPageHasher(), newPageHasher()
	m := marshals.d.(encoding.BinaryMarshaler)
	marshals.save = func([]byte) ([]byte, error) { return m.MarshalBinary() }
	for _, h := range []*pageHasher{appends, marshals} {
		if got := h.hash(page, 0, midstate{}); got != want {
			t.Fatalf("whole hash %x, want %x", got[:4], want[:4])
		}
	}
	if appends.mids != marshals.mids {
		t.Fatal("MarshalBinary and AppendBinary read different midstates")
	}
	for step := 1; step < midstateSteps; step++ {
		if got := marshals.hash(page, step, appends.mids[step-1]); got != want {
			t.Fatalf("hash resumed at step %d: %x, want %x", step, got[:4], want[:4])
		}
	}
}

// BenchmarkPageHashes is the host cost of hashing one epoch's pages on
// one goroutine (hashRun, the fork-join's unit of work): 256 pages each
// written in one line at a seeded offset, which resume from the
// midstates the previous epoch's hash left, and 256 pages overwritten
// whole, which hash whole and leave their midstates. Writing and
// capturing the epoch is outside the timer.
func BenchmarkPageHashes(b *testing.B) {
	const resident, dirty = 4096, 256
	for _, shape := range []string{"one-line", "whole"} {
		b.Run(shape, func(b *testing.B) {
			r := newFlushRig(b, resident, 0)
			rng := rand.New(rand.NewPCG(1, 37))
			page := make([]byte, vm.PageSize)
			var hashed int64
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				for _, pg := range rng.Perm(resident)[:dirty] {
					at := r.p.HeapBase() + vm.Addr(pg*vm.PageSize)
					data := page[:1]
					if shape == "whole" {
						data = page
					} else {
						at += vm.Addr(rng.IntN(vm.PageSize))
					}
					page[0]++
					if err := r.p.WriteMem(at, data); err != nil {
						b.Fatal(err)
					}
				}
				img := r.next(false)
				pages, _, _ := img.pageOrder()
				resumed := make([]uint8, len(pages))
				b.StartTimer()
				hashed += img.hashRun(pages, resumed)
				b.StopTimer()
				img.hashMu.Lock()
				img.pages, img.resumed, img.hashDone = pages, resumed, true
				img.hashMu.Unlock()
				if err := r.o.Sync(r.g); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dirty), "ns/page")
			b.ReportMetric(float64(hashed)/float64(b.N*dirty), "B-hashed/page")
		})
	}
}
