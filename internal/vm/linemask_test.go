package vm

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"aurora/internal/storage"
)

// TestDirtyLineMaskProperty: whatever writes the application makes —
// from either of two address spaces mapping one object, across line and
// page boundaries, whole pages, zero fills of pages never resident —
// and whatever the kernel adds (MarkDirty, a prefetch by InsertPage),
// each incremental barrier's dirty set covers every change: a page
// outside it holds what it held at the previous barrier, a captured page
// differs from that only in the lines of its mask, and a COW copy
// differs from the capture it was copied from (Frame.CopiedFrom) only
// there. The store's line entries, the wire's line deltas and a hash
// resumed from a midstate are sound only as long as this holds. Seeds
// 1–50, eight barriers each.
func TestDirtyLineMaskProperty(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { dirtyLineMaskRun(t, seed) })
	}
}

func dirtyLineMaskRun(t *testing.T, seed uint64) {
	const pages, barriers = 16, 8
	rng := rand.New(rand.NewPCG(seed, 0x11e5))
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	obj := pm.NewObject("shm", pages*PageSize)
	var spaces [2]*AddressSpace
	var starts [2]Addr
	for i := range spaces {
		spaces[i] = NewAddressSpace(pm, meter)
		m, err := spaces[i].Map(Addr(0x1000_0000*(i+1)), pages*PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
		if err != nil {
			t.Fatal(err)
		}
		starts[i] = m.Start
	}
	// page reads page idx as the object holds it now (zero if absent).
	page := func(idx int64) ([]byte, bool) {
		p := make([]byte, PageSize)
		f := obj.Lookup(idx)
		if f != nil {
			copy(p, f.Data)
		}
		return p, f != nil
	}
	prev := make([][]byte, pages) // each page at the previous barrier
	for idx := range prev {
		prev[idx] = make([]byte, PageSize)
	}
	captured := map[uint64]map[int64][]byte{} // capture -> pages it took

	for epoch := uint64(1); epoch <= barriers; epoch++ {
		for op := rng.IntN(40); op >= 0; op-- {
			as, start := spaces[rng.IntN(2)], starts[0]
			if as == spaces[1] {
				start = starts[1]
			}
			switch r := rng.IntN(20); {
			case r < 14: // a write of a few bytes, maybe across a boundary
				n := 1 + rng.IntN(200)
				off := rng.Int64N(pages*PageSize - int64(n))
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(rng.Uint32())
				}
				if err := as.Write(start+Addr(off), buf); err != nil {
					t.Fatal(err)
				}
			case r < 17: // a whole page
				buf := make([]byte, PageSize)
				for i := range buf {
					buf[i] = byte(rng.Uint32())
				}
				if err := as.Write(start+Addr(rng.IntN(pages)*PageSize), buf); err != nil {
					t.Fatal(err)
				}
			case r < 18: // the kernel marks lines it did not write
				obj.MarkDirty(rng.Int64N(pages), rng.Uint64())
			default: // a prefetch: the page comes back, same bytes, new frame
				idx := rng.Int64N(pages)
				if f := obj.Lookup(idx); f != nil && !obj.IsProtected(idx) {
					g, err := pm.AllocData(f.Data)
					if err != nil {
						t.Fatal(err)
					}
					obj.InsertPage(pm, idx, g)
				}
			}
		}

		dirty := map[int64]bool{}
		for _, idx := range obj.DirtyPages() {
			dirty[idx] = true
		}
		cs := obj.BeginCheckpoint(epoch, false)
		for _, as := range spaces {
			as.ProtectObject(obj, cs.Pages)
		}
		took := map[int64][]byte{}
		for idx := int64(0); idx < pages; idx++ {
			now, resident := page(idx)
			i, ok := SearchRun(cs.Pages, idx, func(p *Page) int64 { return p.Idx })
			var mask uint64
			var f *Frame
			if ok {
				mask, f = cs.Pages[i].Lines, cs.Pages[i].Frame
			}
			if ok != (dirty[idx] && resident) {
				t.Fatalf("epoch %d page %d: dirty %v, resident %v, captured %v", epoch, idx, dirty[idx], resident, ok)
			}
			if !ok {
				if !bytes.Equal(now, prev[idx]) {
					t.Fatalf("epoch %d page %d: changed, but not in the dirty set", epoch, idx)
				}
				continue
			}
			took[idx] = now
			if line, ok := changedOutside(prev[idx], now, mask); ok {
				t.Fatalf("epoch %d page %d: line %d changed outside mask %#x", epoch, idx, line, mask)
			}
			if base := f.CopiedFrom(cs.Capture); base != 0 {
				from, ok := captured[base][idx]
				if !ok {
					t.Fatalf("epoch %d page %d: copied from capture %d, which did not take it", epoch, idx, base)
				}
				if line, ok := changedOutside(from, now, mask); ok {
					t.Fatalf("epoch %d page %d: line %d differs from capture %d outside mask %#x", epoch, idx, line, base, mask)
				}
			}
			prev[idx] = now
		}
		captured[cs.Capture] = took
		release(pm, cs)
	}
}

// changedOutside reports the first line outside mask in which a and b
// differ.
func changedOutside(a, b []byte, mask uint64) (int, bool) {
	for line := 0; line < PageSize/LineSize; line++ {
		lo := line * LineSize
		if mask&(1<<line) == 0 && !bytes.Equal(a[lo:lo+LineSize], b[lo:lo+LineSize]) {
			return line, true
		}
	}
	return 0, false
}
