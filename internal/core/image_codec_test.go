package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aurora/internal/codec"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// codecImage builds an image by hand, so the codec tests need no
// kernel: three objects (IDs deliberately not ascending in creation
// order), frame pages at scattered indices, swap-page copies on one
// object, heat on two, metadata and roots. Page i of object id holds
// fill(id, i) in every byte, so equal fills are equal contents.
func codecImage(tb testing.TB, pm *vm.PhysMem, epoch uint64, full bool, pagesPerObj int, fill func(id uint64, i int) byte) *Image {
	tb.Helper()
	img := &Image{
		Group: 9, Epoch: epoch, Gen: 2, Name: "codec", Full: full,
		Meta: []MetaRec{
			{OID: 40, Kind: kernel.KindVMObject, Data: []byte("forty")},
			{OID: 12, Kind: kernel.KindVMObject, Data: nil},
		},
		Memory: make(map[uint64]*MemImage),
		Roots:  []uint64{40, 12},
	}
	for _, id := range []uint64{700, 3, 11} {
		mi := &MemImage{ObjID: id, Name: fmt.Sprintf("obj%d", id), Size: int64(pagesPerObj) * 3 * vm.PageSize,
			Pages: make(map[int64]*vm.Frame)}
		for i := 0; i < pagesPerObj; i++ {
			f, err := pm.Alloc()
			if err != nil {
				tb.Fatal(err)
			}
			for j := range f.Data {
				f.Data[j] = fill(id, i)
			}
			mi.Pages[int64(i*3)] = f
		}
		if id == 3 {
			mi.SwapData = map[int64][]byte{
				1:   bytes.Repeat([]byte{0xA1}, vm.PageSize),
				200: bytes.Repeat([]byte{0xA2}, vm.PageSize),
			}
		}
		if id != 11 {
			for i := 0; i < 2*pagesPerObj; i++ {
				mi.Heat = append(mi.Heat, vm.PageHeat{Page: int64(i), Count: uint32(i * i)})
			}
		}
		img.Memory[id] = mi
	}
	return img
}

func distinctFill(id uint64, i int) byte { return byte(id)*31 + byte(i) }

// samePages reports the first page on which two images differ.
func samePages(a, b *Image) error {
	if len(a.Memory) != len(b.Memory) {
		return fmt.Errorf("%d objects, want %d", len(b.Memory), len(a.Memory))
	}
	for id, ma := range a.Memory {
		mb := b.Memory[id]
		if mb == nil {
			return fmt.Errorf("object %d missing", id)
		}
		if ma.PageCount() != mb.PageCount() {
			return fmt.Errorf("object %d: %d pages, want %d", id, mb.PageCount(), ma.PageCount())
		}
		if !slices.Equal(ma.Heat, mb.Heat) {
			return fmt.Errorf("object %d heat = %v, want %v", id, mb.Heat, ma.Heat)
		}
	}
	for _, p := range a.pageOrder() {
		if !bytes.Equal(a.Memory[p.ObjID].PageData(p.Idx), b.Memory[p.ObjID].PageData(p.Idx)) {
			return fmt.Errorf("object %d page %d differs", p.ObjID, p.Idx)
		}
	}
	return nil
}

// TestDeltaEncodeDeterministic: an image encodes to the same bytes
// every time, in ascending (ObjID, page index), in a buffer of exactly
// the payload's size — for both delta layouts, with and without refs.
func TestDeltaEncodeDeterministic(t *testing.T) {
	pm := vm.NewPhysMem(0)
	img := codecImage(t, pm, 4, false, 24, distinctFill)
	everyThird := func() func(objstore.Hash) bool {
		n := 0
		return func(objstore.Hash) bool { n++; return n%3 == 0 }
	}
	encoders := map[string]func() []byte{
		"EncodeDelta":              img.EncodeDelta,
		"EncodeDeltaCompact(nil)":  func() []byte { p, _, _ := img.EncodeDeltaCompact(nil); return p },
		"EncodeDeltaCompact(refs)": func() []byte { p, _, _ := img.EncodeDeltaCompact(everyThird()); return p },
	}
	for name, encode := range encoders {
		first := encode()
		if len(first) != cap(first) {
			t.Errorf("%s: payload of %d bytes sits in a buffer of %d", name, len(first), cap(first))
		}
		for i := 0; i < 8; i++ {
			if again := encode(); !bytes.Equal(first, again) {
				t.Fatalf("%s: encode %d of one image differs from the first", name, i+2)
			}
		}
	}

	_, pages, skipped := img.EncodeDeltaCompact(everyThird())
	if len(pages) != img.PageCount() || skipped != len(pages)/3 {
		t.Fatalf("compact encode reports %d pages (%d skipped), image holds %d", len(pages), skipped, img.PageCount())
	}
	for i := 1; i < len(pages); i++ {
		a, b := pages[i-1], pages[i]
		if a.ObjID > b.ObjID || a.ObjID == b.ObjID && a.Idx >= b.Idx {
			t.Fatalf("pages %d,%d out of order: (%d,%d) then (%d,%d)", i-1, i, a.ObjID, a.Idx, b.ObjID, b.Idx)
		}
	}
	for _, p := range pages {
		if want := PageContentHash(img.Memory[p.ObjID].PageData(p.Idx)); p.Hash != want {
			t.Fatalf("object %d page %d: memoised hash is not the page's content hash", p.ObjID, p.Idx)
		}
	}
}

// TestEncodeDeterministic: the consolidated layout `sls send` writes is
// a function of the chain — objects by ascending ID, pages by ascending
// index, whatever order the page maps iterate in — and a decoded image
// encodes back to the very bytes it came from.
func TestEncodeDeterministic(t *testing.T) {
	pm := vm.NewPhysMem(0)
	base := codecImage(t, pm, 1, true, 24, distinctFill)
	top := codecImage(t, pm, 2, false, 12, func(id uint64, i int) byte { return distinctFill(id, i) + 100 })
	top.Prev = base
	first := top.Encode()
	for i := 0; i < 8; i++ {
		if again := top.Encode(); !bytes.Equal(first, again) {
			t.Fatalf("encode %d of one chain differs from the first", i+2)
		}
	}
	dec, err := DecodeImage(first, pm)
	if err != nil {
		t.Fatal(err)
	}
	if again := dec.Encode(); !bytes.Equal(first, again) {
		t.Fatal("a decoded image does not encode back to its bytes")
	}
	dec.Release(pm)
}

// TestDeltaRoundTripPreservesPages: decode∘encode keeps every page,
// heat entry and header field, for a full and an incremental image, in
// both layouts; compact refs resolve through the callback, and frames
// go back to the allocator on release.
func TestDeltaRoundTripPreservesPages(t *testing.T) {
	for _, full := range []bool{true, false} {
		src := vm.NewPhysMem(0)
		img := codecImage(t, src, 7, full, 16, distinctFill)

		dst := vm.NewPhysMem(0)
		plain, err := DecodeDelta(img.EncodeDelta(), dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePages(img, plain); err != nil {
			t.Fatalf("full=%v plain delta: %v", full, err)
		}
		if plain.Full != full || plain.Group != img.Group || plain.Epoch != img.Epoch || plain.Gen != img.Gen ||
			plain.Name != img.Name || len(plain.Meta) != len(img.Meta) || len(plain.Roots) != len(img.Roots) {
			t.Fatalf("full=%v plain delta header: %v, want %v", full, plain, img)
		}

		// Compact: every second page travels as a ref and is resolved
		// from the plain decode's frames, which the new image then shares.
		held := make(map[objstore.Hash]*vm.Frame)
		for _, p := range plain.PageHashes() {
			held[p.Hash] = plain.Memory[p.ObjID].Pages[p.Idx]
		}
		n := 0
		payload, pages, skipped := img.EncodeDeltaCompact(func(objstore.Hash) bool { n++; return n%2 == 0 })
		before := dst.Resident()
		compact, missing, err := DecodeDeltaCompact(payload, dst, func(h objstore.Hash) (*vm.Frame, bool) {
			f, ok := held[h]
			if ok {
				f.Ref()
			}
			return f, ok
		}, nil)
		if err != nil || len(missing) != 0 {
			t.Fatalf("full=%v compact delta: err=%v missing=%d", full, err, len(missing))
		}
		if err := samePages(img, compact); err != nil {
			t.Fatalf("full=%v compact delta: %v", full, err)
		}
		if got := dst.Resident() - before; got != int64(len(pages)-skipped) {
			t.Fatalf("full=%v compact decode allocated %d frames for %d literals", full, got, len(pages)-skipped)
		}
		// The decoder filled the hash memo: literals hashed once, refs
		// taken from the wire.
		if got := compact.PagesHashed(); got != int64(len(pages)-skipped) {
			t.Fatalf("full=%v compact decode hashed %d pages, want the %d literals", full, got, len(pages)-skipped)
		}
		got := compact.PageHashes()
		if len(got) != len(pages) {
			t.Fatalf("full=%v decoded memo has %d pages, want %d", full, len(got), len(pages))
		}
		for i := range got {
			if got[i] != pages[i] {
				t.Fatalf("full=%v decoded memo entry %d = %+v, want %+v", full, i, got[i], pages[i])
			}
		}
		if compact.PagesHashed() != int64(len(pages)-skipped) {
			t.Fatal("PageHashes on a decoded compact delta hashed again")
		}

		// An unresolvable ref is reported, not invented.
		if _, missing, err := DecodeDeltaCompact(payload, dst, nil, nil); err != nil || len(missing) != skipped {
			t.Fatalf("full=%v without a resolver: err=%v missing=%d, want %d", full, err, len(missing), skipped)
		}

		compact.Release(dst)
		plain.Release(dst)
	}
}

// TestPageHashesHashOnce: however many goroutines ask, and however
// many encodes follow, each page of an image is hashed once.
func TestPageHashesHashOnce(t *testing.T) {
	img := codecImage(t, vm.NewPhysMem(0), 1, true, 32, distinctFill)
	if img.PagesHashed() != 0 {
		t.Fatal("a fresh image claims hashing work")
	}
	img.EncodeDelta()
	if img.PagesHashed() != 0 {
		t.Fatal("the plain delta encoder hashed pages it has no use for")
	}
	var wg sync.WaitGroup
	firsts := make([]*PageHash, 8)
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, pages, _ := img.EncodeDeltaCompact(func(objstore.Hash) bool { return i%2 == 0 })
			firsts[i] = &pages[0]
		}()
	}
	wg.Wait()
	for i, p := range firsts {
		if p != firsts[0] {
			t.Fatalf("goroutine %d got a page-hash set of its own", i)
		}
	}
	if got, want := img.PagesHashed(), int64(img.PageCount()); got != want {
		t.Fatalf("%d hash computations for %d pages across 8 concurrent encodes", got, want)
	}
}

// deltaHeader starts a hand-written delta payload: the header, the
// given metadata and object counts, and the head of one unnamed object.
func deltaHeader(nMeta, nObjs uint64) *codec.Encoder {
	e := codec.NewEncoder()
	e.U64(1)      // group
	e.U64(1)      // epoch
	e.U64(0)      // gen
	e.Str("")     // name
	e.Bool(false) // full
	e.U64(nMeta)
	e.U64(nObjs)
	objectHeader(e)
	return e
}

func objectHeader(e *codec.Encoder) {
	e.U64(5) // ObjID
	e.Str("")
	e.I64(vm.PageSize)
}

// TestDecodersBoundWireCounts: a count read off the wire sizes nothing
// before it is checked against the bytes that remain, and a page or
// object that appears twice is corrupt rather than a leaked frame.
func TestDecodersBoundWireCounts(t *testing.T) {
	decoders := map[string]func([]byte, *vm.PhysMem) (*Image, error){
		"DecodeDelta": DecodeDelta,
		"DecodeDeltaCompact": func(p []byte, pm *vm.PhysMem) (*Image, error) {
			img, _, err := DecodeDeltaCompact(p, pm, nil, nil)
			return img, err
		},
	}
	page := bytes.Repeat([]byte{7}, vm.PageSize)
	entry := func(e *codec.Encoder, compact bool, idx int64) {
		e.I64(idx)
		if compact {
			e.U8(deltaPageLiteral)
		}
		e.Bytes2(page)
	}
	for name, decode := range decoders {
		compact := name == "DecodeDeltaCompact"

		// A heat count of four million in a 14-byte payload.
		e := deltaHeader(0, 1)
		e.U64(0)       // pages
		e.U64(1 << 22) // heat entries
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(e.Bytes(), vm.NewPhysMem(0))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: heat count beyond the payload: err = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: a %d-byte payload made the decoder allocate %d bytes", name, e.Len(), grew)
		}

		// Counts of metadata, objects and pages beyond the payload.
		for what, e := range map[string]*codec.Encoder{
			"metadata": deltaHeader(1<<40, 1),
			"object":   deltaHeader(0, 1<<40),
			"page":     deltaHeader(0, 1),
		} {
			if what == "page" {
				e.U64(1 << 40)
			}
			if _, err := decode(e.Bytes(), vm.NewPhysMem(0)); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s: %s count beyond the payload: err = %v, want ErrCorrupt", name, what, err)
			}
		}

		// The same page index twice in one object.
		pm := vm.NewPhysMem(0)
		e = deltaHeader(0, 1)
		e.U64(2)
		entry(e, compact, 3)
		entry(e, compact, 3)
		e.U64(0) // heat
		e.U64(0) // roots
		if img, err := decode(e.Bytes(), pm); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: duplicate page index: err = %v, want ErrCorrupt", name, err)
			if img != nil {
				img.Release(pm)
			}
		}
		if pm.Resident() != 0 {
			t.Errorf("%s: duplicate page index leaked %d frames", name, pm.Resident())
		}

		// The same object twice.
		e = deltaHeader(0, 2)
		e.U64(1)
		entry(e, compact, 0)
		e.U64(0) // heat
		objectHeader(e)
		e.U64(1)
		entry(e, compact, 0)
		e.U64(0) // heat
		e.U64(0) // roots
		if img, err := decode(e.Bytes(), pm); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: duplicate object: err = %v, want ErrCorrupt", name, err)
			if img != nil {
				img.Release(pm)
			}
		}
		if pm.Resident() != 0 {
			t.Errorf("%s: duplicate object leaked %d frames", name, pm.Resident())
		}
	}

	// The consolidated layout goes through the same body decoder.
	e := codec.NewEncoder()
	e.U64(1)
	e.U64(1)
	e.U64(0)
	e.Str("")
	e.U64(0) // metadata
	e.U64(1) // objects
	e.U64(5)
	e.Str("")
	e.I64(vm.PageSize)
	e.U64(0)       // pages
	e.U64(1 << 22) // heat
	if _, err := DecodeImage(e.Bytes(), vm.NewPhysMem(0)); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("DecodeImage: heat count beyond the payload: err = %v, want ErrCorrupt", err)
	}

	// A compact page tag that is neither literal, ref nor lines.
	pm := vm.NewPhysMem(0)
	e = deltaHeader(0, 1)
	e.U64(1)
	e.I64(0)
	e.U8(3)
	e.Bytes2(page)
	e.U64(0)
	e.U64(0)
	if _, _, err := DecodeDeltaCompact(e.Bytes(), pm, nil, nil); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("bad page tag: err = %v, want ErrCorrupt", err)
	}
	if pm.Resident() != 0 {
		t.Errorf("bad page tag leaked %d frames", pm.Resident())
	}
}

// fuzzSeeds are real encodes of a full and an incremental image, in
// the plain layout and in the compact one with and without refs, plus
// a hand-written payload of two short pages: the real ones are 30 KB
// each, which the mutator and the minimizer get through slowly.
func fuzzSeeds(f *testing.F, compact bool) {
	small := deltaHeader(0, 1)
	small.U64(2)
	for idx := int64(0); idx < 2; idx++ {
		small.I64(idx)
		if compact {
			small.U8(deltaPageLiteral)
		}
		small.Bytes2([]byte{byte(idx), 2, 3})
	}
	small.U64(1) // heat
	small.I64(0)
	small.U32(9)
	small.U64Slice([]uint64{5})
	f.Add(small.Bytes())

	pm := vm.NewPhysMem(0)
	for _, full := range []bool{true, false} {
		img := codecImage(f, pm, 3, full, 2, distinctFill)
		if !compact {
			f.Add(img.EncodeDelta())
			continue
		}
		for _, every := range []int{0, 2} {
			n := 0
			p, _, _ := img.EncodeDeltaCompact(func(objstore.Hash) bool { n++; return every > 0 && n%every == 0 })
			f.Add(p)
		}
	}
	if compact {
		for _, seed := range lineSeeds() {
			f.Add(seed.payload)
		}
	}
}

// zeroBase is the previous epoch of the hand-written line entries'
// receiver: it holds every even page of every object, all zeros, and
// no odd page.
func zeroBase(_, _, _ uint64, idx int64, dst []byte) bool {
	clear(dst)
	return idx%2 == 0
}

type lineSeed struct {
	name    string
	payload []byte
}

// lineSeeds are compact deltas of one line entry each over zeroBase:
// one that rebuilds its page, one whose hash is not the rebuilt page's,
// one whose mask names two lines and carries one, and one whose base
// the receiver does not hold.
func lineSeeds() []lineSeed {
	line := bytes.Repeat([]byte{0xAB}, vm.LineSize)
	page := make([]byte, vm.PageSize)
	copy(page[5*vm.LineSize:], line)
	good, zero := PageContentHash(page), PageContentHash(make([]byte, vm.PageSize))
	entry := func(idx int64, mask uint64, h objstore.Hash) []byte {
		e := deltaHeader(0, 1)
		e.U64(1)
		e.I64(idx)
		e.U8(deltaPageLines)
		e.U64(mask)
		e.Bytes2(line)
		e.Bytes2(h[:])
		e.U64(0) // heat
		e.U64(0) // roots
		return e.Bytes()
	}
	return []lineSeed{
		{"valid", entry(0, 1<<5, good)},
		{"wrong hash", entry(0, 1<<5, zero)},
		{"popcount", entry(0, 3<<5, good)},
		{"no base", entry(1, 1<<5, good)},
	}
}

// TestDecodeLineEntries: a line entry is its base with the sent lines
// over it, installed only when that hashes to the hash sent with it; a
// wrong hash or a base the receiver lacks is a missing page (a need),
// and a byte count that is not the mask's lines — or a line entry in a
// full image — is corrupt. Nothing leaks either way.
func TestDecodeLineEntries(t *testing.T) {
	seeds := lineSeeds()
	full := bytes.Clone(seeds[0].payload)
	full[4] = 1 // the header's full flag: group, epoch, gen and name take a byte each
	seeds = append(seeds, lineSeed{"full image", full})
	for _, seed := range seeds {
		pm := vm.NewPhysMem(0)
		img, missing, err := DecodeDeltaCompact(seed.payload, pm, nil, zeroBase)
		switch seed.name {
		case "valid":
			if err != nil || len(missing) != 0 || img.PagesPatched() != 1 || img.PagesHashed() != 1 {
				t.Fatalf("%s: err=%v missing=%d patched=%d", seed.name, err, len(missing), img.PagesPatched())
			}
			got := img.Memory[5].Pages[0].Data
			if got[5*vm.LineSize] != 0xAB || got[6*vm.LineSize] != 0 || got[5*vm.LineSize-1] != 0 {
				t.Fatalf("%s: line 5 not patched onto the zero base", seed.name)
			}
		case "wrong hash", "no base":
			if err != nil || len(missing) != 1 {
				t.Fatalf("%s: err=%v missing=%d, want one missing page", seed.name, err, len(missing))
			}
		default:
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("%s: err=%v, want ErrCorrupt", seed.name, err)
			}
		}
		if img != nil {
			img.Release(pm)
		}
		if pm.Resident() != 0 {
			t.Fatalf("%s: %d frames left resident", seed.name, pm.Resident())
		}
	}
}

// lineLineage builds two epochs of one lineage by hand: prev (epoch 3,
// full) and next (epoch 4), which holds every page again with the line
// masks a barrier would have recorded — page i of an object changed in
// one byte (i%4 == 0), across a line boundary (1), in every byte (2),
// or not at all, a COW copy no write changed (3). The swap pages of
// object 3 change in one byte and say so in their masks, which must not
// make them line entries.
func lineLineage(tb testing.TB, pm *vm.PhysMem) (prev, next *Image) {
	prev = codecImage(tb, pm, 3, true, 16, distinctFill)
	next = codecImage(tb, pm, 4, false, 16, distinctFill)
	next.Prev = prev
	for _, mi := range next.Memory {
		mi.Lines = make(map[int64]uint64)
		for idx, f := range mi.Pages {
			switch idx / 3 % 4 {
			case 0:
				off := idx * 37 % vm.PageSize
				f.Data[off]++
				mi.Lines[idx] = vm.LineMask(off, 1)
			case 1:
				f.Data[63]++
				f.Data[64]++
				mi.Lines[idx] = vm.LineMask(63, 2)
			case 2:
				for j := range f.Data {
					f.Data[j] ^= 0x5A
				}
				mi.Lines[idx] = vm.AllLines
			case 3:
				mi.Lines[idx] = 0
			}
		}
		for idx, data := range mi.SwapData {
			data[0]++
			mi.Lines[idx] = vm.LineMask(0, 1)
		}
	}
	return prev, next
}

// TestDeltaLineEntries: a link whose receiver holds the previous epoch
// gets each partly written frame as its written lines, which the
// receiver rebuilds bit-identically from that epoch; no line entry goes
// to any other link, for a full image, for a swap page or for a page
// the receiver is known to hold; and a base that is not the sender's
// previous epoch, or is missing, draws a need instead of a wrong page.
func TestDeltaLineEntries(t *testing.T) {
	pm := vm.NewPhysMem(0)
	prev, next := lineLineage(t, pm)
	base := func(group, epoch, objID uint64, idx int64, dst []byte) bool {
		if group != prev.Group || epoch != prev.Epoch {
			return false
		}
		data := prev.ResolvePage(objID, idx)
		clear(dst[copy(dst, data):])
		return data != nil
	}
	const partly = 3 * 12 // three objects, 12 of 16 frames partly written
	payload, pages, skipped, lined := next.EncodeDeltaLink(nil, prev.Epoch)
	if lined != partly || skipped != 0 {
		t.Fatalf("%d line entries and %d refs, want %d and 0", lined, skipped, partly)
	}
	literal, _, _ := next.EncodeDeltaCompact(nil)
	if 2*len(payload) > len(literal) {
		t.Fatalf("line entries: %d bytes, all literals %d", len(payload), len(literal))
	}
	dst := vm.NewPhysMem(0)
	dec, missing, err := DecodeDeltaCompact(payload, dst, nil, base)
	if err != nil || len(missing) != 0 {
		t.Fatalf("decode: err=%v missing=%d", err, len(missing))
	}
	if err := samePages(next, dec); err != nil {
		t.Fatal(err)
	}
	if dec.PagesPatched() != partly || dec.PagesHashed() != int64(len(pages)) || !slices.Equal(dec.PageHashes(), pages) {
		t.Fatalf("patched %d, hashed %d of %d pages", dec.PagesPatched(), dec.PagesHashed(), len(pages))
	}
	dec.Release(dst)

	fullNext := &Image{Group: next.Group, Epoch: next.Epoch, Gen: next.Gen, Full: true, Memory: next.Memory}
	everything := func(objstore.Hash) bool { return true }
	for _, c := range []struct {
		name  string
		img   *Image
		skip  func(objstore.Hash) bool
		acked uint64
	}{
		{"receiver holds nothing", next, nil, 0},
		{"receiver two epochs behind", next, nil, prev.Epoch - 1},
		{"receiver at this epoch", next, nil, next.Epoch},
		{"full image", fullNext, nil, prev.Epoch},
		{"every page known", next, everything, prev.Epoch},
	} {
		if _, _, _, lined := c.img.EncodeDeltaLink(c.skip, c.acked); lined != 0 {
			t.Errorf("%s: %d line entries", c.name, lined)
		}
	}
	for _, skip := range []func(objstore.Hash) bool{nil, everything} {
		link, _, _, _ := next.EncodeDeltaLink(skip, 0)
		compact, _, _ := next.EncodeDeltaCompact(skip)
		if !bytes.Equal(link, compact) {
			t.Fatal("EncodeDeltaLink with no acked epoch differs from EncodeDeltaCompact")
		}
	}

	for name, base := range map[string]func(group, epoch, objID uint64, idx int64, dst []byte) bool{
		"a base one byte off": func(group, epoch, objID uint64, idx int64, dst []byte) bool {
			ok := base(group, epoch, objID, idx, dst)
			dst[vm.PageSize-1]++ // no page of next writes its last line
			return ok
		},
		"no base": func(uint64, uint64, uint64, int64, []byte) bool { return false },
	} {
		img, missing, err := DecodeDeltaCompact(payload, dst, nil, base)
		if err != nil || len(missing) != partly {
			t.Fatalf("%s: err=%v, %d missing, want %d", name, err, len(missing), partly)
		}
		img.Release(dst)
		if dst.Resident() != 0 {
			t.Fatalf("%s: %d frames left resident", name, dst.Resident())
		}
	}

	// Release lets go of the masks with the frames they describe.
	next.Release(pm)
	for id, mi := range next.Memory {
		if mi.Pages != nil || mi.Lines != nil {
			t.Fatalf("object %d: a released image keeps its frames or masks", id)
		}
	}
}

// checkDecoded is what both fuzz targets require of a payload the
// decoder accepted: encoding the image again and decoding that gives
// the same pages, and releasing both returns every frame.
func checkDecoded(t *testing.T, img *Image, pm *vm.PhysMem, start int64) {
	again, err := DecodeDelta(img.EncodeDelta(), pm)
	if err != nil {
		t.Fatalf("re-decoding an accepted payload: %v", err)
	}
	if err := samePages(img, again); err != nil {
		t.Fatalf("accepted payload does not round-trip: %v", err)
	}
	again.Release(pm)
	img.Release(pm)
	if pm.Resident() != start {
		t.Fatalf("released images left %d frames resident", pm.Resident()-start)
	}
}

func FuzzDecodeDelta(f *testing.F) {
	fuzzSeeds(f, false)
	f.Fuzz(func(t *testing.T, payload []byte) {
		pm := vm.NewPhysMem(0)
		img, err := DecodeDelta(payload, pm)
		if err != nil {
			if pm.Resident() != 0 {
				t.Fatalf("rejected payload leaked %d frames", pm.Resident())
			}
			return
		}
		checkDecoded(t, img, pm, 0)
	})
}

func FuzzDecodeDeltaCompact(f *testing.F) {
	fuzzSeeds(f, true)
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The resolver holds one frame and answers every ref whose
		// first hash byte is even with it, so fuzzed refs take both the
		// resolved and the missing branch; line entries are rebuilt on
		// zeroBase, which holds even pages only. An accepted page must
		// hash to what its entry claims, whatever it was built from.
		pm := vm.NewPhysMem(0)
		held, err := pm.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		resolve := func(h objstore.Hash) (*vm.Frame, bool) {
			if h[0]%2 != 0 {
				return nil, false
			}
			held.Ref()
			return held, true
		}
		img, missing, err := DecodeDeltaCompact(payload, pm, resolve, zeroBase)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			if pm.Resident() != 1 || held.Refs() != 1 {
				t.Fatalf("rejected payload leaked: %d frames resident, %d refs on the held frame", pm.Resident(), held.Refs())
			}
			return
		}
		if len(missing) > 0 {
			img.Release(pm)
			if pm.Resident() != 1 || held.Refs() != 1 {
				t.Fatalf("incomplete image leaked: %d frames resident, %d refs on the held frame", pm.Resident(), held.Refs())
			}
			return
		}
		for _, p := range img.PageHashes() {
			f := img.Memory[p.ObjID].Pages[p.Idx]
			if f != held && PageContentHash(f.Data) != p.Hash {
				t.Fatalf("object %d page %d: decoder's memo disagrees with the frame", p.ObjID, p.Idx)
			}
		}
		checkDecoded(t, img, pm, 1)
		if held.Refs() != 1 {
			t.Fatalf("%d refs left on the held frame", held.Refs())
		}
	})
}

// FuzzDecodeImage fuzzes the consolidated layout — what `sls send`
// writes to a file and `sls recv` reads back, and what AdoptImage moves
// between machines. A rejected payload leaks no frame; an accepted one
// is a standalone full image that encodes and decodes to the same
// pages, and releasing both returns every frame.
func FuzzDecodeImage(f *testing.F) {
	small := codec.NewEncoder()
	small.U64(1) // group
	small.U64(1) // epoch
	small.U64(0) // gen
	small.Str("")
	small.U64(0) // no metadata
	small.U64(1) // one object
	objectHeader(small)
	small.U64(1)
	small.I64(7)
	small.Bytes2([]byte{1, 2, 3})
	small.U64(0) // no heat
	small.U64Slice(nil)
	f.Add(small.Bytes())
	seedMem := vm.NewPhysMem(0)
	f.Add(codecImage(f, seedMem, 3, true, 2, distinctFill).Encode())

	f.Fuzz(func(t *testing.T, payload []byte) {
		pm := vm.NewPhysMem(0)
		img, err := DecodeImage(payload, pm)
		if err != nil {
			if pm.Resident() != 0 {
				t.Fatalf("rejected payload leaked %d frames", pm.Resident())
			}
			return
		}
		if !img.Full || img.Prev != nil {
			t.Fatalf("decoded image is not standalone: full=%v prev=%v", img.Full, img.Prev)
		}
		again, err := DecodeImage(img.Encode(), pm)
		if err != nil {
			t.Fatalf("re-decoding an accepted payload: %v", err)
		}
		if err := samePages(img, again); err != nil {
			t.Fatalf("accepted payload does not round-trip: %v", err)
		}
		again.Release(pm)
		img.Release(pm)
		if pm.Resident() != 0 {
			t.Fatalf("released images left %d frames resident", pm.Resident())
		}
	})
}

var benchSink []byte

// BenchmarkEncodeDeltaCompact is the sender's per-epoch codec cost: one
// fresh 66-page incremental image encoded for `links` replica links,
// a quarter of the pages as refs. The image is hashed once whatever
// the link count, so links=3 should cost well under 3× links=1. With
// base=held the links' receivers hold the previous epoch and the other
// three quarters were written in one byte each — quorum3-incr's mix —
// so they go as their one written line.
func BenchmarkEncodeDeltaCompact(b *testing.B) {
	for _, c := range []struct {
		links int
		held  bool
	}{{1, false}, {3, false}, {3, true}} {
		name := fmt.Sprintf("links=%d", c.links)
		if c.held {
			name += "/base=held"
		}
		b.Run(name, func(b *testing.B) {
			pm := vm.NewPhysMem(0)
			template := codecImage(b, pm, 2, false, 22, distinctFill)
			var acked uint64
			if c.held {
				acked = template.Epoch - 1
				for _, mi := range template.Memory {
					mi.Lines = make(map[int64]uint64)
					for idx := range mi.Pages {
						mi.Lines[idx] = 1 << (idx % 64)
					}
				}
			}
			n := 0
			skip := func(objstore.Hash) bool { n++; return n%4 == 0 }
			b.ReportAllocs()
			b.SetBytes(int64(template.PageCount()) * vm.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A new Image over the same pages: what a checkpoint
				// hands the flusher, with nothing memoised yet.
				img := &Image{Group: template.Group, Epoch: template.Epoch, Gen: template.Gen,
					Meta: template.Meta, Memory: template.Memory, Roots: template.Roots}
				for l := 0; l < c.links; l++ {
					benchSink, _, _, _ = img.EncodeDeltaLink(skip, acked)
				}
			}
		})
	}
}

// TestFoldIsTheChainResolved: folding an image into the one built on it
// leaves the newer image holding exactly the state the two resolved to —
// pages, swap pages, heat, metadata — with PageHashes that hash what it
// holds, whichever way the page maps move; every shadowed frame goes to
// free with its content's hash, and nothing else is freed or kept.
func TestFoldIsTheChainResolved(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, top int // pages per object
	}{{"delta into base", 8, 2}, {"base into delta", 2, 8}} {
		pm := vm.NewPhysMem(0)
		base := codecImage(t, pm, 1, true, tc.base, distinctFill)
		top := codecImage(t, pm, 2, false, tc.top, func(id uint64, i int) byte { return distinctFill(id, i) + 100 })
		top.Prev = base
		top.Memory[3].Heat = nil // object 3's heat is the base's
		top.Meta = top.Meta[:1]  // OID 12's record is the base's
		want := top.Encode()
		base.PageHashes()
		top.PageHashes()
		freed := 0
		Fold(base, top, func(p PageHash, f *vm.Frame) {
			if PageContentHash(f.Data) != p.Hash {
				t.Errorf("%s: object %d page %d freed under a hash its bytes do not have", tc.name, p.ObjID, p.Idx)
			}
			freed++
			pm.Free(f)
		})
		if !base.Released() || base.Memory != nil || !top.Full || top.Prev != nil || top.Released() {
			t.Fatalf("%s: after the fold base released=%v, top full=%v prev=%v", tc.name, base.Released(), top.Full, top.Prev)
		}
		if got := top.Encode(); !bytes.Equal(got, want) {
			t.Errorf("%s: the folded image encodes another state than the chain did", tc.name)
		}
		fresh := (&Image{Memory: top.Memory}).PageHashes()
		if got := top.PageHashes(); !slices.Equal(got, fresh) {
			t.Errorf("%s: PageHashes after the fold: %d entries, not the %d its pages hash to", tc.name, len(got), len(fresh))
		}
		if shadowed := 3 * min(tc.base, tc.top); freed != shadowed {
			t.Errorf("%s: %d frames freed, want the %d shadowed", tc.name, freed, shadowed)
		}
		if got, want := pm.Resident(), int64(3*max(tc.base, tc.top)); got != want {
			t.Errorf("%s: %d frames resident, the folded image holds %d", tc.name, got, want)
		}
	}
}

// TestFindPageIsBinarySearch: the fold's page search answers what
// slices.BinarySearchFunc in wire order does, hits and misses alike.
func TestFindPageIsBinarySearch(t *testing.T) {
	var pages []PageHash
	for id := uint64(1); id <= 3; id++ {
		for idx := int64(0); idx < 40; idx += 3 {
			pages = append(pages, PageHash{ObjID: id * 2, Idx: idx})
		}
	}
	for id := uint64(0); id <= 7; id++ {
		for idx := int64(-1); idx <= 41; idx++ {
			wi, wok := slices.BinarySearchFunc(pages, PageHash{ObjID: id, Idx: idx}, comparePages)
			if i, ok := findPage(pages, id, idx); i != wi || ok != wok {
				t.Fatalf("findPage(%d, %d) = %d, %v; BinarySearchFunc says %d, %v", id, idx, i, ok, wi, wok)
			}
		}
	}
}
