package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
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
// order), frame pages at scattered indices, pages held in bytes on one
// object (as a Load's are), heat on two, metadata and roots. Page i of object id holds
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
			Pages: make([]vm.Page, 0, pagesPerObj)}
		for i := 0; i < pagesPerObj; i++ {
			f, err := pm.Alloc()
			if err != nil {
				tb.Fatal(err)
			}
			for j := range f.Data {
				f.Data[j] = fill(id, i)
			}
			mi.Pages = append(mi.Pages, vm.Page{Idx: int64(i * 3), Frame: f, Lines: vm.AllLines})
		}
		if id == 3 {
			mi.Inherit = &lazyPageSource{bytes: []objstore.PageBytes{
				{Idx: 1, Data: bytes.Repeat([]byte{0xA1}, vm.PageSize)},
				{Idx: 200, Data: bytes.Repeat([]byte{0xA2}, vm.PageSize)},
			}}
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

// frameAt is the frame mi holds page idx in, or nil.
func frameAt(mi *MemImage, idx int64) *vm.Frame {
	if k, _ := mi.at(0, idx); k >= 0 {
		return mi.Pages[k].Frame
	}
	return nil
}

// encoded is img.Encode(pm) of a chain that must encode, pm being the
// allocator its frames came from.
func encoded(tb testing.TB, img *Image, pm *vm.PhysMem) []byte {
	tb.Helper()
	file, err := img.Encode(pm)
	if err != nil {
		tb.Fatal(err)
	}
	return file
}

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
	pages, _, _ := a.pageOrder()
	for _, p := range pages {
		if !bytes.Equal(a.Memory[p.ObjID].page(p.Idx), b.Memory[p.ObjID].page(p.Idx)) {
			return fmt.Errorf("object %d page %d differs", p.ObjID, p.Idx)
		}
	}
	return nil
}

// TestDeltaEncodeDeterministic: an image encodes to the same bytes
// every time, in ascending (ObjID, page index), in a buffer of exactly
// the payload's size — every page literal, and with refs.
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
		if want := PageContentHash(img.Memory[p.ObjID].page(p.Idx)); p.Hash != want {
			t.Fatalf("object %d page %d: memoised hash is not the page's content hash", p.ObjID, p.Idx)
		}
	}
}

// TestEncodeDeterministic: the file `sls send` writes (Encode) is
// a function of the chain — objects by ascending ID, pages by ascending
// index, whatever order the page maps iterate in — and a decoded image
// encodes back to the very bytes it came from.
func TestEncodeDeterministic(t *testing.T) {
	pm := vm.NewPhysMem(0)
	base := codecImage(t, pm, 1, true, 24, distinctFill)
	top := codecImage(t, pm, 2, false, 12, func(id uint64, i int) byte { return distinctFill(id, i) + 100 })
	top.Prev = base
	first := encoded(t, top, pm)
	for i := 0; i < 8; i++ {
		if again := encoded(t, top, pm); !bytes.Equal(first, again) {
			t.Fatalf("encode %d of one chain differs from the first", i+2)
		}
	}
	dec, err := DecodeImage(first, pm)
	if err != nil {
		t.Fatal(err)
	}
	if again := encoded(t, dec, pm); !bytes.Equal(first, again) {
		t.Fatal("a decoded image does not encode back to its bytes")
	}
	dec.Release(pm)
}

// TestDeltaRoundTripPreservesPages: decode∘encode keeps every page,
// heat entry and header field, for a full and an incremental image,
// every page literal and with refs; refs resolve through the callback,
// and frames go back to the allocator on release.
func TestDeltaRoundTripPreservesPages(t *testing.T) {
	for _, full := range []bool{true, false} {
		src := vm.NewPhysMem(0)
		img := codecImage(t, src, 7, full, 16, distinctFill)

		dst := vm.NewPhysMem(0)
		literal, err := DecodeDelta(img.EncodeDelta(), dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePages(img, literal); err != nil {
			t.Fatalf("full=%v literal delta: %v", full, err)
		}
		if literal.Full != full || literal.Group != img.Group || literal.Epoch != img.Epoch || literal.Gen != img.Gen ||
			literal.Name != img.Name || len(literal.Meta) != len(img.Meta) || len(literal.Roots) != len(img.Roots) {
			t.Fatalf("full=%v literal delta header: %v, want %v", full, literal, img)
		}

		// Compact: every second page travels as a ref and is resolved
		// from the literal decode's frames, which the new image then shares.
		held := make(map[objstore.Hash]*vm.Frame)
		for _, p := range literal.PageHashes() {
			held[p.Hash] = frameAt(literal.Memory[p.ObjID], p.Idx)
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
		literal.Release(dst)
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
		t.Fatal("EncodeDelta hashed pages it has no use for")
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
// object that appears twice, or out of order, is corrupt rather than a
// leaked frame.
func TestDecodersBoundWireCounts(t *testing.T) {
	decoders := map[string]func([]byte, *vm.PhysMem) (*Image, error){
		"DecodeDelta": DecodeDelta,
		"DecodeDeltaCompact": func(p []byte, pm *vm.PhysMem) (*Image, error) {
			img, _, err := DecodeDeltaCompact(p, pm, nil, nil)
			return img, err
		},
	}
	page := bytes.Repeat([]byte{7}, vm.PageSize)
	entry := func(e *codec.Encoder, idx int64) {
		e.I64(idx)
		e.U8(deltaPageLiteral)
		e.Bytes2(page)
	}
	for name, decode := range decoders {
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
		entry(e, 3)
		entry(e, 3)
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

		// The same object twice, and an object after one of a higher ID
		// (deltaHeader's is 5).
		for _, second := range []uint64{5, 4} {
			e = deltaHeader(0, 2)
			e.U64(1)
			entry(e, 0)
			e.U64(0) // heat
			e.U64(second)
			e.Str("")
			e.I64(vm.PageSize)
			e.U64(1)
			entry(e, 0)
			e.U64(0) // heat
			e.U64(0) // roots
			if img, err := decode(e.Bytes(), pm); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s: object %d after object 5: err = %v, want ErrCorrupt", name, second, err)
				if img != nil {
					img.Release(pm)
				}
			}
			if pm.Resident() != 0 {
				t.Errorf("%s: object %d after object 5 leaked %d frames", name, second, pm.Resident())
			}
		}
	}

	// A compact page tag that is neither literal, ref nor lines.
	pm := vm.NewPhysMem(0)
	e := deltaHeader(0, 1)
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

// TestDecodeDeltaWantsLiterals: with nothing to resolve against, the one
// parser — DecodeDelta — refuses a ref or a line entry as corrupt, and
// DecodeImage refuses an incremental image; neither leaks a frame, and a
// full image's EncodeDelta is what DecodeImage reads.
func TestDecodeDeltaWantsLiterals(t *testing.T) {
	pm := vm.NewPhysMem(0)
	img := codecImage(t, pm, 4, false, 4, distinctFill)
	defer img.Release(pm)
	n := 0
	refs, _, _ := img.EncodeDeltaCompact(func(objstore.Hash) bool { n++; return n%2 == 0 })
	for name, payload := range map[string][]byte{"refs": refs, "a line entry": lineSeeds()[0].payload} {
		dst := vm.NewPhysMem(0)
		if _, err := DecodeDelta(payload, dst); !errors.Is(err, codec.ErrCorrupt) || dst.Resident() != 0 {
			t.Errorf("DecodeDelta of %s: err = %v, %d frames left; want ErrCorrupt and none", name, err, dst.Resident())
		}
	}
	dst := vm.NewPhysMem(0)
	if _, err := DecodeImage(img.EncodeDelta(), dst); !errors.Is(err, codec.ErrCorrupt) || dst.Resident() != 0 {
		t.Errorf("DecodeImage of an incremental delta: err = %v, %d frames left; want ErrCorrupt and none", err, dst.Resident())
	}
	img.Full = true
	dec, err := DecodeImage(img.EncodeDelta(), dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePages(img, dec); err != nil {
		t.Fatal(err)
	}
	dec.Release(dst)
}

// fuzzSeeds are real encodes of a full and an incremental image —
// every page literal, or with refs and line entries for the compact
// target — of an incremental epoch's heat delta and, for the literal
// target, of what Encode writes for a chain, plus a hand-written payload
// of two short pages: the real ones are 30 KB each, which the mutator and
// the minimizer get through slowly.
func fuzzSeeds(f *testing.F, compact bool) {
	small := deltaHeader(0, 1)
	small.U64(2)
	for idx := int64(0); idx < 2; idx++ {
		small.I64(idx)
		small.U8(deltaPageLiteral)
		small.Bytes2([]byte{byte(idx), 2, 3})
	}
	small.U64(1) // heat
	small.I64(0)
	small.U32(9)
	small.U64Slice([]uint64{5})
	f.Add(small.Bytes())

	pm := vm.NewPhysMem(0)
	var base *Image
	for _, full := range []bool{true, false} {
		img := codecImage(f, pm, 3, full, 2, distinctFill)
		if full {
			base = img
		}
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
	// An incremental epoch's heat is a delta: one object's counters
	// touched since the last barrier, sparse and far out, another's none.
	delta := codecImage(f, pm, 4, false, 2, distinctFill)
	delta.Memory[700].Heat = []vm.PageHeat{{Page: 3, Count: 7}, {Page: 1000, Count: 2}, {Page: 1 << 40, Count: 1}}
	delta.Memory[3].Heat = nil
	if compact {
		p, _, _ := delta.EncodeDeltaCompact(nil)
		f.Add(p)
		for _, seed := range lineSeeds() {
			f.Add(seed.payload)
		}
	} else {
		f.Add(delta.EncodeDelta())
		delta.Prev = base
		f.Add(encoded(f, delta, pm))
	}
	// A page run out of order, and one listing a page twice: each
	// decoder refuses both, as an encoder never writes either.
	for _, idxs := range [][2]int64{{4, 2}, {2, 2}} {
		e := deltaHeader(0, 1)
		e.U64(2)
		for _, idx := range idxs {
			e.I64(idx)
			e.U8(deltaPageLiteral)
			e.Bytes2([]byte{byte(idx)})
		}
		e.U64(0) // heat
		e.U64(0) // roots
		if _, err := DecodeDelta(e.Bytes(), pm); !errors.Is(err, codec.ErrCorrupt) {
			f.Fatalf("pages %v: DecodeDelta err = %v, want ErrCorrupt", idxs, err)
		}
		if _, _, err := DecodeDeltaCompact(e.Bytes(), pm, nil, nil); !errors.Is(err, codec.ErrCorrupt) {
			f.Fatalf("pages %v: DecodeDeltaCompact err = %v, want ErrCorrupt", idxs, err)
		}
		f.Add(e.Bytes())
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
			got := frameAt(img.Memory[5], 0).Data
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
// or not at all, a COW copy no write changed (3). The pages object 3
// holds in bytes change in one byte; held in bytes, they have no mask and are
// never line entries.
func lineLineage(tb testing.TB, pm *vm.PhysMem) (prev, next *Image) {
	prev = codecImage(tb, pm, 3, true, 16, distinctFill)
	next = codecImage(tb, pm, 4, false, 16, distinctFill)
	next.Prev = prev
	for _, mi := range next.Memory {
		for i := range mi.Pages {
			p := &mi.Pages[i]
			idx, f := p.Idx, p.Frame
			switch idx / 3 % 4 {
			case 0:
				off := idx * 37 % vm.PageSize
				f.Data[off]++
				p.Lines = vm.LineMask(off, 1)
			case 1:
				f.Data[63]++
				f.Data[64]++
				p.Lines = vm.LineMask(63, 2)
			case 2:
				for j := range f.Data {
					f.Data[j] ^= 0x5A
				}
				p.Lines = vm.AllLines
			case 3:
				p.Lines = 0
			}
		}
		for _, b := range mi.Inherit.run() {
			b.Data[0]++
		}
	}
	return prev, next
}

// TestDeltaLineEntries: a link whose receiver holds the previous epoch
// gets each partly written frame as its written lines, which the
// receiver rebuilds bit-identically from that epoch; no line entry goes
// to any other link, for a full image, for a page held in bytes or for a page
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
	payload, pages, skipped, lined, _ := next.EncodeDeltaLink(nil, prev.Epoch, nil)
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
		if _, _, _, lined, _ := c.img.EncodeDeltaLink(c.skip, c.acked, nil); lined != 0 {
			t.Errorf("%s: %d line entries", c.name, lined)
		}
	}
	for _, skip := range []func(objstore.Hash) bool{nil, everything} {
		link, _, _, _, _ := next.EncodeDeltaLink(skip, 0, nil)
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
		if mi.Pages != nil {
			t.Fatalf("object %d: a released image keeps its frames or masks", id)
		}
	}
}

// checkDecoded is what both fuzz targets require of a payload the
// decoder accepted: every object's page run strictly ascends, encoding
// the image again and decoding that gives the same pages, and releasing
// both returns every frame.
func checkDecoded(t *testing.T, img *Image, pm *vm.PhysMem, start int64) {
	for id, mi := range img.Memory {
		for i := 1; i < len(mi.Pages); i++ {
			if mi.Pages[i-1].Idx >= mi.Pages[i].Idx {
				t.Fatalf("object %d: page %d follows page %d in the run", id, mi.Pages[i].Idx, mi.Pages[i-1].Idx)
			}
		}
	}
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

// FuzzDecodeDelta fuzzes the parser with nothing to resolve refs or
// line entries against — what reads a need's resend, AdoptImage's copy
// and the file `sls send` writes. A rejected payload leaks no frame; an
// accepted one is a standalone image, which DecodeImage refuses when it
// is incremental; and EncodeDelta∘DecodeDelta gives the same pages.
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
		if img.Prev != nil {
			t.Fatal("decoded image is not standalone")
		}
		if !img.Full {
			if _, err := DecodeImage(payload, pm); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("DecodeImage of an incremental delta: err = %v, want ErrCorrupt", err)
			}
		}
		checkDecoded(t, img, pm, 0)
	})
}

// FuzzDecodeImage fuzzes what `sls send` writes to a file and `sls recv`
// reads back, and what AdoptImage moves between machines: a full image,
// every page literal. A rejected payload leaks no frame; an accepted one
// is a standalone full image that encodes and decodes to the same pages,
// and releasing both returns every frame.
func FuzzDecodeImage(f *testing.F) {
	small := codec.NewEncoder()
	small.U64(1) // group
	small.U64(1) // epoch
	small.U64(0) // gen
	small.Str("")
	small.Bool(true) // full
	small.U64(0)     // no metadata
	small.U64(1)     // one object
	objectHeader(small)
	small.U64(1)
	small.I64(7)
	small.U8(deltaPageLiteral)
	small.Bytes2([]byte{1, 2, 3})
	small.U64(0) // no heat
	small.U64Slice(nil)
	f.Add(small.Bytes())
	seedPM := vm.NewPhysMem(0)
	f.Add(encoded(f, codecImage(f, seedPM, 3, true, 2, distinctFill), seedPM))

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
		again, err := DecodeImage(encoded(t, img, pm), pm)
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
			f := frameAt(img.Memory[p.ObjID], p.Idx)
			if f != held && PageContentHash(f.Data) != p.Hash {
				t.Fatalf("object %d page %d: decoder's memo disagrees with the frame", p.ObjID, p.Idx)
			}
		}
		// Accepted heat is a delta the one merge rule can fold into a base.
		base := []vm.PageHeat{{Page: 0, Count: 1}, {Page: 3, Count: 1}, {Page: 1 << 20, Count: 1}}
		for id, mi := range img.Memory {
			if merged := vm.MergeHeat(slices.Clone(base), slices.Clone(mi.Heat)); !vm.HeatInOrder(merged) || len(merged) < len(mi.Heat) {
				t.Fatalf("object %d: heat %v merged onto %v gives %v", id, mi.Heat, base, merged)
			}
		}
		checkDecoded(t, img, pm, 1)
		if held.Refs() != 1 {
			t.Fatalf("%d refs left on the held frame", held.Refs())
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
					for i := range mi.Pages {
						mi.Pages[i].Lines = 1 << (mi.Pages[i].Idx % 64)
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
					benchSink, _, _, _, _ = img.EncodeDeltaLink(skip, acked, nil)
				}
			}
		})
	}
}

// foldObj is one object of a hand-built fold image: the page indices it
// holds as frames and in bytes (as from a Load), and its heat.
type foldObj struct {
	frames, bytes []int64
	heat          []vm.PageHeat
}

// foldImage builds an image of objs by hand; page idx of object id at
// epoch holds foldFill(id, idx, epoch) in every byte.
func foldImage(tb testing.TB, pm *vm.PhysMem, epoch uint64, full bool, objs map[uint64]foldObj) *Image {
	tb.Helper()
	img := &Image{Group: 9, Epoch: epoch, Full: full, Memory: make(map[uint64]*MemImage)}
	for id, o := range objs {
		mi := &MemImage{ObjID: id, Name: fmt.Sprintf("obj%d", id), Size: 64 * vm.PageSize, Heat: o.heat}
		for _, idx := range o.frames {
			f, err := pm.AllocData(bytes.Repeat([]byte{foldFill(id, idx, epoch)}, vm.PageSize))
			if err != nil {
				tb.Fatal(err)
			}
			mi.Pages = append(mi.Pages, vm.Page{Idx: idx, Frame: f, Lines: vm.AllLines})
		}
		if len(o.bytes) > 0 {
			mi.Inherit = &lazyPageSource{}
			for _, idx := range o.bytes {
				mi.Inherit.bytes = append(mi.Inherit.bytes, objstore.PageBytes{Idx: idx, Data: bytes.Repeat([]byte{foldFill(id, idx, epoch)}, vm.PageSize)})
			}
		}
		img.Memory[id] = mi
	}
	return img
}

func foldFill(id uint64, idx int64, epoch uint64) byte {
	return byte(id)*31 + byte(idx)*7 + byte(epoch)*101
}

// foldModel is a chain's state as plain maps, newest capture winning:
// each object's page bytes and heat counts.
type foldModel struct {
	pages map[uint64]map[int64][]byte
	heat  map[uint64]map[int64]uint32
}

// resolvedModel reads chain (oldest first) into a foldModel, and counts
// the frames a newer image shadows.
func resolvedModel(chain []*Image) (m foldModel, shadowed int) {
	m = foldModel{pages: map[uint64]map[int64][]byte{}, heat: map[uint64]map[int64]uint32{}}
	for i, img := range chain {
		for id, mi := range img.Memory {
			if m.pages[id] == nil {
				m.pages[id], m.heat[id] = map[int64][]byte{}, map[int64]uint32{}
			}
			for _, p := range mi.Pages {
				m.pages[id][p.Idx] = p.Frame.Data
				if slices.ContainsFunc(chain[i+1:], func(newer *Image) bool { return newer.Memory[id] != nil && newer.Memory[id].page(p.Idx) != nil }) {
					shadowed++
				}
			}
			for _, b := range mi.Inherit.run() {
				m.pages[id][b.Idx] = b.Data
			}
			for _, h := range mi.Heat {
				m.heat[id][h.Page] = h.Count
			}
		}
	}
	return m, shadowed
}

// checkModel checks that img holds exactly m: per object, frame and byte
// runs that strictly ascend and share no page, whose pages are m's, and
// m's heat.
func checkModel(t *testing.T, name string, img *Image, m foldModel) {
	t.Helper()
	if len(img.Memory) != len(m.pages) {
		t.Fatalf("%s: %d objects, the model has %d", name, len(img.Memory), len(m.pages))
	}
	for id, mi := range img.Memory {
		got := map[int64][]byte{}
		for i, p := range mi.Pages {
			if i > 0 && mi.Pages[i-1].Idx >= p.Idx {
				t.Fatalf("%s: object %d frame %d follows %d", name, id, p.Idx, mi.Pages[i-1].Idx)
			}
			got[p.Idx] = p.Frame.Data
		}
		run := mi.Inherit.run()
		for i, b := range run {
			if i > 0 && run[i-1].Idx >= b.Idx {
				t.Fatalf("%s: object %d byte page %d follows %d", name, id, b.Idx, run[i-1].Idx)
			}
			if got[b.Idx] != nil {
				t.Fatalf("%s: object %d holds page %d as a frame and in bytes", name, id, b.Idx)
			}
			got[b.Idx] = b.Data
		}
		if !maps.EqualFunc(got, m.pages[id], bytes.Equal) {
			t.Fatalf("%s: object %d holds %d pages, not the %d newest captures", name, id, len(got), len(m.pages[id]))
		}
		heat := map[int64]uint32{}
		for i, h := range mi.Heat {
			if i > 0 && mi.Heat[i-1].Page >= h.Page {
				t.Fatalf("%s: object %d heat out of order", name, id)
			}
			heat[h.Page] = h.Count
		}
		if !maps.Equal(heat, m.heat[id]) {
			t.Fatalf("%s: object %d heat %v, the model's %v", name, id, heat, m.heat[id])
		}
	}
}

// randomChain is a chain of two to five images (oldest first, the first
// full) of up to three objects over pages [0, 48): each image holds a
// random set of them, a quarter in bytes, and random heat.
func randomChain(t *testing.T, pm *vm.PhysMem, seed uint64) []*Image {
	rng := rand.New(rand.NewPCG(seed, 38))
	chain := make([]*Image, 2+rng.IntN(4))
	for i := range chain {
		objs := map[uint64]foldObj{}
		for id := uint64(1); id <= 3; id++ {
			if rng.IntN(4) == 0 {
				continue
			}
			var o foldObj
			for idx := int64(0); idx < 48; idx++ {
				switch r := rng.IntN(12); {
				case r < 3:
					o.frames = append(o.frames, idx)
				case r < 4:
					o.bytes = append(o.bytes, idx)
				}
				if rng.IntN(6) == 0 {
					o.heat = append(o.heat, vm.PageHeat{Page: idx, Count: rng.Uint32N(100)})
				}
			}
			objs[id] = o
		}
		chain[i] = foldImage(t, pm, uint64(i+1), i == 0, objs)
		if i > 0 {
			chain[i].Prev = chain[i-1]
		}
	}
	return chain
}

// TestFoldIsTheChainResolved: folding an image into the one built on it
// leaves the newer image holding exactly the state the two resolved to —
// frames, pages held in bytes, heat, metadata — with PageHashes that hash what it
// holds, whichever way the page runs move: a small delta patched into a
// large base, a large delta taking the base in, a delta bringing pages
// the base lacks, pages held in bytes on either side shadowing frames or
// shadowed by them, and seeded random chains, each held to a plain-map
// model of "newest capture wins". Every shadowed frame goes to free with
// its content's hash, and nothing else is freed or kept.
func TestFoldIsTheChainResolved(t *testing.T) {
	type side = map[uint64]foldObj
	type foldCase struct {
		name  string
		chain func(pm *vm.PhysMem) []*Image // oldest first
	}
	var cases []foldCase
	for _, tc := range []struct {
		name      string
		base, top int // pages per object
	}{{"delta into base", 8, 2}, {"base into delta", 2, 8}} {
		cases = append(cases, foldCase{tc.name, func(pm *vm.PhysMem) []*Image {
			base := codecImage(t, pm, 1, true, tc.base, distinctFill)
			top := codecImage(t, pm, 2, false, tc.top, func(id uint64, i int) byte { return distinctFill(id, i) + 100 })
			top.Prev = base
			top.Memory[3].Heat = nil // object 3's heat is the base's
			top.Meta = top.Meta[:1]  // OID 12's record is the base's
			return []*Image{base, top}
		}})
	}
	for _, tc := range []struct {
		name      string
		base, top side
	}{
		{"delta adds pages the base lacks",
			side{1: {frames: []int64{0, 2, 4, 6, 8, 10}}},
			side{1: {frames: []int64{1, 4, 11, 12}}, 2: {frames: []int64{3}}}},
		{"newer run larger, with pages the older lacks",
			side{1: {frames: []int64{5, 9}}},
			side{1: {frames: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}}},
		{"pages in bytes on both sides",
			side{1: {frames: []int64{0, 1, 2, 3}, bytes: []int64{4, 5, 6, 7}, heat: []vm.PageHeat{{Page: 1, Count: 3}, {Page: 5, Count: 2}}}},
			side{1: {frames: []int64{5, 8}, bytes: []int64{1, 6, 9}, heat: []vm.PageHeat{{Page: 5, Count: 9}}}}},
		{"bytes only below, frames above",
			side{1: {bytes: []int64{0, 1, 2}}},
			side{1: {frames: []int64{1}}}},
	} {
		cases = append(cases, foldCase{tc.name, func(pm *vm.PhysMem) []*Image {
			base, top := foldImage(t, pm, 1, true, tc.base), foldImage(t, pm, 2, false, tc.top)
			top.Prev = base
			return []*Image{base, top}
		}})
	}
	for seed := uint64(1); seed <= 20; seed++ {
		cases = append(cases, foldCase{fmt.Sprintf("random chain %d", seed), func(pm *vm.PhysMem) []*Image { return randomChain(t, pm, seed) }})
	}

	for _, tc := range cases {
		pm := vm.NewPhysMem(0)
		chain := tc.chain(pm)
		top := chain[len(chain)-1]
		model, shadowed := resolvedModel(chain)
		want := encoded(t, top, pm)
		for _, img := range chain {
			img.PageHashes()
		}
		freed := 0
		free := func(p PageHash, f *vm.Frame) {
			if PageContentHash(f.Data) != p.Hash {
				t.Errorf("%s: object %d page %d freed under a hash its bytes do not have", tc.name, p.ObjID, p.Idx)
			}
			freed++
			pm.Free(f)
		}
		for i := 1; i < len(chain); i++ {
			Fold(chain[i-1], chain[i], free)
			if base := chain[i-1]; !base.Released() || base.Memory != nil {
				t.Fatalf("%s: the folded image is not released", tc.name)
			}
		}
		if !top.Full || top.Prev != nil || top.Released() {
			t.Fatalf("%s: after the fold top full=%v prev=%v released=%v", tc.name, top.Full, top.Prev, top.Released())
		}
		if got := encoded(t, top, pm); !bytes.Equal(got, want) {
			t.Errorf("%s: the folded image encodes another state than the chain did", tc.name)
		}
		checkModel(t, tc.name, top, model)
		fresh := (&Image{Memory: top.Memory}).PageHashes()
		if got := top.PageHashes(); !slices.Equal(got, fresh) {
			t.Errorf("%s: PageHashes after the fold: %d entries, not the %d its pages hash to", tc.name, len(got), len(fresh))
		}
		if freed != shadowed {
			t.Errorf("%s: %d frames freed, want the %d shadowed", tc.name, freed, shadowed)
		}
		held := 0
		for _, mi := range top.Memory {
			held += len(mi.Pages)
		}
		if got := pm.Resident(); got != int64(held) {
			t.Errorf("%s: %d frames resident, the folded image holds %d", tc.name, got, held)
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

// TestDecodeRefusesHeatOutOfOrder: every image layout's decoder refuses
// heat that does not list its pages in strictly ascending order — what
// vm.MergeHeat folds — and leaks no frame doing so.
func TestDecodeRefusesHeatOutOfOrder(t *testing.T) {
	pm := vm.NewPhysMem(0)
	img := codecImage(t, pm, 4, false, 2, distinctFill)
	defer img.Release(pm)
	for _, heat := range [][]vm.PageHeat{{{Page: 9, Count: 1}, {Page: 3, Count: 1}}, {{Page: 3, Count: 1}, {Page: 3, Count: 1}}} {
		img.Memory[700].Heat = heat
		compact, _, _ := img.EncodeDeltaCompact(nil)
		for name, decode := range map[string]func() error{
			"delta":         func() error { _, err := DecodeDelta(img.EncodeDelta(), pm); return err },
			"compact delta": func() error { _, _, err := DecodeDeltaCompact(compact, pm, nil, nil); return err },
		} {
			before := pm.Resident()
			if err := decode(); !errors.Is(err, codec.ErrCorrupt) || pm.Resident() != before {
				t.Errorf("%s with heat %v: err %v, %d frames leaked; want codec.ErrCorrupt and none", name, heat, err, pm.Resident()-before)
			}
		}
	}
}
