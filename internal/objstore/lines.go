package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file is the store's sub-page write path ("send log records
// instead of disk pages", applied to the store). A page an incremental
// epoch wrote in a few of its 64-byte lines is stored as a *line entry*
// instead of a fresh block:
//
//   - its base: the block the page was built on, held by reference;
//   - its mask: the lines in which the page differs from the base — the
//     union of the mask of the entry it replaces, if the page was a line
//     entry at the previous epoch, and the lines written since;
//   - its patch: those lines, copied from the page, in a slot of a slab
//     of patches of its size (allocPatchLocked);
//   - its content hash, the page's, in the record's Pages entry beside
//     the patch's offset.
//
// So the base is always a literal block and a patch is never more than
// one deep. A page whose mask would exceed lineBound is written whole,
// from the bytes the flush already holds. Merge-forward moves a line
// entry (and with it its base reference and patch slot) like any other
// page, and releases it like one; garbage collection still writes no
// data. Every read of a line page — a demand fault, an eager load,
// VerifyEpoch, Scrub — reads the base and the patch and checks the
// result against the content hash.

// lineBound is the most lines a patch holds: the largest bound of a
// 1–12 sweep at which no redis-incr end-to-end metric is worse than at
// 3 (EXPERIMENTS.md "A record is a sorted run"). Each line more keeps a
// page written again and again a line entry for longer, at 64 bytes.
const lineBound = 8

// A patch on the device is its entry's mask (8 bytes), base offset (8)
// and base content hash (32), then the masked lines in mask order.
const patchHeader = 8 + 8 + len(Hash{})

// ErrLineEntry is ResolvePages refusing an object one of whose pages is
// stored as a line entry: there is no block that holds it.
var ErrLineEntry = errors.New("objstore: page stored as a line entry")

// patchLen is the device length of the patch of a line entry with mask.
func patchLen(mask uint64) int {
	return patchHeader + bits.OnesCount64(mask)<<vm.LineShift
}

// slab is a block cut into slots for the patches of one line count,
// each exactly a patch long (so patches in consecutive slots are one
// extent), with a bitmap of the slots in use.
type slab struct {
	used  uint64
	lines int
}

func (sl slab) slotLen() int { return patchHeader + sl.lines<<vm.LineShift }
func (sl slab) full() bool   { return sl.used == 1<<(BlockSize/sl.slotLen())-1 }

// slot maps off to its slot in sl, whose block starts at base; ok only
// when off starts a slot.
func (sl slab) slot(base, off int64) (int, bool) {
	rel := int(off - base)
	return rel / sl.slotLen(), rel >= 0 && rel%sl.slotLen() == 0 && rel/sl.slotLen() < BlockSize/sl.slotLen()
}

// PageRef locates one page. Ref is the page's block — or, for a line
// entry, the offset of its patch — and the page's content hash; a line
// entry also names its Base block and its Mask, the lines the patch
// replaces.
type PageRef struct {
	Ref  BlockRef
	Base BlockRef
	Mask uint64
}

// Lined reports whether the page is a line entry.
func (p PageRef) Lined() bool { return p.Mask != 0 }

// pageRef is the entry as a PageRef.
func (p *PageEntry) pageRef() PageRef {
	pr := PageRef{Ref: p.Ref, Mask: p.mask}
	if p.base != nil {
		pr.Base = p.base.ref
	}
	return pr
}

// releaseEntryLocked drops what entry p holds: its block's reference,
// or its line entry's — the patch slot and the base's reference.
// Removing the entry from its record is the caller's.
func (s *Store) releaseEntryLocked(p *PageEntry) {
	if p.base == nil {
		s.releaseBlockLocked(p.Ref)
		return
	}
	s.freePatchLocked(p.Ref.Off)
	s.releaseBlockLocked(p.base.ref)
	s.stats.LinePages--
	s.stats.LineBytes -= int64(patchLen(p.mask))
}

// planLines picks the pages of an incremental put that go as line
// entries, before any page is written, and takes a reference on each
// one's base, all under one hold of the lock; page i planned so is
// rec.Pages[i], with its base and mask and no Ref yet. A page's mask
// says how it differs from the object at the previous epoch, so the put
// must be of epoch E over the group's newest epoch E−1, where the
// object's chain names the base of each page (lineBaseLocked). A page
// whose content the store already holds is left to dedup, and one the
// object did not have at E−1, or whose mask over its base would exceed
// lineBound, is written whole.
func (s *Store) planLines(rec *Record, pages PageSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ms := s.manifests[rec.Group]; len(ms) == 0 || ms[len(ms)-1].Epoch != rec.Epoch-1 {
		return
	}
	for i, n := 0, pages.Len(); i < n; i++ {
		mask := pages.Lines(i)
		if mask == 0 || mask == vm.AllLines || bits.OnesCount64(mask) > lineBound {
			continue
		}
		idx, data, h := pages.Page(i)
		if _, dedup := s.blocks[h]; dedup || len(data) != BlockSize {
			continue
		}
		if base, mask, ok := s.lineBaseLocked(rec, idx, mask); ok {
			s.holdLocked(base)
			rec.Pages[i] = PageEntry{Idx: idx, base: base, mask: mask}
		}
	}
}

// lineBaseLocked finds the base and mask of the line entry page idx of
// rec's object would be if mask is what was written since the epoch
// before rec's: the block the object's chain there resolves the page to,
// or that entry's base with the two masks joined. It walks the chain as
// chainLocked does, but only as far as the page, however long the
// history under it.
func (s *Store) lineBaseLocked(rec *Record, idx int64, mask uint64) (*blockEntry, uint64, bool) {
	for cur := rec.Epoch - 1; cur != 0; {
		_, m := s.findManifestLocked(rec.Group, cur)
		if m == nil {
			break
		}
		if older, ok := s.records[RecordKey{rec.Group, rec.OID, cur}]; ok {
			if i, ok := find(older.Pages, idx); ok {
				if p := &older.Pages[i]; p.base != nil {
					mask |= p.mask
					return p.base, mask, bits.OnesCount64(mask) <= lineBound
				}
				be, ok := s.blocks[older.Pages[i].Ref.Hash]
				return be, mask, ok
			}
			if older.Full {
				break
			}
		}
		cur = m.Prev
	}
	return nil, 0, false
}

// putLine stores page i of a put of rec — page idx, data, whose
// ContentHash is h — as the line entry planLines planned and took a base
// reference for: a patch slot, the entry's Ref, and the patch appended
// to the run of its size, which the put writes once its slots stop
// being consecutive.
func (s *Store) putLine(rec *Record, i int, idx int64, data []byte, h Hash, runs *patchRuns) error {
	if verifySuppliedHashes && ContentHash(data) != h {
		panic(fmt.Sprintf("objstore: page %d of object %d put under a hash that is not its content's", idx, rec.OID))
	}
	p := &rec.Pages[i]
	lines := bits.OnesCount64(p.mask)
	run, last := &runs[lines-1], int64(-1)
	if len(run.buf) > 0 {
		last = run.off + int64(len(run.buf)-patchLen(p.mask)) // the run's last slot
	}
	s.mu.Lock()
	off, err := s.allocPatchLocked(lines, last)
	if err == nil {
		p.Ref = BlockRef{Off: off, Hash: h}
		s.stats.LogicalBytes += BlockSize
		s.stats.LinePages++
		s.stats.LineBytes += int64(patchLen(p.mask))
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if !run.extends(off) {
		if err := s.writeRun(run); err != nil {
			return err
		}
	}
	patch := run.add(off, p.base.ref, p.mask, data)
	if verifySuppliedHashes {
		s.verifyLine(rec, p, patch)
	}
	return nil
}

// patchRun is a put's patches of one size in consecutive slots of one
// slab: one extent, which goes to the device as one write. Its buffer
// is borrowed from runBufs for the put (patchRuns.release).
type patchRun struct {
	off int64
	buf []byte
	arr *[BlockSize]byte
}

// runBufs recycles run buffers. A run never leaves its slab, so a block
// holds any run.
var runBufs = sync.Pool{New: func() any { return new([BlockSize]byte) }}

// patchRuns is a put's open run per patch size.
type patchRuns [lineBound]patchRun

// release gives the runs' buffers back.
func (runs *patchRuns) release() {
	for i := range runs {
		if runs[i].arr != nil {
			runBufs.Put(runs[i].arr)
			runs[i] = patchRun{}
		}
	}
}

// extends reports whether the slot at off is the one after the run's.
func (r *patchRun) extends(off int64) bool {
	return len(r.buf) > 0 && off == r.off+int64(len(r.buf)) && off&^(BlockSize-1) == r.off&^(BlockSize-1)
}

// add starts the run at off if it is empty, appends the patch of a line
// entry over base with mask, its lines taken from page, and returns the
// patch.
func (r *patchRun) add(off int64, base BlockRef, mask uint64, page []byte) []byte {
	if r.arr == nil {
		r.arr = runBufs.Get().(*[BlockSize]byte)
		r.buf = r.arr[:0]
	}
	if len(r.buf) == 0 {
		r.off = off
	}
	start := len(r.buf)
	r.buf = appendPatch(r.buf, base, mask, page)
	return r.buf[start:]
}

// writeRun writes a run's patches and empties it.
func (s *Store) writeRun(run *patchRun) error {
	if len(run.buf) == 0 {
		return nil
	}
	err := s.devWrite(run.buf, run.off)
	run.buf = run.buf[:0]
	return wrapSpace(err)
}

// writeRuns writes every run a put left open.
func (s *Store) writeRuns(runs *patchRuns) error {
	for i := range runs {
		if err := s.writeRun(&runs[i]); err != nil {
			return err
		}
	}
	return nil
}

// verifyLine is the race leg's check of line entry p before it is put:
// the page rebuilt from the base as the device holds it, with the
// patch's lines copied over, must hash to the entry's. A mask that
// misses a written line would otherwise store a page that fails every
// read. It reads through storage.Peek, so checking bills, counts and
// faults nothing; a device that cannot peek, and a base that has rotted
// on the media since it was written (not the put's fault), go
// unchecked.
func (s *Store) verifyLine(rec *Record, p *PageEntry, patch []byte) {
	page := make([]byte, BlockSize)
	if !storage.Peek(s.dev, page, p.base.ref.Off) || ContentHash(page) != p.base.ref.Hash {
		return
	}
	copyLines(page, p.mask, patch[patchHeader:])
	if ContentHash(page) != p.Ref.Hash {
		panic(fmt.Sprintf("objstore: page %d of object %d put as a line entry that does not rebuild to its hash (mask %#x)", p.Idx, rec.OID, p.mask))
	}
}

// appendPatch appends the patch of a line entry over base with mask,
// its lines taken from page, to buf.
func appendPatch(buf []byte, base BlockRef, mask uint64, page []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, mask)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base.Off))
	buf = append(buf, base.Hash[:]...)
	for m := mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m) << vm.LineShift
		buf = append(buf, page[off:off+vm.LineSize]...)
	}
	return buf
}

// copyLines copies lines, in mask order, over the masked lines of page.
func copyLines(page []byte, mask uint64, lines []byte) {
	for m := mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m) << vm.LineShift
		lines = lines[copy(page[off:off+vm.LineSize], lines):]
	}
}

// checkPatch checks that a patch read back describes pr: its mask and
// its base's offset and hash.
func checkPatch(pr PageRef, patch []byte) error {
	if len(patch) != patchLen(pr.Mask) || binary.LittleEndian.Uint64(patch) != pr.Mask ||
		int64(binary.LittleEndian.Uint64(patch[8:])) != pr.Base.Off ||
		Hash(patch[16:patchHeader]) != pr.Base.Hash {
		return fmt.Errorf("%w: patch at offset %d does not describe its line entry", ErrCorruptBlock, pr.Ref.Off)
	}
	return nil
}

// PageReader is a reader's buffers for a line page's patch and its
// batched read, so that ReadPage allocates nothing. Its owner reuses it,
// one read at a time.
type PageReader struct {
	patch [patchHeader + lineBound<<vm.LineShift]byte
	bufs  [2][]byte
	offs  [2]int64
}

// ReadPage reads the page pr locates into dst (BlockSize bytes) and
// verifies it against its content hash: a block as ReadBlockInto reads
// it; a line entry as its base and its patch, in one batched device
// operation into dst and r, the patch's lines then copied over the base.
// A demand fault, VerifyEpoch, Scrub and FetchBlock all read here: one
// device operation a page, as for a block. On error dst holds garbage.
func (s *Store) ReadPage(pr PageRef, dst []byte, r *PageReader) error {
	if !pr.Lined() {
		return s.ReadBlockInto(pr.Ref, dst)
	}
	patch := r.patch[:patchLen(pr.Mask)]
	r.bufs, r.offs = [2][]byte{dst, patch}, [2]int64{pr.Base.Off, pr.Ref.Off}
	_, err := s.dev.ReadBatch(r.bufs[:], r.offs[:])
	s.billed()
	if err != nil {
		return err
	}
	return s.applyLine(pr, dst, patch)
}

// applyLine checks a patch read back against its entry pr, copies its
// lines over page, which holds pr's base, and verifies the result
// against the page's content hash.
func (s *Store) applyLine(pr PageRef, page, patch []byte) error {
	if err := checkPatch(pr, patch); err != nil {
		return err
	}
	copyLines(page, pr.Mask, patch[patchHeader:])
	if s.HashPage(page) != pr.Ref.Hash {
		return fmt.Errorf("%w: line page with patch at offset %d over block at %d", ErrCorruptBlock, pr.Ref.Off, pr.Base.Off)
	}
	return nil
}

// ReadPages reads every page of an object at an epoch — the chain
// resolved as ResolvePages resolves it, line entries included — in one
// batched device read: each block, and each line entry's base and
// patch. Every page is verified against its content hash, a line page
// after its patch is applied, and the chain's heat comes with them.
// The pages come as one run in ascending index. This is the eager
// restore's read.
func (s *Store) ReadPages(group, oid, epoch uint64) ([]PageBytes, []vm.PageHeat, error) {
	s.mu.Lock()
	pages, heat, err := s.resolveLocked(group, oid, epoch)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	bufs := make([][]byte, 0, 2*len(pages))
	offs := make([]int64, 0, 2*len(pages))
	for _, p := range pages {
		off := p.Ref.Off
		if p.base != nil {
			off = p.base.ref.Off
		}
		bufs = append(bufs, make([]byte, BlockSize))
		offs = append(offs, off)
	}
	for _, p := range pages {
		if p.base != nil {
			bufs = append(bufs, make([]byte, patchLen(p.mask)))
			offs = append(offs, p.Ref.Off)
		}
	}
	_, err = s.dev.ReadBatch(bufs, offs)
	s.billed()
	if err != nil {
		return nil, nil, err
	}
	out := make([]PageBytes, len(pages))
	patches := bufs[len(pages):]
	for i := range pages {
		pr, page := pages[i].pageRef(), bufs[i]
		if pr.Lined() {
			if err := s.applyLine(pr, page, patches[0]); err != nil {
				return nil, nil, fmt.Errorf("object %d page %d at epoch %d: %w", oid, pages[i].Idx, epoch, err)
			}
			patches = patches[1:]
		} else if err := s.verifyBlock(pr.Ref, page); err != nil {
			return nil, nil, err
		}
		out[i] = PageBytes{Idx: pages[i].Idx, Data: page}
	}
	return out, heat, nil
}

// allocPatchLocked returns the offset of a free slot for a patch of
// lines lines. A put's patches go to consecutive slots while they can —
// the slot after the one it took last (after, or -1), when free — so
// they reach the device as one write. A new run starts a fresh slab
// while a freed block is at hand, so its patches land together;
// otherwise, rather than grow the device, it fills the lowest free slot
// of the emptiest slab of that size.
func (s *Store) allocPatchLocked(lines int, after int64) (int64, error) {
	if after >= 0 {
		base := after &^ (BlockSize - 1)
		sl := s.slabs[base]
		if slot, _ := sl.slot(base, after); slot+1 < BlockSize/sl.slotLen() && sl.used&(1<<(slot+1)) == 0 {
			return s.takeSlotLocked(base, slot+1), nil
		}
	}
	open := &s.openSlabs[lines-1]
	if len(*open) == 0 || !s.dataGrowthLocked() {
		if s.dataGrowthLocked() {
			if err := s.dataRoomLocked(BlockSize); err != nil {
				return 0, err
			}
		}
		base := s.allocBlock()
		s.slabs[base] = slab{lines: lines}
		*open = insertSorted(*open, base)
		return s.takeSlotLocked(base, 0), nil
	}
	best, fewest := (*open)[0], 64
	for _, base := range *open {
		if n := bits.OnesCount64(s.slabs[base].used); n < fewest {
			best, fewest = base, n
		}
	}
	return s.takeSlotLocked(best, bits.TrailingZeros64(^s.slabs[best].used)), nil
}

// takeSlotLocked marks slot of the open slab at base used.
func (s *Store) takeSlotLocked(base int64, slot int) int64 {
	sl := s.slabs[base]
	sl.used |= 1 << slot
	s.slabs[base] = sl
	if sl.full() {
		open := &s.openSlabs[sl.lines-1]
		if i, ok := slices.BinarySearch(*open, base); ok {
			*open = slices.Delete(*open, i, i+1)
		}
	}
	return base + int64(slot*sl.slotLen())
}

// freePatchLocked gives back the patch slot at off; a slab whose last
// slot it was goes to the free list.
func (s *Store) freePatchLocked(off int64) {
	base := off &^ (BlockSize - 1)
	sl, ok := s.slabs[base]
	if !ok {
		return
	}
	open := &s.openSlabs[sl.lines-1]
	if sl.full() {
		*open = insertSorted(*open, base)
	}
	slot, _ := sl.slot(base, off)
	sl.used &^= 1 << slot
	if sl.used != 0 {
		s.slabs[base] = sl
		return
	}
	delete(s.slabs, base)
	if i, ok := slices.BinarySearch(*open, base); ok {
		*open = slices.Delete(*open, i, i+1)
	}
	s.freeList = append(s.freeList, base)
}

// usedSlot reports whether off starts a slot in use in a slab of the
// patches mask's line entries have.
func (s *storeCore) usedSlot(off int64, mask uint64) bool {
	base := off &^ (BlockSize - 1)
	sl, ok := s.slabs[base]
	slot, at := sl.slot(base, off)
	return ok && sl.lines == bits.OnesCount64(mask) && at && sl.used&(1<<slot) != 0
}

// claimSlotLocked marks the slot at off used by a patch of mask, making
// its slab if it has none; false when off starts no free slot of a slab
// of that size.
func (s *storeCore) claimSlotLocked(off int64, mask uint64) bool {
	base := off &^ (BlockSize - 1)
	sl, ok := s.slabs[base]
	if !ok {
		sl = slab{lines: bits.OnesCount64(mask)}
	}
	slot, at := sl.slot(base, off)
	if base < dataStart || sl.lines != bits.OnesCount64(mask) || !at || sl.used&(1<<slot) != 0 {
		return false
	}
	sl.used |= 1 << slot
	s.slabs[base] = sl
	return true
}

func insertSorted(xs []int64, x int64) []int64 {
	i, _ := slices.BinarySearch(xs, x)
	return slices.Insert(xs, i, x)
}
