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

// lineBound is the most lines a patch holds, measured rather than
// guessed (EXPERIMENTS.md "Line records in the store" sweeps 1, 2 and
// 3): each line more keeps pages written again and again as line
// entries for longer, at 64 bytes a line.
const lineBound = 3

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

// lineRef is a record's line entry for one page, beside its Pages
// entry (the patch's offset and the page's content hash). The record
// holds a reference on base.
type lineRef struct {
	base *blockEntry
	mask uint64
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

// pageRef is page idx of rec, whose Pages entry is ref, as a PageRef.
func (rec *Record) pageRef(idx int64, ref BlockRef) PageRef {
	pr := PageRef{Ref: ref}
	if l, ok := rec.lines[idx]; ok {
		pr.Base, pr.Mask = l.base.ref, l.mask
	}
	return pr
}

// heldHash is the block page idx of rec (Pages entry ref) holds its
// reference on: the block itself, or a line entry's base.
func (rec *Record) heldHash(idx int64, ref BlockRef) Hash {
	if l, ok := rec.lines[idx]; ok {
		return l.base.ref.Hash
	}
	return ref.Hash
}

func (rec *Record) setLine(idx int64, l lineRef) {
	if rec.lines == nil {
		rec.lines = make(map[int64]lineRef)
	}
	rec.lines[idx] = l
}

// releasePageLocked drops what page idx of rec (Pages entry ref) holds:
// its block's reference, or its line entry — the patch slot and the
// base's reference. The Pages entry is the caller's to remove.
func (s *Store) releasePageLocked(rec *Record, idx int64, ref BlockRef) {
	l, ok := rec.lines[idx]
	if !ok {
		s.releaseBlockLocked(ref)
		return
	}
	delete(rec.lines, idx)
	s.freePatchLocked(ref.Off)
	s.releaseBlockLocked(l.base.ref)
	s.stats.LinePages--
	s.stats.LineBytes -= int64(patchLen(l.mask))
}

// planLines picks the pages of an incremental put that go as line
// entries, before any page is written, and takes a reference on each
// one's base, all under one hold of the lock. A page's mask says how it
// differs from the object at the previous epoch, so the put must be of
// epoch E over the group's newest epoch E−1, where the object's chain
// names the base of each page (lineBaseLocked). A page whose content
// the store already holds is left to dedup, and one the object did not
// have at E−1, or whose mask over its base would exceed lineBound, is
// written whole.
func (s *Store) planLines(rec *Record, pages PageSet) {
	n, partial := pages.Len(), 0
	for i := 0; i < n; i++ {
		if m := pages.Lines(i); m != 0 && m != vm.AllLines && bits.OnesCount64(m) <= lineBound {
			partial++
		}
	}
	if partial == 0 || rec.Epoch < 2 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ms := s.manifests[rec.Group]; len(ms) == 0 || ms[len(ms)-1].Epoch != rec.Epoch-1 {
		return
	}
	for i := 0; i < n; i++ {
		mask := pages.Lines(i)
		if mask == 0 || mask == vm.AllLines || bits.OnesCount64(mask) > lineBound {
			continue
		}
		idx, data, h := pages.Page(i)
		if len(data) != BlockSize {
			continue
		}
		if _, dedup := s.blocks[h]; dedup {
			continue
		}
		l, ok := s.lineBaseLocked(rec.Group, rec.OID, rec.Epoch-1, idx, mask)
		if !ok {
			continue
		}
		if rec.lines == nil {
			rec.lines = make(map[int64]lineRef, partial)
		}
		s.holdLocked(l.base)
		rec.lines[idx] = l
	}
}

// lineBaseLocked finds the line entry page idx of (group, oid) would be
// if mask is what was written since epoch: over the block the object's
// chain at epoch resolves the page to, or over that entry's base with
// the two masks joined when it resolves to a line entry. It walks the
// chain as chainLocked does, newest first, but only as far as the page:
// a page written recently is found in a record or two, however long the
// history under it.
func (s *Store) lineBaseLocked(group, oid, epoch uint64, idx int64, mask uint64) (lineRef, bool) {
	for cur := epoch; cur != 0; {
		_, m := s.findManifestLocked(group, cur)
		if m == nil {
			return lineRef{}, false
		}
		if rec, ok := s.records[RecordKey{group, oid, cur}]; ok {
			if ref, ok := rec.Pages[idx]; ok {
				if l, ok := rec.lines[idx]; ok {
					l.mask |= mask
					return l, bits.OnesCount64(l.mask) <= lineBound
				}
				be, ok := s.blocks[ref.Hash]
				return lineRef{base: be, mask: mask}, ok
			}
			if rec.Full {
				break
			}
		}
		cur = m.Prev
	}
	return lineRef{}, false
}

// putLine stores page idx of rec — data, whose ContentHash is h — as
// the line entry l that planLines took a base reference for: a patch
// slot, the entry in rec.Pages, and the patch appended to the run of
// its size, which the put writes once its slots stop being consecutive.
func (s *Store) putLine(rec *Record, idx int64, l lineRef, data []byte, h Hash, runs *patchRuns) error {
	if verifySuppliedHashes && ContentHash(data) != h {
		panic(fmt.Sprintf("objstore: page %d of object %d put under a hash that is not its content's", idx, rec.OID))
	}
	s.chargeHash()
	lines := bits.OnesCount64(l.mask)
	run, last := &runs[lines-1], int64(-1)
	if len(run.buf) > 0 {
		last = run.off + int64(len(run.buf)-patchLen(l.mask)) // the run's last slot
	}
	s.mu.Lock()
	off, err := s.allocPatchLocked(lines, last)
	if err == nil {
		rec.Pages[idx] = BlockRef{Off: off, Hash: h}
		s.stats.LogicalBytes += BlockSize
		s.stats.LinePages++
		s.stats.LineBytes += int64(patchLen(l.mask))
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
	patch := run.add(off, l, data)
	if verifySuppliedHashes {
		s.verifyLine(rec, idx, l, patch, h)
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

// add starts the run at off if it is empty, appends l's patch, its
// lines taken from page, and returns the patch.
func (r *patchRun) add(off int64, l lineRef, page []byte) []byte {
	if r.arr == nil {
		r.arr = runBufs.Get().(*[BlockSize]byte)
		r.buf = r.arr[:0]
	}
	if len(r.buf) == 0 {
		r.off = off
	}
	start := len(r.buf)
	r.buf = appendPatch(r.buf, l, page)
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

// verifyLine is the race leg's check of a line entry before it is put:
// the page rebuilt from the base as the device holds it, with the
// patch's lines copied over, must hash to h. A mask that misses a
// written line would otherwise store a page that fails every read. It
// reads through storage.Peek, so checking bills, counts and faults
// nothing; a device that cannot peek, and a base that has rotted on the
// media since it was written (not the put's fault), go unchecked.
func (s *Store) verifyLine(rec *Record, idx int64, l lineRef, patch []byte, h Hash) {
	page := make([]byte, BlockSize)
	if !storage.Peek(s.dev, page, l.base.ref.Off) || ContentHash(page) != l.base.ref.Hash {
		return
	}
	copyLines(page, l.mask, patch[patchHeader:])
	if ContentHash(page) != h {
		panic(fmt.Sprintf("objstore: page %d of object %d put as a line entry that does not rebuild to its hash (mask %#x)", idx, rec.OID, l.mask))
	}
}

// appendPatch appends l's patch, with its lines taken from page, to
// buf.
func appendPatch(buf []byte, l lineRef, page []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, l.mask)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.base.ref.Off))
	buf = append(buf, l.base.ref.Hash[:]...)
	for m := l.mask; m != 0; m &= m - 1 {
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

// ReadPageInto reads the page pr locates into dst (BlockSize bytes) and
// verifies it against its content hash: a block as ReadBlockInto reads
// it; a line entry as its patch — into dst, whose lines are kept aside —
// then its base, with the lines copied over it. Two device reads and
// one hash; nothing on the heap. On error dst holds garbage.
func (s *Store) ReadPageInto(pr PageRef, dst []byte) error {
	if !pr.Lined() {
		return s.ReadBlockInto(pr.Ref, dst)
	}
	patch := dst[:patchLen(pr.Mask)]
	if err := s.devRead(patch, pr.Ref.Off); err != nil {
		return err
	}
	if err := checkPatch(pr, patch); err != nil {
		return err
	}
	var lines [lineBound * vm.LineSize]byte
	n := copy(lines[:], patch[patchHeader:])
	if err := s.devRead(dst, pr.Base.Off); err != nil {
		return err
	}
	return s.applyLines(pr, dst, lines[:n])
}

// readPageBatched is ReadPageInto in one device operation — a line
// entry's base and patch fetched in one batched read — for the passes
// that read a page to check it (VerifyEpoch, Scrub, FetchBlock): one
// operation per page, as a block read is, so a line entry draws no more
// from a faulty device's schedule than a block does.
func (s *Store) readPageBatched(pr PageRef, dst []byte) error {
	if !pr.Lined() {
		return s.ReadBlockInto(pr.Ref, dst)
	}
	patch := make([]byte, patchLen(pr.Mask))
	_, err := s.dev.ReadBatch([][]byte{dst, patch}, []int64{pr.Base.Off, pr.Ref.Off})
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
	return s.applyLines(pr, page, patch[patchHeader:])
}

// applyLines copies line entry pr's lines over page, which holds its
// base, and verifies the result against the page's content hash.
func (s *Store) applyLines(pr PageRef, page, lines []byte) error {
	copyLines(page, pr.Mask, lines)
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
// This is the eager restore's read.
func (s *Store) ReadPages(group, oid, epoch uint64) (map[int64][]byte, []vm.PageHeat, error) {
	s.mu.Lock()
	refs, heat, err := s.resolveRefsLocked(group, oid, epoch)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	idxs := make([]int64, 0, len(refs))
	lined := 0
	for idx, pr := range refs {
		idxs = append(idxs, idx)
		if pr.Lined() {
			lined++
		}
	}
	slices.Sort(idxs)
	bufs := make([][]byte, 0, len(idxs)+lined)
	offs := make([]int64, 0, len(idxs)+lined)
	for _, idx := range idxs {
		pr := refs[idx]
		off := pr.Ref.Off
		if pr.Lined() {
			off = pr.Base.Off
		}
		bufs = append(bufs, make([]byte, BlockSize))
		offs = append(offs, off)
	}
	for _, idx := range idxs {
		if pr := refs[idx]; pr.Lined() {
			bufs = append(bufs, make([]byte, patchLen(pr.Mask)))
			offs = append(offs, pr.Ref.Off)
		}
	}
	_, err = s.dev.ReadBatch(bufs, offs)
	s.billed()
	if err != nil {
		return nil, nil, err
	}
	out := make(map[int64][]byte, len(idxs))
	patches := bufs[len(idxs):]
	for i, idx := range idxs {
		pr, page := refs[idx], bufs[i]
		if pr.Lined() {
			if err := s.applyLine(pr, page, patches[0]); err != nil {
				return nil, nil, fmt.Errorf("object %d page %d at epoch %d: %w", oid, idx, epoch, err)
			}
			patches = patches[1:]
		} else if err := s.verifyBlock(pr.Ref, page); err != nil {
			return nil, nil, err
		}
		out[idx] = page
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
