package objstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"aurora/internal/codec"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file persists the store's index so a store survives restart:
// Sync serializes every table, in key order, to a fresh extent and
// publishes it through a double-buffered superblock; Open replays that
// extent. Data blocks themselves are already on the device — the index
// is the only volatile state.
//
// Crash consistency: two superblock slots alternate by generation
// parity, each carrying a generation counter, the index extent
// location, a CRC of the index bytes, and a CRC of the header itself.
// Sync's durability barrier protocol is
//
//	write index extent → Device.Sync → write alternate slot → Device.Sync
//
// so at every instant one slot holds a fully durable generation. A
// torn index or superblock write leaves the previous slot untouched
// and Open falls back to it.

// castagnoli is the CRC-32C table used for superblock and index
// checksums (the same polynomial real storage stacks use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// superblock is the decoded form of one slot.
type superblock struct {
	gen     uint64
	idxOff  int64
	idxLen  int64
	idxCRC  uint32
	fenceHW uint64 // highest fencing generation across lineages
}

// Slot layout (64 bytes):
//
//	[0:4)   magic
//	[4:8)   version
//	[8:16)  generation
//	[16:24) index offset
//	[24:32) index length
//	[32:36) index CRC-32C
//	[36:44) fencing-generation high-water
//	[44:60) reserved (zero)
//	[60:64) header CRC-32C over bytes [0:60)
func encodeSuperblock(sb superblock) []byte {
	buf := make([]byte, sbSize)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], sbVersion)
	binary.LittleEndian.PutUint64(buf[8:], sb.gen)
	binary.LittleEndian.PutUint64(buf[16:], uint64(sb.idxOff))
	binary.LittleEndian.PutUint64(buf[24:], uint64(sb.idxLen))
	binary.LittleEndian.PutUint32(buf[32:], sb.idxCRC)
	binary.LittleEndian.PutUint64(buf[36:], sb.fenceHW)
	binary.LittleEndian.PutUint32(buf[60:], crc32.Checksum(buf[:60], castagnoli))
	return buf
}

// decodeSuperblock validates one slot's header; ok is false for any
// torn, stale-layout, or foreign contents.
func decodeSuperblock(buf []byte) (superblock, bool) {
	if len(buf) < sbSize {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(buf[4:]) != sbVersion {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(buf[60:]) != crc32.Checksum(buf[:60], castagnoli) {
		return superblock{}, false
	}
	return superblock{
		gen:     binary.LittleEndian.Uint64(buf[8:]),
		idxOff:  int64(binary.LittleEndian.Uint64(buf[16:])),
		idxLen:  int64(binary.LittleEndian.Uint64(buf[24:])),
		idxCRC:  binary.LittleEndian.Uint32(buf[32:]),
		fenceHW: binary.LittleEndian.Uint64(buf[36:]),
	}, true
}

func slotOffset(gen uint64) int64 {
	if gen%2 == 1 {
		return sbSlot1
	}
	return sbSlot0
}

// Sync writes the index to the device and publishes it as the next
// superblock generation.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()

	s.mu.Lock()
	e := codec.NewEncoder()
	// Allocation state.
	e.I64(s.nextOff)
	e.U64(uint64(len(s.freeList)))
	for _, off := range s.freeList {
		e.I64(off)
	}
	// Every table goes out in key order, so one state persists to one
	// byte string. Block index, by offset.
	blocks := sortedKeys(s.blocks, func(a, b Hash) int { return cmp.Compare(s.blocks[a].ref.Off, s.blocks[b].ref.Off) })
	e.U64(uint64(len(blocks)))
	for _, h := range blocks {
		be := s.blocks[h]
		e.Bytes2(h[:])
		e.I64(be.ref.Off)
		e.I64(int64(be.refs))
	}
	// Records, by key, each with its entries in page order.
	keys := sortedKeys(s.records, compareKeys)
	e.U64(uint64(len(keys)))
	lines := 0
	for _, key := range keys {
		rec := s.records[key]
		e.U64(key.Group)
		e.U64(key.OID)
		e.U64(key.Epoch)
		e.U64(uint64(rec.Kind))
		e.Bool(rec.Full)
		e.Bytes2(rec.Meta)
		e.I64(rec.metaOff)
		e.I64(int64(rec.metaLen))
		e.U64(uint64(len(rec.Pages)))
		for _, p := range rec.Pages {
			e.I64(p.Idx)
			e.I64(p.Ref.Off)
			e.Bytes2(p.Ref.Hash[:])
			if p.base != nil {
				lines++
			}
		}
		e.U64(uint64(len(rec.Heat)))
		for _, h := range rec.Heat {
			e.I64(h.Page)
			e.U32(h.Count)
		}
	}
	// Line entries: the record and page (whose entry above locates the
	// patch), the base by hash, the mask and the patch's length.
	e.U64(uint64(lines))
	for _, key := range keys {
		for _, p := range s.records[key].Pages {
			if p.base == nil {
				continue
			}
			e.U64(key.Group)
			e.U64(key.OID)
			e.U64(key.Epoch)
			e.I64(p.Idx)
			e.Bytes2(p.base.ref.Hash[:])
			e.U64(p.mask)
			e.U64(uint64(patchLen(p.mask)))
		}
	}
	// Manifests, by group.
	groups := sortedKeys(s.manifests, cmp.Compare[uint64])
	e.U64(uint64(len(groups)))
	for _, g := range groups {
		e.U64(g)
		ms := s.manifests[g]
		e.U64(uint64(len(ms)))
		for _, m := range ms {
			e.U64(m.Epoch)
			e.Str(m.Name)
			e.U64(m.Prev)
			e.U64(uint64(len(m.Records)))
			for _, rk := range m.Records {
				e.U64(rk.Group)
				e.U64(rk.OID)
				e.U64(rk.Epoch)
			}
			e.U64Slice(m.Roots)
		}
	}
	// Quarantined epochs: a poisoned epoch must stay poisoned across
	// remounts or a reboot would happily restore from it again.
	quarantined := sortedKeys(s.quarantined, func(a, b manifestID) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Epoch, b.Epoch))
	})
	e.U64(uint64(len(quarantined)))
	for _, id := range quarantined {
		e.U64(id.Group)
		e.U64(id.Epoch)
		e.Str(s.quarantined[id])
	}
	// Stats that must survive restart.
	e.I64(s.stats.LogicalBytes)
	e.I64(s.stats.MetaBytes)
	e.I64(s.stats.DedupHits)
	// Fencing table: a promotion this store has witnessed must never
	// be forgotten across a remount, or a stale primary could write
	// again after a reboot.
	lineages := sortedKeys(s.fences, cmp.Compare[uint64])
	e.U64(uint64(len(lineages)))
	for _, lineage := range lineages {
		fe := s.fences[lineage]
		e.U64(lineage)
		e.U64(fe.gen)
		e.Bool(fe.primary)
	}

	idx := e.Bytes()
	idxOff := s.allocExtent(len(idx))
	gen := s.sbGen + 1
	fenceHW := s.fenceHighLocked()
	s.mu.Unlock()

	// failed frees the unpublished index extent: no superblock points at
	// it (a torn slot write never passes the header CRC), so the space
	// is immediately reusable. Without this every failed Sync on a
	// pressured device would leak an extent and make the pressure worse.
	failed := func(err error) error {
		s.mu.Lock()
		s.freeExtentLocked(idxOff, len(idx))
		s.mu.Unlock()
		return wrapSpace(err)
	}

	// Durability barrier: the index must be stable on media before the
	// superblock that points at it becomes visible, and the superblock
	// must be stable before Sync reports success.
	if err := s.devWrite(idx, idxOff); err != nil {
		return failed(fmt.Errorf("objstore: writing index generation %d: %w", gen, err))
	}
	if err := s.devSync(); err != nil {
		return failed(fmt.Errorf("objstore: syncing index generation %d: %w", gen, err))
	}
	sb := encodeSuperblock(superblock{
		gen:     gen,
		idxOff:  idxOff,
		idxLen:  int64(len(idx)),
		idxCRC:  crc32.Checksum(idx, castagnoli),
		fenceHW: fenceHW,
	})
	if err := s.devWrite(sb, slotOffset(gen)); err != nil {
		return failed(fmt.Errorf("objstore: publishing superblock generation %d: %w", gen, err))
	}
	if err := s.devSync(); err != nil {
		return failed(fmt.Errorf("objstore: syncing superblock generation %d: %w", gen, err))
	}

	s.mu.Lock()
	if gen > s.sbGen {
		s.sbGen = gen
	}
	// Generation N's slot header just overwrote generation N-2's (slot
	// parity), so N-2's index extent is unreachable by any crash
	// fallback and its space comes back. Generations N and N-1 stay
	// intact: either slot must remain mountable until the next publish.
	s.idxHist = append(s.idxHist, extent{idxOff, len(idx)})
	for len(s.idxHist) > 2 {
		old := s.idxHist[0]
		s.idxHist = s.idxHist[1:]
		s.freeExtentLocked(old.off, old.n)
	}
	s.mu.Unlock()
	return nil
}

// sortedKeys returns m's keys in the order compare gives them.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

// Generation returns the last superblock generation this store
// published (or mounted from).
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sbGen
}

// Open mounts an existing store, preferring the newest superblock
// generation whose index is intact and falling back to the alternate
// slot when a crash tore the most recent Sync. ErrBadMagic means no
// slot holds a valid superblock at all.
func Open(dev storage.Device, clock *storage.Clock) (*Store, error) {
	var cands []superblock
	for _, off := range []int64{sbSlot0, sbSlot1} {
		var buf [sbSize]byte
		if _, err := dev.ReadAt(buf[:], off); err != nil {
			continue
		}
		if sb, ok := decodeSuperblock(buf[:]); ok {
			cands = append(cands, sb)
		}
	}
	if len(cands) == 0 {
		return nil, ErrBadMagic
	}
	// Newest generation first.
	if len(cands) == 2 && cands[1].gen > cands[0].gen {
		cands[0], cands[1] = cands[1], cands[0]
	}
	var lastErr error
	for _, sb := range cands {
		idx := make([]byte, sb.idxLen)
		if _, err := dev.ReadAt(idx, sb.idxOff); err != nil {
			lastErr = err
			continue
		}
		if crc32.Checksum(idx, castagnoli) != sb.idxCRC {
			lastErr = fmt.Errorf("objstore: index generation %d fails checksum", sb.gen)
			continue
		}
		s, err := decodeIndex(dev, clock, idx)
		if err != nil {
			lastErr = err
			continue
		}
		s.sbGen = sb.gen
		// Seed the index-extent history so recycling continues across a
		// remount: the alternate slot's (older) extent is freed after
		// the second publish, exactly as if this process had written it.
		for _, c := range cands {
			if c.gen < sb.gen {
				s.idxHist = append(s.idxHist, extent{c.idxOff, int(c.idxLen)})
			}
		}
		s.idxHist = append(s.idxHist, extent{sb.idxOff, int(sb.idxLen)})
		return s, nil
	}
	return nil, fmt.Errorf("objstore: no usable superblock generation: %w", lastErr)
}

// decodeIndex replays one serialized index into a fresh store.
func decodeIndex(dev storage.Device, clock *storage.Clock, idx []byte) (*Store, error) {
	s := Create(dev, clock)
	d := codec.NewDecoder(idx)
	s.nextOff = d.I64()
	nFree := d.U64()
	for i := uint64(0); i < nFree && d.Err() == nil; i++ {
		s.freeList = append(s.freeList, d.I64())
	}
	nBlocks := d.U64()
	for i := uint64(0); i < nBlocks && d.Err() == nil; i++ {
		var h Hash
		copy(h[:], d.Bytes2())
		be := &blockEntry{ref: BlockRef{Off: d.I64(), Hash: h}, refs: int32(d.I64())}
		s.blocks[h] = be
	}
	nRecs := d.U64()
	for i := uint64(0); i < nRecs && d.Err() == nil; i++ {
		key := RecordKey{Group: d.U64(), OID: d.U64(), Epoch: d.U64()}
		rec := &Record{
			Group: key.Group,
			OID:   key.OID,
			Epoch: key.Epoch,
			Kind:  uint16(d.U64()),
			Full:  d.Bool(),
			Meta:  d.Bytes2(),
		}
		rec.metaOff = d.I64()
		rec.metaLen = int(d.I64())
		for j, n := 0, d.Count(); j < n && d.Err() == nil; j++ {
			p := PageEntry{Idx: d.I64(), Ref: BlockRef{Off: d.I64()}}
			copy(p.Ref.Hash[:], d.Bytes2())
			rec.Pages = append(rec.Pages, p)
		}
		// Lookups search the entries (find): sort them, and refuse a
		// page listed twice, which no store writes.
		slices.SortFunc(rec.Pages, byIdx)
		for j := 1; j < len(rec.Pages) && d.Err() == nil; j++ {
			if rec.Pages[j].Idx == rec.Pages[j-1].Idx {
				return nil, fmt.Errorf("decoding objstore index: record %v lists page %d twice: %w", key, rec.Pages[j].Idx, codec.ErrCorrupt)
			}
		}
		for j, n := 0, d.Count(); j < n && d.Err() == nil; j++ {
			rec.Heat = append(rec.Heat, vm.PageHeat{Page: d.I64(), Count: d.U32()})
		}
		if !vm.HeatInOrder(rec.Heat) && d.Err() == nil {
			return nil, fmt.Errorf("decoding objstore index: record %v lists its heat out of page order: %w", key, codec.ErrCorrupt)
		}
		s.records[key] = rec
		if rec.metaLen+1 < BlockSize && rec.metaOff >= dataStart {
			// Rebuild the pack refcounts (not persisted). A pre-packing
			// store's whole-block small extents simply become
			// single-occupant packs: freed the moment their record dies,
			// exactly as before.
			s.packLive[rec.metaOff&^(BlockSize-1)]++
		}
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		key := RecordKey{Group: d.U64(), OID: d.U64(), Epoch: d.U64()}
		idxN := d.I64()
		var h Hash
		copy(h[:], d.Bytes2())
		mask, size := d.U64(), d.U64()
		if d.Err() != nil {
			break
		}
		if err := s.adoptLine(key, idxN, h, mask, size); err != nil {
			return nil, fmt.Errorf("decoding objstore index: record %v: %w: %w", key, err, codec.ErrCorrupt)
		}
	}
	for base, sl := range s.slabs {
		if !sl.full() {
			s.openSlabs[sl.lines-1] = append(s.openSlabs[sl.lines-1], base)
		}
	}
	for _, open := range s.openSlabs {
		slices.Sort(open)
	}
	nGroups := d.U64()
	for i := uint64(0); i < nGroups && d.Err() == nil; i++ {
		g := d.U64()
		nMs := d.U64()
		for j := uint64(0); j < nMs && d.Err() == nil; j++ {
			m := &Manifest{Group: g, Epoch: d.U64(), Name: d.Str(), Prev: d.U64()}
			nRks := d.U64()
			for r := uint64(0); r < nRks && d.Err() == nil; r++ {
				m.Records = append(m.Records, RecordKey{Group: d.U64(), OID: d.U64(), Epoch: d.U64()})
			}
			m.Roots = d.U64Slice()
			// Lookups binary-search this list (findManifestLocked): an
			// index that lists a group's epochs out of order is corrupt.
			if ms := s.manifests[g]; len(ms) > 0 && ms[len(ms)-1].Epoch >= m.Epoch && d.Err() == nil {
				return nil, fmt.Errorf("decoding objstore index: group %d lists epoch %d after epoch %d: %w",
					g, m.Epoch, ms[len(ms)-1].Epoch, codec.ErrCorrupt)
			}
			s.manifests[g] = append(s.manifests[g], m)
			if m.Name != "" {
				s.named[m.Name] = manifestID{g, m.Epoch}
			}
		}
	}
	nQuar := d.U64()
	for i := uint64(0); i < nQuar && d.Err() == nil; i++ {
		id := manifestID{Group: d.U64(), Epoch: d.U64()}
		s.quarantined[id] = d.Str()
	}
	s.stats.LogicalBytes = d.I64()
	s.stats.MetaBytes = d.I64()
	s.stats.DedupHits = d.I64()
	nFences := d.U64()
	for i := uint64(0); i < nFences && d.Err() == nil; i++ {
		lineage := d.U64()
		s.fences[lineage] = fenceEntry{gen: d.U64(), primary: d.Bool()}
	}
	if err := d.Finish("objstore index"); err != nil {
		return nil, err
	}
	return s, nil
}

// adoptLine enters line entry (page idx over the block hashed base,
// mask, a patch of size bytes) of a decoded record, whose Pages entry
// for idx locates the patch, and marks the patch's slab slot used. It
// refuses an entry the store could not read back: one of a record it
// does not have or for a page the record does not hold, a page's
// second, one over a base the block table does not list, with a mask
// no put makes or a size the mask does not give, or whose patch is not
// alone in a slot of its own.
func (s *Store) adoptLine(key RecordKey, idx int64, base Hash, mask, size uint64) error {
	rec, ok := s.records[key]
	if !ok {
		return errors.New("line entry of a record the index does not hold")
	}
	i, ok := find(rec.Pages, idx)
	if !ok {
		return fmt.Errorf("line entry for page %d, which it does not hold", idx)
	}
	p := &rec.Pages[i]
	if p.base != nil {
		return fmt.Errorf("two line entries for page %d", idx)
	}
	be, ok := s.blocks[base]
	if !ok {
		return fmt.Errorf("page %d is a line entry over block %x, which is not in the block table", idx, base[:4])
	}
	if mask == 0 || bits.OnesCount64(mask) > lineBound {
		return fmt.Errorf("page %d is a line entry of mask %#x", idx, mask)
	}
	if size != uint64(patchLen(mask)) {
		return fmt.Errorf("page %d has a patch of %d bytes for mask %#x", idx, size, mask)
	}
	if !s.claimSlotLocked(p.Ref.Off, mask) {
		return errors.New("patch not alone in a slot of its size")
	}
	p.base, p.mask = be, mask
	s.stats.LinePages++
	s.stats.LineBytes += int64(size)
	return nil
}
