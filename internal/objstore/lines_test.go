package objstore

import (
	"bytes"
	"errors"
	"maps"
	"testing"

	"aurora/internal/codec"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// varied returns a page whose bytes depend on seed and position, so no
// two pages of a test share a line by accident.
func varied(seed byte) []byte {
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = seed ^ byte(i*7) ^ byte(i>>6)
	}
	return p
}

// written returns a copy of p with one byte changed in each of lines,
// and the dirty-line mask of that write.
func written(p []byte, lines ...int) ([]byte, uint64) {
	q := append([]byte(nil), p...)
	var mask uint64
	for _, l := range lines {
		q[l<<vm.LineShift+3]++
		mask |= 1 << l
	}
	return q, mask
}

// lastLines lists the top n lines of a page.
func lastLines(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 63 - i
	}
	return out
}

// putEpoch puts one epoch of object oid of group 1 — pages, with the
// dirty-line masks of those in masks — and its manifest over epoch-1.
func putEpoch(t testing.TB, s *Store, oid, epoch uint64, full bool, pages map[int64][]byte, masks map[int64]uint64) {
	t.Helper()
	hp := newHashedPages(pages)
	hp.masks = masks
	if _, err := s.PutPages(1, oid, epoch, 3, full, nil, hp, nil); err != nil {
		t.Fatalf("epoch %d: %v", epoch, err)
	}
	s.PutManifest(&Manifest{Group: 1, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{1, oid, epoch}}})
}

// lineHistory builds three epochs of object 7: four pages in a full
// record, then two increments that write a few lines of some pages
// (line entries), all of one (a block) and too many lines of another (a
// block). It returns the object's pages at each epoch.
func lineHistory(t testing.TB, s *Store) map[uint64]map[int64][]byte {
	t.Helper()
	want := map[uint64]map[int64][]byte{1: {0: varied(1), 1: varied(2), 2: varied(3), 3: varied(4)}}
	putEpoch(t, s, 7, 1, true, want[1], nil)

	at2 := maps.Clone(want[1])
	masks := map[int64]uint64{}
	at2[0], masks[0] = written(want[1][0], 5)                       // one line: a line entry
	at2[1], masks[1] = written(want[1][1], lastLines(lineBound)...) // as many as may be
	at2[2], masks[2] = varied(9), vm.AllLines                       // whole: a block
	at2[3], masks[3] = written(want[1][3], lastLines(lineBound+1)...)
	want[2] = at2
	putEpoch(t, s, 7, 2, false, map[int64][]byte{0: at2[0], 1: at2[1], 2: at2[2], 3: at2[3]}, masks)

	at3 := maps.Clone(at2)
	masks = map[int64]uint64{}
	at3[0], masks[0] = written(at2[0], 9)  // {5, 9} over page 0's block
	at3[1], masks[1] = written(at2[1], 30) // one line more: past the bound
	want[3] = at3
	putEpoch(t, s, 7, 3, false, map[int64][]byte{0: at3[0], 1: at3[1]}, masks)
	return want
}

// checkPages reads object 7 back at every epoch of want still in the
// store — eagerly, through a page view, and verified — and audits.
// runMap is a ReadPages run as a map; the run must strictly ascend.
func runMap(t *testing.T, run []PageBytes) map[int64][]byte {
	t.Helper()
	out := make(map[int64][]byte, len(run))
	for i, p := range run {
		if i > 0 && run[i-1].Idx >= p.Idx {
			t.Fatalf("ReadPages run out of order at %d: page %d after %d", i, p.Idx, run[i-1].Idx)
		}
		out[p.Idx] = p.Data
	}
	return out
}

func checkPages(t *testing.T, where string, s *Store, want map[uint64]map[int64][]byte) {
	t.Helper()
	for _, m := range s.Manifests(1) {
		run, _, err := s.ReadPages(1, 7, m.Epoch)
		if err != nil {
			t.Fatalf("%s: ReadPages at %d: %v", where, m.Epoch, err)
		}
		if !maps.EqualFunc(runMap(t, run), want[m.Epoch], bytes.Equal) {
			t.Fatalf("%s: ReadPages at %d does not give the pages put", where, m.Epoch)
		}
		v, err := s.ResolveView(1, 7, m.Epoch)
		if err != nil || v.Len() != len(want[m.Epoch]) {
			t.Fatalf("%s: view at %d: %v (%d pages)", where, m.Epoch, err, v.Len())
		}
		buf := make([]byte, BlockSize)
		var r PageReader
		for idx, p := range want[m.Epoch] {
			pr, ok, err := v.Lookup(idx)
			if err != nil || !ok {
				t.Fatalf("%s: lookup of page %d at %d: %v %v", where, idx, m.Epoch, ok, err)
			}
			if err := s.ReadPage(pr, buf, &r); err != nil || !bytes.Equal(buf, p) {
				t.Fatalf("%s: page %d at %d (lined %v) reads back %v", where, idx, m.Epoch, pr.Lined(), err)
			}
		}
		if err := s.VerifyEpoch(1, m.Epoch); err != nil {
			t.Fatalf("%s: VerifyEpoch(%d): %v", where, m.Epoch, err)
		}
	}
	if err := s.AuditReachability(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// TestLineEntriesStoreWrittenLines: an incremental put over the group's
// newest epoch stores a page written in at most lineBound lines as a
// line entry over the block the page was — patch bytes, not a block —
// and a page written whole or in more lines as a block. A page written
// again joins the lines over the same base; every reader rebuilds the
// pages bit for bit, before and after the index is persisted and the
// history under them is merged forward, and ResolvePages refuses them.
func TestLineEntriesStoreWrittenLines(t *testing.T) {
	s := testStore(t)
	want := lineHistory(t, s)

	st := s.Stats()
	// Epoch 2 wrote pages 2 and 3 as blocks, epoch 3 page 1.
	if st.Blocks != 7 || st.LinePages != 3 {
		t.Fatalf("%d blocks and %d line entries, want 7 and 3", st.Blocks, st.LinePages)
	}
	if lb := int64(patchLen(1) + patchLen(1<<lineBound-1) + patchLen(3)); st.LineBytes != lb {
		t.Fatalf("line bytes %d, want %d", st.LineBytes, lb)
	}
	if st.LiveBytes != st.BlockBytes+st.MetaBytes+st.LineBytes {
		t.Fatalf("live bytes %d do not count the patches (%+v)", st.LiveBytes, st)
	}
	v, _ := s.ResolveView(1, 7, 3)
	pr, _, _ := v.Lookup(0)
	first, _ := s.GetRecord(1, 7, 1)
	if !pr.Lined() || pr.Mask != 1<<5|1<<9 || pr.Base != refOf(t, first, 0) {
		t.Fatalf("page 0 at epoch 3 is %+v, want lines 5 and 9 over epoch 1's block", pr)
	}
	if _, _, err := s.ResolvePages(1, 7, 3); !errors.Is(err, ErrLineEntry) {
		t.Fatalf("ResolvePages over line entries: %v, want ErrLineEntry", err)
	}
	checkPages(t, "as put", s, want)

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(s.dev, storage.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats(); got.LinePages != st.LinePages || got.LineBytes != st.LineBytes {
		t.Fatalf("reopened: %d line entries of %d bytes, want %d of %d", got.LinePages, got.LineBytes, st.LinePages, st.LineBytes)
	}
	checkPages(t, "reopened", re, want)

	for _, epoch := range []uint64{1, 2} {
		if err := re.DropEpoch(1, epoch); err != nil {
			t.Fatal(err)
		}
		checkPages(t, "merged forward", re, want)
	}
	// Epoch 3's own entry for page 0 is all that is left of the lines.
	if got := re.Stats(); got.LinePages != 1 {
		t.Fatalf("%d line entries after the merge, want 1", got.LinePages)
	}
}

// TestLineEntriesOnlyOverNewestEpoch: a dirty-line mask describes a page
// against the epoch before, so only an incremental put of E over the
// group's newest epoch E−1 stores line entries.
func TestLineEntriesOnlyOverNewestEpoch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch uint64
		full  bool
	}{{"full", 2, true}, {"epoch gap", 3, false}} {
		s := testStore(t)
		base := varied(1)
		putEpoch(t, s, 7, 1, true, map[int64][]byte{0: base}, nil)
		p, mask := written(base, 4)
		putEpoch(t, s, 7, tc.epoch, tc.full, map[int64][]byte{0: p}, map[int64]uint64{0: mask})
		if st := s.Stats(); st.LinePages != 0 || st.Blocks != 2 {
			t.Errorf("%s: %d line entries and %d blocks, want a block", tc.name, st.LinePages, st.Blocks)
		}
	}
}

// TestDropEpochOverLinesWritesNoData: merge-forward moves and releases
// line entries with their base references and patch slots, by index
// alone — dropping epochs writes nothing to the device — and a slab
// whose last patch dies goes back to the free list.
func TestDropEpochOverLinesWritesNoData(t *testing.T) {
	clock := storage.NewClock()
	md := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)
	s := Create(md, clock)
	cur := map[int64][]byte{}
	for i := int64(0); i < 64; i++ {
		cur[i] = varied(byte(i))
	}
	putEpoch(t, s, 7, 1, true, cur, nil)
	for epoch := uint64(2); epoch <= 12; epoch++ {
		pages, masks := map[int64][]byte{}, map[int64]uint64{}
		for i := int64(epoch % 4); i < 64; i += 4 {
			pages[i], masks[i] = written(cur[i], int(epoch%8))
			cur[i] = pages[i]
		}
		putEpoch(t, s, 7, epoch, false, pages, masks)
	}
	if st := s.Stats(); st.LinePages == 0 {
		t.Fatal("the history holds no line entries")
	}
	slabs := len(s.slabs)
	writes := md.Stats().Writes
	if err := s.TrimHistory(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := md.Stats().Writes; got != writes {
		t.Fatalf("dropping epochs issued %d device writes", got-writes)
	}
	if len(s.slabs) >= slabs {
		t.Fatalf("%d slabs after the drops, %d before: no slab emptied", len(s.slabs), slabs)
	}
	if err := s.AuditReachability(); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.ReadPages(1, 7, 12)
	if err != nil || !maps.EqualFunc(runMap(t, got), cur, bytes.Equal) {
		t.Fatalf("the trimmed chain reads back %v", err)
	}
}

// TestLinePutFailureLeavesStoreAsFound: a put that dies writing a
// patch unwinds its line entries — slots, base references, counters —
// like its blocks, and the same put then succeeds.
func TestLinePutFailureLeavesStoreAsFound(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 5})
	base := map[int64][]byte{0: varied(1), 1: varied(2), 2: varied(3)}
	putEpoch(t, s, 7, 1, true, base, nil)
	pages, masks := map[int64][]byte{}, map[int64]uint64{}
	for idx, p := range base {
		pages[idx], masks[idx] = written(p, int(idx))
	}
	hp := newHashedPages(pages)
	hp.masks = masks
	before := snapshotStore(s)
	fd.FailOps(storage.FaultWrite, fd.OpCount()+1, fd.OpCount()+1)
	if _, err := s.PutPages(1, 7, 2, 3, false, nil, hp, nil); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("put with a failing patch write: %v", err)
	}
	if d := before.differs(snapshotStore(s)); d != "" {
		t.Fatal(d)
	}
	if err := s.AuditReachability(); err != nil {
		t.Fatal(err)
	}
	putEpoch(t, s, 7, 2, false, pages, masks)
	if st := s.Stats(); st.LinePages != 3 {
		t.Fatalf("retried put stored %d line entries, want 3", st.LinePages)
	}
}

// TestScrubRebuildsLinePages: scrub checks each line entry as the page
// its base and patch rebuild; a rotted patch is rewritten from the page
// a peer holds under the page's hash, and without a peer the record is
// reported lost.
func TestScrubRebuildsLinePages(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 7})
	base := varied(1)
	putEpoch(t, s, 7, 1, true, map[int64][]byte{0: base}, nil)
	p, mask := written(base, 12)
	putEpoch(t, s, 7, 2, false, map[int64][]byte{0: p}, map[int64]uint64{0: mask})
	peer, _ := faultStore(storage.FaultConfig{Seed: 8})
	if _, err := peer.PutRecord(1, 7, 2, 3, true, nil, map[int64][]byte{0: p}, nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.GetRecord(1, 7, 2)
	rot := func() {
		if _, err := fd.WriteAt([]byte("rot"), refOf(t, rec, 0).Off+int64(patchHeader)+5); err != nil {
			t.Fatal(err)
		}
	}
	rot()
	rep, err := s.Scrub(nil)
	if err != nil || rep.LinePages != 1 || rep.Corrupt != 1 || rep.Lost != 1 ||
		len(rep.LostRecords) != 1 || rep.LostRecords[0] != (RecordKey{1, 7, 2}) {
		t.Fatalf("scrub of a rotted patch without a peer: %v %+v", err, rep)
	}
	rep, err = s.Scrub(peer)
	if err != nil || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Lost != 0 {
		t.Fatalf("scrub of a rotted patch with a peer: %v %+v", err, rep)
	}
	if got, ok := s.FetchBlock(ContentHash(p)); !ok || !bytes.Equal(got, p) {
		t.Fatal("the repaired line page does not serve its content")
	}
	rep, err = s.Scrub(nil)
	if err != nil || rep.Corrupt != 0 {
		t.Fatalf("scrub after the repair: %v %+v", err, rep)
	}
}

// TestFetchBlockTriesEveryLineCopy: two records hold one line page —
// two objects that wrote the same line over the same base — and the
// patch of the lower record key has rotted. FetchBlock, which serves
// peer failover and scrub repair, finds the intact copy every time
// rather than answering "not held" when it happens to try the rotted
// one first.
func TestFetchBlockTriesEveryLineCopy(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 7})
	base := varied(1)
	p, mask := written(base, 12)
	for epoch, pages := range []map[int64][]byte{{0: base}, {0: p}} {
		hp := newHashedPages(pages)
		hp.masks = map[int64]uint64{0: mask}
		var keys []RecordKey
		for _, oid := range []uint64{7, 8} {
			if _, err := s.PutPages(1, oid, uint64(epoch+1), 3, epoch == 0, nil, hp, nil); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, RecordKey{1, oid, uint64(epoch + 1)})
		}
		s.PutManifest(&Manifest{Group: 1, Epoch: uint64(epoch + 1), Prev: uint64(epoch), Records: keys})
	}
	low, _ := s.GetRecord(1, 7, 2)
	high, _ := s.GetRecord(1, 8, 2)
	if refOf(t, low, 0).Off == refOf(t, high, 0).Off {
		t.Fatal("the two records share one patch: nothing to fail over to")
	}
	if _, err := fd.WriteAt([]byte("rot"), refOf(t, low, 0).Off+int64(patchHeader)+5); err != nil {
		t.Fatal(err)
	}
	for run := range 100 {
		if got, ok := s.FetchBlock(ContentHash(p)); !ok || !bytes.Equal(got, p) {
			t.Fatalf("run %d: FetchBlock(%v) with an intact copy held", run, ok)
		}
	}
}

// TestLineMasksCheckedUnderRace: the store takes a flush's dirty-line
// masks on trust in release builds; under the race detector it rebuilds
// every line entry from its base before putting it, and a mask that
// misses a written line is a panic.
func TestLineMasksCheckedUnderRace(t *testing.T) {
	s := testStore(t)
	base := varied(1)
	putEpoch(t, s, 7, 1, true, map[int64][]byte{0: base}, nil)
	p, _ := written(base, 3, 40)
	defer func() {
		if r := recover(); (r != nil) != verifySuppliedHashes {
			t.Fatalf("verifySuppliedHashes=%v, put under a mask missing a line: recovered %v", verifySuppliedHashes, r)
		}
	}()
	putEpoch(t, s, 7, 2, false, map[int64][]byte{0: p}, map[int64]uint64{0: 1 << 3})
}

// badLineIndexes returns, for a store holding line entries, its synced
// index and three indexes no store writes: a patch whose byte count is
// not its mask's, a line entry over a block the block table does not
// list, and a line entry for a page its record does not hold.
func badLineIndexes(t testing.TB, s *Store) (valid []byte, bad map[string][]byte) {
	t.Helper()
	sync := func() []byte {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return syncedIndex(t, s)
	}
	valid = sync()
	rec := s.records[RecordKey{1, 7, 2}]
	l := rec.Pages[0]
	bad = make(map[string][]byte)

	// The entry as the index has it: record and page, base hash, mask
	// and patch length.
	entry := func(idx int64, size int) []byte {
		e := codec.NewEncoder()
		e.U64(1)
		e.U64(7)
		e.U64(2)
		e.I64(idx)
		e.Bytes2(l.base.ref.Hash[:])
		e.U64(l.mask)
		e.U64(uint64(size))
		return e.Bytes()
	}
	size := patchLen(l.mask)
	if !bytes.Contains(valid, entry(0, size)) {
		t.Fatal("the index does not hold the line entry as written")
	}
	bad["patch size"] = bytes.Replace(valid, entry(0, size), entry(0, size+vm.LineSize), 1)
	bad["no page at the index"] = bytes.Replace(valid, entry(0, size), entry(99, size), 1)

	rec.Pages[0].base = &blockEntry{ref: BlockRef{Off: l.base.ref.Off, Hash: Hash{0xEE}}}
	bad["base not in the block table"] = sync()
	rec.Pages[0] = l
	return valid, bad
}

// TestIndexRefusesBadLineEntries: Open reads back the line entries a
// Sync wrote and refuses, as corrupt, an index whose line entries no
// store could have written.
func TestIndexRefusesBadLineEntries(t *testing.T) {
	s := testStore(t)
	lineHistory(t, s)
	valid, bad := badLineIndexes(t, s)
	if _, err := decodeIndex(s.dev, s.clock, valid); err != nil {
		t.Fatalf("the synced index: %v", err)
	}
	for name, idx := range bad {
		if _, err := decodeIndex(s.dev, s.clock, idx); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: decoded with %v, want codec.ErrCorrupt", name, err)
		}
	}
}
