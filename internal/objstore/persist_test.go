package objstore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"aurora/internal/codec"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// syncedIndex returns the index bytes the store's last Sync published.
func syncedIndex(t testing.TB, s *Store) []byte {
	t.Helper()
	var slot [sbSize]byte
	if _, err := s.dev.ReadAt(slot[:], slotOffset(s.Generation())); err != nil {
		t.Fatal(err)
	}
	sb, ok := decodeSuperblock(slot[:])
	if !ok {
		t.Fatal("no superblock where Sync published one")
	}
	idx := make([]byte, sb.idxLen)
	if _, err := s.dev.ReadAt(idx, sb.idxOff); err != nil {
		t.Fatal(err)
	}
	return idx
}

// FuzzDecodeIndex feeds decodeIndex — what Open runs on bytes read back
// from the device — arbitrary input. It must never panic, and what it
// accepts must be an index lookups can use: every group's manifests in
// strictly ascending epoch order, which is what findManifestLocked
// binary-searches.
func FuzzDecodeIndex(f *testing.F) {
	// Seeds: a store with two groups, heat deltas (a full record's every
	// counter, then each epoch's touched ones), a named and a quarantined
	// epoch and a fence, synced before and after one epoch is merged
	// forward.
	s := testStore(nil)
	for group := uint64(1); group <= 2; group++ {
		for epoch := uint64(1); epoch <= 3; epoch++ {
			pages := map[int64][]byte{int64(epoch): page(byte(16*group + epoch)), 9: page(byte(epoch))}
			heat := []vm.PageHeat{{Page: 9, Count: uint32(epoch)}, {Page: int64(epoch) << 30, Count: 1}}
			if epoch == 1 {
				heat = []vm.PageHeat{{Page: 0, Count: 4}, {Page: 2, Count: 1}, {Page: 9, Count: 1}}
			}
			if _, err := s.PutRecord(group, 7, epoch, 3, epoch == 1, []byte("meta"), pages, heat); err != nil {
				f.Fatal(err)
			}
			m := &Manifest{Group: group, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{group, 7, epoch}}, Roots: []uint64{7}}
			if epoch == 3 {
				m.Name = "snap"
			}
			s.PutManifest(m)
		}
	}
	s.Quarantine(2, 2, "seed")
	if err := s.SetPrimary(1, 4); err != nil {
		f.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	f.Add(syncedIndex(f, s))
	if err := s.DropEpoch(1, 2); err != nil {
		f.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	f.Add(syncedIndex(f, s))
	f.Add([]byte{})
	// Line entries: an index holding them, and three that must be
	// refused (badLineIndexes).
	lined := testStore(nil)
	lineHistory(f, lined)
	valid, bad := badLineIndexes(f, lined)
	f.Add(valid)
	for _, idx := range bad {
		f.Add(idx)
	}
	// A record that lists one page twice (refused), one whose pages are
	// out of order (sorted), and a line entry whose mask has lineBound
	// lines, as many as an entry may.
	_, twice, unordered := misorderedIndexes(f)
	f.Add(twice)
	f.Add(unordered)
	f.Add(boundLineIndex(f))

	f.Fuzz(func(t *testing.T, idx []byte) {
		clock := storage.NewClock()
		got, err := decodeIndex(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock, idx)
		if err != nil {
			return
		}
		for key, rec := range got.records {
			// Accepted heat is in page order: the merge rule can fold it.
			if !vm.HeatInOrder(rec.Heat) {
				t.Fatalf("record %v decoded with heat out of page order: %v", key, rec.Heat)
			}
			// Accepted entries strictly ascend: find can search them.
			// An accepted line entry is one a read can follow: over a
			// block of the index, in a slot of its own.
			for i, p := range rec.Pages {
				if i > 0 && p.Idx <= rec.Pages[i-1].Idx {
					t.Fatalf("record %v decoded with page %d after page %d", key, p.Idx, rec.Pages[i-1].Idx)
				}
				if p.base != nil && (got.blocks[p.base.ref.Hash] != p.base || !got.usedSlot(p.Ref.Off, p.mask)) {
					t.Fatalf("record %v decoded with line entry %d that no read can follow", key, p.Idx)
				}
			}
		}
		for group, ms := range got.manifests {
			for i := 1; i < len(ms); i++ {
				if ms[i-1].Epoch >= ms[i].Epoch {
					t.Fatalf("group %d decoded with epoch %d before epoch %d", group, ms[i-1].Epoch, ms[i].Epoch)
				}
			}
			for _, m := range ms {
				if _, found := got.findManifestLocked(group, m.Epoch); found != m {
					t.Fatalf("group %d epoch %d decoded but not found by lookup", group, m.Epoch)
				}
			}
		}
	})
}

// misorderedIndexes returns a store holding a record of pages 1, 2 and
// 3, and two indexes of it no store writes: one that lists page 2
// twice, and one that lists the pages in the order 3, 1, 2.
func misorderedIndexes(t testing.TB) (s *Store, twice, unordered []byte) {
	t.Helper()
	s = testStore(nil)
	putEpoch(t, s, 7, 1, true, map[int64][]byte{1: varied(1), 2: varied(2), 3: varied(3)}, nil)
	rec := s.records[RecordKey{1, 7, 1}]
	pages := rec.Pages
	sync := func() []byte {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return syncedIndex(t, s)
	}
	rec.Pages = []PageEntry{pages[0], pages[1], pages[1], pages[2]}
	twice = sync()
	rec.Pages = []PageEntry{pages[2], pages[0], pages[1]}
	unordered = sync()
	rec.Pages = pages
	return s, twice, unordered
}

// boundLineIndex returns the index of a store whose one line entry has
// lineBound lines.
func boundLineIndex(t testing.TB) []byte {
	t.Helper()
	s := testStore(nil)
	putEpoch(t, s, 7, 1, true, map[int64][]byte{0: varied(1)}, nil)
	p, mask := written(varied(1), lastLines(lineBound)...)
	putEpoch(t, s, 7, 2, false, map[int64][]byte{0: p}, map[int64]uint64{0: mask})
	if st := s.Stats(); st.LinePages != 1 || st.LineBytes != int64(patchLen(mask)) {
		t.Fatalf("a write of %d lines stored %+v, want one line entry", lineBound, st)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return syncedIndex(t, s)
}

// TestDecodeOrdersPagesAndRefusesDuplicates: lookups search a record's
// entries, so the decoder sorts pages an index lists out of order —
// the record then reads back whole — and refuses, as corrupt, a record
// that lists a page twice, where it used to keep the later copy.
func TestDecodeOrdersPagesAndRefusesDuplicates(t *testing.T) {
	s, twice, unordered := misorderedIndexes(t)
	if _, err := decodeIndex(s.dev, s.clock, twice); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("an index listing a page twice decoded with %v, want codec.ErrCorrupt", err)
	}
	got, err := decodeIndex(s.dev, s.clock, unordered)
	if err != nil {
		t.Fatalf("an index listing pages out of order: %v", err)
	}
	var idxs []int64
	for _, p := range got.records[RecordKey{1, 7, 1}].Pages {
		idxs = append(idxs, p.Idx)
	}
	if !slices.Equal(idxs, []int64{1, 2, 3}) {
		t.Fatalf("decoded pages %v, want 1, 2, 3", idxs)
	}
	if pages, _, err := got.ReadPages(1, 7, 1); err != nil || len(pages) != 3 || !bytes.Equal(runMap(t, pages)[3], varied(3)) {
		t.Fatalf("the decoded record reads %d pages: %v", len(pages), err)
	}
}

// TestSyncedIndexIsAFunctionOfState: two stores built by the same
// seeded sequence of puts, drops, quarantines and fences publish
// byte-identical index extents, Sync after Sync. Every table goes out
// in key order, not in Go's map order.
func TestSyncedIndexIsAFunctionOfState(t *testing.T) {
	build := func() *Store {
		s := testStore(t)
		for group := uint64(1); group <= 6; group++ {
			for epoch := uint64(1); epoch <= 4; epoch++ {
				for oid := uint64(1); oid <= 3; oid++ {
					pages := map[int64][]byte{}
					for pg := int64(0); pg < 5; pg++ {
						pages[pg*int64(oid)] = varied(byte(group*31 + epoch*7 + oid + uint64(pg)))
					}
					if _, err := s.PutRecord(group, oid, epoch, 3, epoch == 1, []byte{byte(oid)}, pages, nil); err != nil {
						t.Fatal(err)
					}
				}
				s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1,
					Records: []RecordKey{{group, 1, epoch}, {group, 2, epoch}, {group, 3, epoch}}})
			}
			if err := s.DropEpoch(group, 2); err != nil {
				t.Fatal(err)
			}
			s.Quarantine(group, 3, "seeded")
			if err := s.SetPrimary(group, group+1); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a, b := build(), build()
	for round := 1; round <= 2; round++ {
		for _, s := range []*Store{a, b} {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if ia, ib := syncedIndex(t, a), syncedIndex(t, b); !bytes.Equal(ia, ib) {
			t.Fatalf("sync %d: one state persisted to two indexes (%d and %d bytes)", round, len(ia), len(ib))
		}
	}
}

// TestOpenRejectsUnorderedManifests: manifest lookups binary-search, so
// an index that lists a group's epochs out of order is refused as
// corrupt instead of mounting with epochs that cannot be found.
func TestOpenRejectsUnorderedManifests(t *testing.T) {
	s := testStore(t)
	for epoch := uint64(1); epoch <= 3; epoch++ {
		s.PutManifest(&Manifest{Group: 1, Epoch: epoch, Prev: epoch - 1})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(s.dev, s.clock); err != nil {
		t.Fatalf("ordered index: %v", err)
	}
	ms := s.manifests[1]
	ms[0], ms[2] = ms[2], ms[0]
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeIndex(s.dev, s.clock, syncedIndex(t, s)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("index listing epochs 3, 2, 1 decoded with %v, want codec.ErrCorrupt", err)
	}
}

// TestFullSnapshotIndexResolvesUnchanged: an index written when every
// record carried a snapshot of all its object's counters — each a
// superset of the one before, as counters only grow — resolves at every
// epoch to that epoch's snapshot: a full list is a valid delta, and the
// merge of the chain under it adds nothing it does not already list.
// That holds on the store, after it is persisted and reopened, and after
// an epoch is merged forward.
func TestFullSnapshotIndexResolvesUnchanged(t *testing.T) {
	const group, oid = 1, 7
	s := testStore(t)
	snaps := map[uint64][]vm.PageHeat{}
	var snap []vm.PageHeat
	for epoch := uint64(1); epoch <= 5; epoch++ {
		snap = vm.MergeHeat(slices.Clone(snap), []vm.PageHeat{{Page: 0, Count: uint32(3 * epoch)}, {Page: int64(epoch) * 5, Count: 1}})
		snaps[epoch] = snap
		pages := map[int64][]byte{int64(epoch): page(byte(epoch))}
		if _, err := s.PutRecord(group, oid, epoch, 3, epoch == 1, nil, pages, snap); err != nil {
			t.Fatal(err)
		}
		s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{group, oid, epoch}}})
	}
	check := func(where string, st *Store) {
		t.Helper()
		for _, m := range st.Manifests(group) {
			if _, heat, err := st.ResolvePages(group, oid, m.Epoch); err != nil || !slices.Equal(heat, snaps[m.Epoch]) {
				t.Fatalf("%s: epoch %d resolves heat %v (%v), its snapshot is %v", where, m.Epoch, heat, err, snaps[m.Epoch])
			}
		}
	}
	check("as written", s)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(s.dev, storage.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", re)
	if err := re.DropEpoch(group, 3); err != nil {
		t.Fatal(err)
	}
	if err := re.DropEpoch(group, 1); err != nil {
		t.Fatal(err)
	}
	check("after merging epochs 3 and 1 forward", re)
}

// TestHeatOutOfOrderIsCorrupt: the index decoder refuses a record whose
// heat is not in strictly ascending page order — the merge rule's input.
func TestHeatOutOfOrderIsCorrupt(t *testing.T) {
	s := testStore(t)
	if _, err := s.PutRecord(1, 7, 1, 3, true, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	s.PutManifest(&Manifest{Group: 1, Epoch: 1, Records: []RecordKey{{1, 7, 1}}})
	for _, heat := range [][]vm.PageHeat{{{Page: 4, Count: 1}, {Page: 2, Count: 1}}, {{Page: 4, Count: 1}, {Page: 4, Count: 2}}} {
		s.records[RecordKey{1, 7, 1}].Heat = heat
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeIndex(s.dev, s.clock, syncedIndex(t, s)); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("index with heat %v decoded with %v, want codec.ErrCorrupt", heat, err)
		}
	}
}
