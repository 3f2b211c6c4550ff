package objstore

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"aurora/internal/storage"
	"aurora/internal/vm"
)

func testStore(t *testing.T) *Store {
	if t != nil {
		t.Helper()
	}
	clock := storage.NewClock()
	return Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
}

func page(fill byte) []byte {
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestPutGetRecord(t *testing.T) {
	s := testStore(t)
	meta := []byte("process metadata")
	pages := map[int64][]byte{0: page(1), 3: page(2)}
	rec, err := s.PutRecord(1, 100, 1, 7, true, meta, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pages) != 2 {
		t.Fatalf("pages = %d", len(rec.Pages))
	}
	got, err := s.GetRecord(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Meta, meta) || got.Kind != 7 || !got.Full {
		t.Fatalf("record = %+v", got)
	}
	if _, err := s.GetRecord(1, 100, 2); err != ErrNoRecord {
		t.Fatalf("missing record err = %v", err)
	}
	// Blocks read back exactly.
	data, err := s.ReadBlock(got.Pages[3])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, page(2)) {
		t.Fatal("block contents corrupted")
	}
}

func TestDedupAcrossRecords(t *testing.T) {
	s := testStore(t)
	shared := page(0xaa)
	s.PutRecord(1, 1, 1, 1, true, nil, map[int64][]byte{0: shared, 1: page(1)}, nil)
	s.PutRecord(1, 2, 1, 1, true, nil, map[int64][]byte{0: shared, 1: page(2)}, nil)
	st := s.Stats()
	if st.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3 (one shared)", st.Blocks)
	}
	if st.DedupHits != 1 {
		t.Fatalf("dedup hits = %d", st.DedupHits)
	}
	if st.LogicalBytes != 4*BlockSize {
		t.Fatalf("logical = %d", st.LogicalBytes)
	}
}

func TestManifestChainAndResolve(t *testing.T) {
	s := testStore(t)
	const group, oid = 5, 42

	// Epoch 1: full checkpoint with pages 0,1,2.
	s.PutRecord(group, oid, 1, 1, true, []byte("m1"),
		map[int64][]byte{0: page(10), 1: page(11), 2: page(12)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 1, Records: []RecordKey{{group, oid, 1}}, Roots: []uint64{oid}})

	// Epoch 2: incremental, page 1 dirtied.
	s.PutRecord(group, oid, 2, 1, false, []byte("m2"), map[int64][]byte{1: page(21)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 2, Prev: 1, Records: []RecordKey{{group, oid, 2}}, Roots: []uint64{oid}})

	// Epoch 3: incremental, pages 0 and 3 dirtied.
	s.PutRecord(group, oid, 3, 1, false, []byte("m3"), map[int64][]byte{0: page(30), 3: page(33)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 3, Prev: 2, Records: []RecordKey{{group, oid, 3}}, Roots: []uint64{oid}})

	pages, _, err := s.ResolvePages(group, oid, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]byte{0: 30, 1: 21, 2: 12, 3: 33}
	if len(pages) != len(want) {
		t.Fatalf("resolved %d pages, want %d", len(pages), len(want))
	}
	for idx, fill := range want {
		data, err := s.ReadBlock(pages[idx])
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != fill {
			t.Fatalf("page %d = %#x, want %#x", idx, data[0], fill)
		}
	}

	// Resolving at epoch 2 sees the older view — time travel.
	pages2, _, err := s.ResolvePages(group, oid, 2)
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := s.ReadBlock(pages2[0])
	if d0[0] != 10 {
		t.Fatalf("epoch-2 view of page 0 = %#x, want 10", d0[0])
	}
	if _, ok := pages2[3]; ok {
		t.Fatal("epoch-2 view contains a page from the future")
	}

	// Metadata resolution picks the newest at-or-before record.
	meta, kind, err := s.ResolveMeta(group, oid, 3)
	if err != nil || string(meta) != "m3" || kind != 1 {
		t.Fatalf("meta = %q kind=%d err=%v", meta, kind, err)
	}
}

func TestResolveMissingObject(t *testing.T) {
	s := testStore(t)
	s.PutManifest(&Manifest{Group: 1, Epoch: 1})
	if _, _, err := s.ResolvePages(1, 999, 1); err == nil {
		t.Fatal("resolving unknown object should fail")
	}
	if _, _, err := s.ResolvePages(9, 1, 1); err == nil {
		t.Fatal("resolving unknown group should fail")
	}
}

func TestNamedCheckpoints(t *testing.T) {
	s := testStore(t)
	s.PutManifest(&Manifest{Group: 1, Epoch: 4, Name: "before-upgrade"})
	m, err := s.NamedManifest("before-upgrade")
	if err != nil || m.Epoch != 4 {
		t.Fatalf("named lookup = %+v, %v", m, err)
	}
	if _, err := s.NamedManifest("nope"); err != ErrNoManifest {
		t.Fatalf("missing name err = %v", err)
	}

	// An epoch delivered again replaces its manifest: one entry, in
	// epoch order, the name still resolving.
	s.PutManifest(&Manifest{Group: 1, Epoch: 2})
	again := &Manifest{Group: 1, Epoch: 4, Name: "before-upgrade"}
	s.PutManifest(again)
	ms := s.Manifests(1)
	if len(ms) != 2 || ms[0].Epoch != 2 || ms[1] != again {
		t.Fatalf("manifests after re-delivery = %v, want epochs [2 4] with the new entry", ms)
	}
	if m, err := s.NamedManifest("before-upgrade"); err != nil || m != again {
		t.Fatalf("named lookup after re-delivery = %+v, %v", m, err)
	}
}

func TestLatestManifestAndGroups(t *testing.T) {
	s := testStore(t)
	if _, err := s.LatestManifest(3); err != ErrNoManifest {
		t.Fatalf("empty group err = %v", err)
	}
	s.PutManifest(&Manifest{Group: 3, Epoch: 1})
	s.PutManifest(&Manifest{Group: 3, Epoch: 5, Prev: 1})
	s.PutManifest(&Manifest{Group: 8, Epoch: 2})
	m, _ := s.LatestManifest(3)
	if m.Epoch != 5 {
		t.Fatalf("latest epoch = %d", m.Epoch)
	}
	gs := s.Groups()
	if len(gs) != 2 || gs[0] != 3 || gs[1] != 8 {
		t.Fatalf("groups = %v", gs)
	}
}

func TestGCDropOldestMergesForward(t *testing.T) {
	s := testStore(t)
	const group, oid = 1, 7
	s.PutRecord(group, oid, 1, 1, true, []byte("m1"),
		map[int64][]byte{0: page(1), 1: page(2), 2: page(3)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 1, Records: []RecordKey{{group, oid, 1}}})
	s.PutRecord(group, oid, 2, 1, false, []byte("m2"), map[int64][]byte{1: page(9)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 2, Prev: 1, Records: []RecordKey{{group, oid, 2}}})

	if err := s.DropEpoch(group, 1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 must now resolve standalone with the merged pages.
	pages, _, err := s.ResolvePages(group, oid, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]byte{0: 1, 1: 9, 2: 3}
	for idx, fill := range want {
		data, err := s.ReadBlock(pages[idx])
		if err != nil {
			t.Fatalf("page %d: %v", idx, err)
		}
		if data[0] != fill {
			t.Fatalf("page %d = %#x, want %#x", idx, data[0], fill)
		}
	}
	// The superseded epoch-1 page 1 was freed.
	if s.Stats().BlocksFreed != 1 {
		t.Fatalf("blocks freed = %d, want 1", s.Stats().BlocksFreed)
	}
	// Epoch 1 is gone.
	if _, err := s.Manifest(group, 1); err != ErrNoManifest {
		t.Fatal("dropped manifest still present")
	}
}

func TestGCIdleObjectMovesForward(t *testing.T) {
	s := testStore(t)
	const group = 1
	// Object 7 only has a record at epoch 1; epoch 2 checkpoint didn't
	// touch it (idle).
	s.PutRecord(group, 7, 1, 1, true, []byte("m"), map[int64][]byte{0: page(5)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 1, Records: []RecordKey{{group, 7, 1}}})
	s.PutManifest(&Manifest{Group: group, Epoch: 2, Prev: 1})

	if err := s.DropEpoch(group, 1); err != nil {
		t.Fatal(err)
	}
	pages, _, err := s.ResolvePages(group, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := s.ReadBlock(pages[0])
	if data[0] != 5 {
		t.Fatal("idle object's pages lost by GC")
	}
}

func TestGCDropLastEpochFreesEverything(t *testing.T) {
	s := testStore(t)
	s.PutRecord(1, 1, 1, 1, true, nil, map[int64][]byte{0: page(1), 1: page(2)}, nil)
	s.PutManifest(&Manifest{Group: 1, Epoch: 1, Records: []RecordKey{{1, 1, 1}}})
	if err := s.DropEpoch(1, 1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Blocks != 0 || st.Records != 0 {
		t.Fatalf("store not empty after dropping only epoch: %+v", st)
	}
}

func TestGCFreedSpaceReusedInPlace(t *testing.T) {
	s := testStore(t)
	s.PutRecord(1, 1, 1, 1, true, nil, map[int64][]byte{0: page(1)}, nil)
	s.PutManifest(&Manifest{Group: 1, Epoch: 1, Records: []RecordKey{{1, 1, 1}}})
	rec, _ := s.GetRecord(1, 1, 1)
	freed := map[int64]bool{rec.Pages[0].Off: true, rec.metaOff: true}
	s.DropEpoch(1, 1)
	s.mu.Lock()
	highWater := s.nextOff
	s.mu.Unlock()

	// The next record's allocations (page block and metadata extent)
	// land on the freed space instead of growing the device.
	rec2, _ := s.PutRecord(1, 2, 1, 1, true, nil, map[int64][]byte{0: page(99)}, nil)
	if !freed[rec2.Pages[0].Off] {
		t.Fatalf("new block at %d, want a reused offset from %v", rec2.Pages[0].Off, freed)
	}
	s.mu.Lock()
	grown := s.nextOff != highWater
	s.mu.Unlock()
	if grown {
		t.Fatal("allocation grew the device despite freed space")
	}
}

func TestTrimHistory(t *testing.T) {
	s := testStore(t)
	const group, oid = 1, 3
	s.PutRecord(group, oid, 1, 1, true, nil, map[int64][]byte{0: page(1)}, nil)
	s.PutManifest(&Manifest{Group: group, Epoch: 1, Records: []RecordKey{{group, oid, 1}}})
	for e := uint64(2); e <= 6; e++ {
		s.PutRecord(group, oid, e, 1, false, nil, map[int64][]byte{int64(e): page(byte(e))}, nil)
		s.PutManifest(&Manifest{Group: group, Epoch: e, Prev: e - 1, Records: []RecordKey{{group, oid, e}}})
	}
	if err := s.TrimHistory(group, 2, nil); err != nil {
		t.Fatal(err)
	}
	ms := s.Manifests(group)
	if len(ms) != 2 || ms[0].Epoch != 5 || ms[1].Epoch != 6 {
		t.Fatalf("history after trim = %v", ms)
	}
	// The trimmed history still resolves completely.
	pages, _, err := s.ResolvePages(group, oid, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 6 { // page 0 plus pages 2..6
		t.Fatalf("resolved %d pages, want 6", len(pages))
	}
}

func TestSyncOpenRoundTrip(t *testing.T) {
	clock := storage.NewClock()
	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)
	s := Create(dev, clock)
	heat := []vm.PageHeat{{Page: 0, Count: 3}, {Page: 9, Count: 1}, {Page: 4000, Count: 1 << 31}}
	s.PutRecord(4, 10, 1, 2, true, []byte("meta-a"), map[int64][]byte{0: page(1), 5: page(7)}, heat)
	s.PutManifest(&Manifest{Group: 4, Epoch: 1, Name: "boot", Records: []RecordKey{{4, 10, 1}}, Roots: []uint64{10}})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: mount the same device fresh.
	s2, err := Open(dev, clock)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.GetRecord(4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Meta) != "meta-a" || rec.Kind != 2 || !rec.Full {
		t.Fatalf("record after reopen = %+v", rec)
	}
	if !slices.Equal(rec.Heat, heat) {
		t.Fatalf("heat across reopen = %v, want %v", rec.Heat, heat)
	}
	data, err := s2.ReadBlock(rec.Pages[5])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, page(7)) {
		t.Fatal("block data lost across reopen")
	}
	m, err := s2.NamedManifest("boot")
	if err != nil || m.Group != 4 || m.Roots[0] != 10 {
		t.Fatalf("manifest after reopen = %+v, %v", m, err)
	}
	// Dedup index survives: rewriting the same page is a hit.
	before := s2.Stats().Blocks
	s2.PutRecord(4, 11, 1, 2, true, nil, map[int64][]byte{0: page(1)}, nil)
	if s2.Stats().Blocks != before {
		t.Fatal("dedup index lost across reopen")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	clock := storage.NewClock()
	dev := storage.NewMemDevice(storage.ParamsDRAM, clock)
	dev.WriteAt([]byte("not a store"), 0)
	if _, err := Open(dev, clock); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestShortPagesArePadded(t *testing.T) {
	s := testStore(t)
	rec, err := s.PutRecord(1, 1, 1, 1, true, nil, map[int64][]byte{0: []byte("short")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := s.ReadBlock(rec.Pages[0])
	if len(data) != BlockSize || !bytes.HasPrefix(data, []byte("short")) {
		t.Fatal("short page not padded correctly")
	}
}

// Property: for any sequence of (epoch, dirty pages) the resolved view
// at the last epoch equals a straightforward replay of the writes.
func TestQuickIncrementalResolution(t *testing.T) {
	f := func(writes []uint16) bool {
		s := testStore(nil)
		const group, oid = 1, 2
		model := map[int64]byte{}

		// Epoch 1 is always a full checkpoint of page 0.
		s.PutRecord(group, oid, 1, 1, true, nil, map[int64][]byte{0: page(0)}, nil)
		s.PutManifest(&Manifest{Group: group, Epoch: 1, Records: []RecordKey{{group, oid, 1}}})
		model[0] = 0

		epoch := uint64(1)
		for _, w := range writes {
			epoch++
			idx := int64(w % 16)
			fill := byte(w >> 8)
			model[idx] = fill
			s.PutRecord(group, oid, epoch, 1, false, nil, map[int64][]byte{idx: page(fill)}, nil)
			s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1,
				Records: []RecordKey{{group, oid, epoch}}})
		}
		pages, _, err := s.ResolvePages(group, oid, epoch)
		if err != nil {
			return false
		}
		if len(pages) != len(model) {
			return false
		}
		for idx, fill := range model {
			data, err := s.ReadBlock(pages[idx])
			if err != nil || data[0] != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: GC never breaks resolution — dropping any prefix of the
// history leaves the latest view identical.
func TestQuickGCPreservesLatestView(t *testing.T) {
	f := func(writes []uint16, drops uint8) bool {
		s := testStore(nil)
		const group, oid = 1, 2
		s.PutRecord(group, oid, 1, 1, true, nil, map[int64][]byte{0: page(0)}, nil)
		s.PutManifest(&Manifest{Group: group, Epoch: 1, Records: []RecordKey{{group, oid, 1}}})
		epoch := uint64(1)
		for _, w := range writes {
			epoch++
			s.PutRecord(group, oid, epoch, 1, false, nil,
				map[int64][]byte{int64(w % 8): page(byte(w >> 8))}, nil)
			s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1,
				Records: []RecordKey{{group, oid, epoch}}})
		}
		before := snapshotView(s, group, oid, epoch)
		if before == nil {
			return false
		}
		n := int(drops) % (len(writes) + 1)
		for i := 0; i < n; i++ {
			oldest := s.Manifests(group)[0].Epoch
			if err := s.DropEpoch(group, oldest); err != nil {
				return false
			}
		}
		after := snapshotView(s, group, oid, epoch)
		if after == nil {
			return false
		}
		if len(before) != len(after) {
			return false
		}
		for idx, data := range before {
			if !bytes.Equal(after[idx], data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func snapshotView(s *Store, group, oid, epoch uint64) map[int64][]byte {
	pages, _, err := s.ResolvePages(group, oid, epoch)
	if err != nil {
		return nil
	}
	out := make(map[int64][]byte, len(pages))
	for idx, ref := range pages {
		data, err := s.ReadBlock(ref)
		if err != nil {
			return nil
		}
		out[idx] = data
	}
	return out
}
