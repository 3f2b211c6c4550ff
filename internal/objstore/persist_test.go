package objstore

import (
	"errors"
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
	// Seeds: a store with two groups, heat, a named and a quarantined
	// epoch and a fence, synced before and after one epoch is merged
	// forward.
	s := testStore(nil)
	for group := uint64(1); group <= 2; group++ {
		for epoch := uint64(1); epoch <= 3; epoch++ {
			pages := map[int64][]byte{int64(epoch): page(byte(16*group + epoch)), 9: page(byte(epoch))}
			heat := []vm.PageHeat{{Page: 9, Count: uint32(epoch)}}
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

	f.Fuzz(func(t *testing.T, idx []byte) {
		clock := storage.NewClock()
		got, err := decodeIndex(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock, idx)
		if err != nil {
			return
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
