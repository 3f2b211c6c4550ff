package objstore

import (
	"errors"
	"slices"
	"testing"

	"aurora/internal/vm"
)

// viewOracle holds PageViews to the map ResolvePages builds. The two GC
// property tests call check after every put and drop, which is what
// backs the two claims a view rests on: that what an epoch resolves to
// does not change while older epochs are dropped under it (a view taken
// many steps ago must still answer like a fresh ResolvePages), and that
// the page count memoised on a chain's newest record never goes stale
// (a view taken now must count what ResolvePages counts).
type viewOracle struct {
	held map[RecordKey]*PageView
}

func (vo *viewOracle) check(t *testing.T, s *Store, where string, group uint64, oids []uint64) {
	t.Helper()
	if vo.held == nil {
		vo.held = make(map[RecordKey]*PageView)
	}
	live := make(map[uint64]bool)
	for _, m := range s.Manifests(group) {
		live[m.Epoch] = true
		for _, oid := range oids {
			key := RecordKey{group, oid, m.Epoch}
			pages, heat, err := s.ResolvePages(group, oid, m.Epoch)
			fresh, vheat, verr := s.ResolveView(group, oid, m.Epoch)
			if (err == nil) != (verr == nil) {
				t.Fatalf("%s: %v: ResolvePages says %v, ResolveView says %v", where, key, err, verr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(heat, vheat) {
				t.Fatalf("%s: %v: heat %v, view heat %v", where, key, heat, vheat)
			}
			if vo.held[key] == nil {
				vo.held[key] = fresh
			}
			for name, v := range map[string]*PageView{"fresh": fresh, "held": vo.held[key]} {
				if v.Len() != len(pages) {
					t.Fatalf("%s: %v: %s view counts %d pages, ResolvePages %d", where, key, name, v.Len(), len(pages))
				}
				top := int64(-1)
				for idx, want := range pages {
					top = max(top, idx)
					if got, ok, err := v.Lookup(idx); err != nil || !ok || got != want {
						t.Fatalf("%s: %v page %d: %s view says %v %v %v, ResolvePages %v", where, key, idx, name, got, ok, err, want)
					}
				}
				for _, idx := range []int64{-1, top + 1} {
					if _, ok, err := v.Lookup(idx); ok || err != nil {
						t.Fatalf("%s: %v: %s view finds page %d the object never had (%v, %v)", where, key, name, idx, ok, err)
					}
				}
				idxs, err := v.Pages()
				if err != nil || len(idxs) != len(pages) {
					t.Fatalf("%s: %v: %s view lists %d pages (%v), want %d", where, key, name, len(idxs), err, len(pages))
				}
				for _, idx := range idxs {
					if _, ok := pages[idx]; !ok {
						t.Fatalf("%s: %v: %s view lists page %d, ResolvePages does not", where, key, name, idx)
					}
				}
			}
		}
	}
	// A view whose epoch was dropped does not know where its pages are.
	// It has to say so: a miss would be read as "zero-fill".
	for key, v := range vo.held {
		if key.Group != group || live[key.Epoch] {
			continue
		}
		if _, ok, err := v.Lookup(0); ok || !errors.Is(err, ErrNoManifest) {
			t.Fatalf("%s: view of dropped %v answers (%v, %v), want ErrNoManifest", where, key, ok, err)
		}
		if _, err := v.Pages(); !errors.Is(err, ErrNoManifest) {
			t.Fatalf("%s: view of dropped %v lists pages: %v", where, key, err)
		}
		delete(vo.held, key)
	}
}

// TestPageViewVanishedChain: the two ways a view can lose its pages are
// typed errors, each distinct from a miss.
func TestPageViewVanishedChain(t *testing.T) {
	s := testStore(t)
	const group, oid = 1, 9
	put := func(epoch uint64, full bool, fill byte, idxs ...int64) {
		t.Helper()
		pages := make(map[int64][]byte)
		for _, idx := range idxs {
			pages[idx] = page(fill)
		}
		if _, err := s.PutRecord(group, oid, epoch, 1, full, nil, pages, []vm.PageHeat{{Page: idxs[0], Count: uint32(epoch)}}); err != nil {
			t.Fatal(err)
		}
		s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{group, oid, epoch}}})
	}
	put(1, true, 1, 0, 1, 2)
	put(2, false, 2, 1)
	put(3, false, 3, 5)

	v2, heat, err := s.ResolveView(group, oid, 2)
	if err != nil || v2.Len() != 3 || len(heat) != 1 || heat[0].Count != 2 {
		t.Fatalf("view at 2: len %d heat %v err %v", v2.Len(), heat, err)
	}
	if _, ok, err := v2.Lookup(5); ok || err != nil {
		t.Fatalf("page 5 is epoch 3's, the view at 2 says (%v, %v)", ok, err)
	}
	// An older epoch dropped under the view changes nothing it resolves.
	want, _, _ := v2.Lookup(0)
	if err := s.DropEpoch(group, 1); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := v2.Lookup(0); !ok || err != nil || got != want {
		t.Fatalf("page 0 after dropping epoch 1: (%v, %v, %v), want %v", got, ok, err, want)
	}
	// The view's own epoch dropped: unknown, not absent.
	if err := s.DropEpoch(group, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := v2.Lookup(0); ok || !errors.Is(err, ErrNoManifest) {
		t.Fatalf("lookup through a dropped epoch: (%v, %v), want ErrNoManifest", ok, err)
	}
	if _, _, err := s.ResolveView(group, oid, 2); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("resolving a dropped epoch: %v, want ErrNoManifest", err)
	}
	// An object the history never recorded.
	if _, _, err := s.ResolveView(group, oid+1, 3); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("resolving an unknown object: %v, want ErrNoRecord", err)
	}
	v3, _, err := s.ResolveView(group, oid, 3)
	if err != nil || v3.Len() != 4 {
		t.Fatalf("view at 3: len %d err %v, want 4 pages", v3.Len(), err)
	}
	s.DeleteRecord(group, oid, 3)
	if _, ok, err := v3.Lookup(0); ok || !errors.Is(err, ErrNoRecord) {
		t.Fatalf("lookup with every record gone: (%v, %v), want ErrNoRecord", ok, err)
	}
}

// TestPageViewLookupDoesNotAllocate: a demand fault's index lookup is a
// walk over what the store already holds.
func TestPageViewLookupDoesNotAllocate(t *testing.T) {
	s := testStore(t)
	const group, oid = 1, 9
	for epoch := uint64(1); epoch <= 5; epoch++ {
		pages := map[int64][]byte{int64(epoch): page(byte(epoch))}
		if _, err := s.PutRecord(group, oid, epoch, 1, epoch == 1, nil, pages, nil); err != nil {
			t.Fatal(err)
		}
		s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{group, oid, epoch}}})
	}
	v, _, err := s.ResolveView(group, oid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok, err := v.Lookup(1); !ok || err != nil {
			t.Fatalf("page 1: (%v, %v)", ok, err)
		}
		if _, ok, _ := v.Lookup(77); ok {
			t.Fatal("page 77 found")
		}
	}); n != 0 {
		t.Errorf("two lookups through a 5-record chain allocate %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := s.ResolveView(group, oid, 5); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("resolving a view allocates %v times, want 1 (the view)", n)
	}
}
