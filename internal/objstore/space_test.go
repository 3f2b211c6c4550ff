package objstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aurora/internal/storage"
)

// TestGCInterleavingProperty drives random interleavings of the three
// operations that move blocks between live, shared, and free —
// PutRecord (new epochs), DropEpoch (merge-forward reclamation), and
// Scrub — and audits full reachability after every single step:
// recomputed refcounts must match stored ones, no block may sit at
// zero references, and the free list must stay alias-free. Any
// ordering that corrupts accounting fails here with the op trace.
func TestGCInterleavingProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := testStore(t)
			const group = 1
			var trace []string
			var views viewOracle
			step := func(op string) {
				trace = append(trace, op)
				if err := s.AuditReachability(); err != nil {
					t.Fatalf("audit failed after %v: %v", trace, err)
				}
				views.check(t, s, op, group, []uint64{1, 2, 3, 4})
			}

			epoch := uint64(0)
			mint := func() {
				epoch++
				var keys []RecordKey
				full := epoch == 1 || rng.Intn(8) == 0
				for oid := uint64(1); oid <= 4; oid++ {
					if !full && rng.Intn(3) == 0 {
						continue // object idle this epoch
					}
					pages := map[int64][]byte{}
					for pg := 0; pg < 1+rng.Intn(3); pg++ {
						// Low-entropy fill exercises dedup: distinct
						// epochs often share block content.
						pages[int64(pg)] = page(byte(rng.Intn(6)))
					}
					if _, err := s.PutRecord(group, oid, epoch, 1, full, []byte{byte(oid)}, pages, nil); err != nil {
						t.Fatalf("put oid %d epoch %d: %v", oid, epoch, err)
					}
					keys = append(keys, RecordKey{group, oid, epoch})
				}
				prev := epoch - 1
				if len(s.Manifests(group)) == 0 {
					prev = 0
				}
				s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: prev, Records: keys})
				step(fmt.Sprintf("mint(%d)", epoch))
			}

			drop := func() {
				ms := s.Manifests(group)
				if len(ms) < 2 {
					return
				}
				victim := ms[rng.Intn(len(ms)-1)].Epoch // never the newest
				if err := s.DropEpoch(group, victim); err != nil {
					t.Fatalf("drop epoch %d: %v", victim, err)
				}
				step(fmt.Sprintf("drop(%d)", victim))
			}

			scrub := func() {
				if _, err := s.Scrub(nil); err != nil {
					t.Fatalf("scrub: %v", err)
				}
				step("scrub")
			}

			mint() // seed the lineage with a full epoch
			for i := 0; i < 300; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					mint()
				case 4, 5, 6:
					drop()
				default:
					scrub()
				}
			}

			// Whatever epochs survived must still resolve: every object
			// present in the newest manifest's history chain reads back.
			ms := s.Manifests(group)
			if len(ms) == 0 {
				t.Fatal("no manifests survived")
			}
			newest := ms[len(ms)-1].Epoch
			for oid := uint64(1); oid <= 4; oid++ {
				pages, _, err := s.ResolvePages(group, oid, newest)
				if err != nil {
					t.Fatalf("resolving oid %d at epoch %d after %v: %v", oid, newest, trace[len(trace)-5:], err)
				}
				if len(pages) == 0 {
					t.Fatalf("oid %d resolved to no pages at epoch %d", oid, newest)
				}
			}
		})
	}
}

// TestStatsLiveAndReclaimable checks the two Stats fields the pressure
// ladder decides by: LiveBytes tracks referenced blocks plus metadata,
// and ReclaimableBytes counts freed-but-resident blocks until
// ReleaseSpace TRIMs them back to the device.
func TestStatsLiveAndReclaimable(t *testing.T) {
	s := testStore(t)
	s.PutRecord(1, 1, 1, 1, true, []byte("meta"), map[int64][]byte{0: page(1), 1: page(2)}, nil)
	s.PutManifest(&Manifest{Group: 1, Epoch: 1, Records: []RecordKey{{1, 1, 1}}})
	s.PutRecord(1, 1, 2, 1, false, []byte("meta"), map[int64][]byte{1: page(3)}, nil)
	s.PutManifest(&Manifest{Group: 1, Epoch: 2, Prev: 1, Records: []RecordKey{{1, 1, 2}}})

	st := s.Stats()
	if st.LiveBytes != st.BlockBytes+st.MetaBytes {
		t.Fatalf("LiveBytes %d != BlockBytes %d + MetaBytes %d", st.LiveBytes, st.BlockBytes, st.MetaBytes)
	}
	if st.BlockBytes != 3*BlockSize {
		t.Fatalf("BlockBytes %d, want %d", st.BlockBytes, 3*BlockSize)
	}
	if st.ReclaimableBytes != 0 {
		t.Fatalf("ReclaimableBytes %d before any drop", st.ReclaimableBytes)
	}

	if err := s.DropEpoch(1, 1); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	// Epoch 1's page 1 block was shadowed by epoch 2 and is now free
	// (its metadata extent too); page 0 merged forward and stays live.
	if st.ReclaimableBytes == 0 {
		t.Fatal("nothing reclaimable after dropping a shadowed epoch")
	}
	freed := s.ReleaseSpace()
	if freed != st.ReclaimableBytes {
		t.Fatalf("ReleaseSpace freed %d, want %d", freed, st.ReclaimableBytes)
	}
	if got := s.Stats().ReclaimableBytes; got != 0 {
		t.Fatalf("ReclaimableBytes %d after TRIM, want 0", got)
	}
}

// TestControlPlaneReserve fills a bounded device with checkpoint data
// until the store refuses with ErrStoreFull, then verifies the refusal
// is typed, the dedup index was not poisoned, and — the point of the
// reserve — Sync can still publish the index and superblock.
func TestControlPlaneReserve(t *testing.T) {
	clock := storage.NewClock()
	params := storage.ParamsOptaneNVMe
	params.Capacity = 64 * BlockSize
	s := Create(storage.NewMemDevice(params, clock), clock)

	var putErr error
	epoch := uint64(0)
	for epoch < 256 {
		epoch++
		_, putErr = s.PutRecord(1, 1, epoch, 1, epoch == 1, nil,
			map[int64][]byte{0: page(byte(epoch)), 1: page(byte(epoch + 100))}, nil)
		if putErr != nil {
			break
		}
		prev := epoch - 1
		s.PutManifest(&Manifest{Group: 1, Epoch: epoch, Prev: prev, Records: []RecordKey{{1, 1, epoch}}})
	}
	if putErr == nil {
		t.Fatal("device never filled")
	}
	if !errors.Is(putErr, ErrStoreFull) || !errors.Is(putErr, storage.ErrOutOfSpace) {
		t.Fatalf("refusal not typed: %v", putErr)
	}
	if err := s.AuditReachability(); err != nil {
		t.Fatalf("failed put poisoned accounting: %v", err)
	}
	// The control plane must still get through on the held-back tail.
	if err := s.Sync(); err != nil {
		t.Fatalf("sync on a full device: %v", err)
	}
	// And after reclamation the data plane comes back.
	ms := s.Manifests(1)
	for _, m := range ms[:len(ms)-1] {
		if err := s.DropEpoch(1, m.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	s.ReleaseSpace()
	if _, err := s.PutRecord(1, 1, epoch, 1, true, nil, map[int64][]byte{0: page(200)}, nil); err != nil {
		t.Fatalf("put after reclamation: %v", err)
	}
}
