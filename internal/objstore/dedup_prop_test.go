package objstore

import (
	"bytes"
	"math/rand"
	"testing"
)

// Property test for cross-group content-hash dedup under GC: several
// groups continuously checkpoint images drawn from a small shared
// content pool (so most blocks are shared across groups), while a
// random interleaving of DropEpoch calls reclaims each group's
// history. The invariant: a block referenced by any live epoch of any
// group is never dropped — every live view must read back
// bit-identical after every operation, and the reachability audit
// must hold.
//
// The model also keeps each record's own page map and folds it the way
// merge-forward does, so after every step the store's block count and
// cumulative BlocksFreed must equal the model's — whichever of the two
// maps DropEpoch folded into the other (both directions must occur).
//
// This is the regression net for the fleet's FaaS-density story: a
// thousand clones share one image's blocks, and one clone's GC must
// never eat a block the others still resolve.

// dedupModelEpoch is the expected merged view of one (group, epoch):
// page index -> fill byte.
type dedupModelEpoch struct {
	epoch uint64
	view  map[int64]byte
	own   map[int64]byte // the pages its record holds
}

func TestDedupCrossGroupGCInterleaving(t *testing.T) {
	const (
		groups = 4
		rounds = 120
		oidOf  = 1000 // group i checkpoints object oidOf+i
	)
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		s := testStore(t)

		// Shared content pool: 6 fills means heavy cross-group block
		// sharing, the worst case for refcounted GC.
		fills := []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66}

		model := make([][]dedupModelEpoch, groups)
		// refs counts record-page references per fill: one block each.
		refs := make(map[byte]int)
		freed := int64(0)
		unref := func(fill byte) {
			if refs[fill]--; refs[fill] == 0 {
				delete(refs, fill)
				freed++
			}
		}
		victimLarger, heirLarger := 0, 0
		next := make([]uint64, groups) // next epoch per group
		for g := range next {
			next[g] = 1
		}

		put := func(g int) {
			epoch := next[g]
			next[g]++
			full := epoch == 1
			// Dirty 1-4 pages out of an 8-page object with pool fills.
			dirty := make(map[int64][]byte)
			want := make(map[int64]byte)
			for n := 1 + rng.Intn(4); n > 0; n-- {
				pg := int64(rng.Intn(8))
				fill := fills[rng.Intn(len(fills))]
				if rng.Intn(4) == 0 {
					// A rarely shared content, so that blocks also die.
					fill = byte(0x80 + rng.Intn(64))
				}
				dirty[pg] = page(fill)
				want[pg] = fill
			}
			oid := uint64(oidOf + g)
			if _, err := s.PutRecord(uint64(g+1), oid, epoch, 1, full, []byte{byte(g), byte(epoch)}, dirty, nil); err != nil {
				t.Fatalf("seed %d: put g%d e%d: %v", seed, g, epoch, err)
			}
			m := &Manifest{Group: uint64(g + 1), Epoch: epoch, Records: []RecordKey{{uint64(g + 1), oid, epoch}}, Roots: []uint64{oid}}
			if epoch > 1 {
				m.Prev = epoch - 1
			}
			s.PutManifest(m)
			// The new epoch's view: previous view overlaid with the dirty set.
			view := make(map[int64]byte)
			if n := len(model[g]); n > 0 {
				for pg, f := range model[g][n-1].view {
					view[pg] = f
				}
			}
			for pg, f := range want {
				view[pg] = f
				refs[f]++
			}
			model[g] = append(model[g], dedupModelEpoch{epoch: epoch, view: view, own: want})
		}

		drop := func(g int) {
			if len(model[g]) < 2 { // always keep at least one live epoch
				return
			}
			oldest := model[g][0]
			if err := s.DropEpoch(uint64(g+1), oldest.epoch); err != nil {
				t.Fatalf("seed %d: drop g%d e%d: %v", seed, g, oldest.epoch, err)
			}
			heir := model[g][1].own
			if len(oldest.own) > len(heir) {
				victimLarger++
			} else {
				heirLarger++
			}
			for pg, f := range oldest.own {
				if _, shadowed := heir[pg]; shadowed {
					unref(f)
				} else {
					heir[pg] = f
				}
			}
			model[g] = model[g][1:]
		}

		var views viewOracle
		verify := func() {
			for g := 0; g < groups; g++ {
				views.check(t, s, "verify", uint64(g+1), []uint64{uint64(oidOf + g)})
				for _, me := range model[g] {
					pages, _, err := s.ResolvePages(uint64(g+1), uint64(oidOf+g), me.epoch)
					if err != nil {
						t.Fatalf("seed %d: resolve g%d e%d: %v", seed, g, me.epoch, err)
					}
					if len(pages) != len(me.view) {
						t.Fatalf("seed %d: g%d e%d resolved %d pages, want %d",
							seed, g, me.epoch, len(pages), len(me.view))
					}
					for pg, fill := range me.view {
						data, err := s.ReadBlock(pages[pg])
						if err != nil {
							t.Fatalf("seed %d: g%d e%d page %d: referenced block dropped: %v",
								seed, g, me.epoch, pg, err)
						}
						if !bytes.Equal(data, page(fill)) {
							t.Fatalf("seed %d: g%d e%d page %d corrupted (want fill %#x)",
								seed, g, me.epoch, pg, fill)
						}
					}
				}
			}
			if err := s.AuditReachability(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if st := s.Stats(); st.Blocks != len(refs) || st.BlocksFreed != freed {
				t.Fatalf("seed %d: store has %d blocks, freed %d; model has %d, freed %d",
					seed, st.Blocks, st.BlocksFreed, len(refs), freed)
			}
		}

		// Warm up: one full epoch per group so every group is live.
		for g := 0; g < groups; g++ {
			put(g)
		}
		verify()

		for i := 0; i < rounds; i++ {
			g := rng.Intn(groups)
			if rng.Intn(3) == 0 {
				drop(g)
			} else {
				put(g)
			}
			verify()
		}

		// Shared pool means dedup must actually have fired; otherwise
		// this test exercises nothing.
		if s.Stats().DedupHits == 0 {
			t.Fatalf("seed %d: no cross-record dedup happened", seed)
		}
		if victimLarger == 0 || heirLarger == 0 {
			t.Fatalf("seed %d: merge-forward folded victim into heir %d times, heir into victim %d times: want both",
				seed, heirLarger, victimLarger)
		}
		// Drain every group to one epoch each and re-verify: the
		// surviving views still own every block they reference.
		for g := 0; g < groups; g++ {
			for len(model[g]) > 1 {
				drop(g)
			}
		}
		verify()
		st := s.Stats()
		t.Logf("seed %d: final stats: blocks=%d freed=%d dedup=%d live=%dB",
			seed, st.Blocks, st.BlocksFreed, st.DedupHits, st.LiveBytes)
	}
}
