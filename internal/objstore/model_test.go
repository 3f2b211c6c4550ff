package objstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"aurora/internal/vm"
)

// modelRecord is the reference form of a record: its pages as a map.
type modelRecord struct {
	full  bool
	pages map[int64][]byte
}

// recordModel is what a store of one group must hold, kept with maps
// and the rules of DESIGN §3.4 rather than the store's code.
type recordModel struct {
	recs   map[RecordKey]*modelRecord
	epochs []uint64 // retained, ascending
	live   map[uint64]map[int64][]byte
	last   uint64 // newest epoch put
	// seen counts the cases the run reached, so the test can tell it
	// covered each.
	seen map[string]int
}

// drop is DropEpoch in the model: each record of the epoch is deleted
// (last epoch), moves to the next epoch (idle heir), is dropped under a
// full heir, or has its pages folded under the heir's.
func (m *recordModel) drop(epoch uint64) {
	i := slices.Index(m.epochs, epoch)
	m.epochs = slices.Delete(m.epochs, i, i+1)
	for key, rec := range m.recs {
		if key.Epoch != epoch {
			continue
		}
		delete(m.recs, key)
		if i == len(m.epochs) {
			continue
		}
		next := RecordKey{key.Group, key.OID, m.epochs[i]}
		heir, ok := m.recs[next]
		switch {
		case !ok:
			m.seen["idle heir"]++
			m.recs[next] = rec
		case heir.full:
			m.seen["full heir"]++
		default:
			if len(rec.pages) > len(heir.pages) {
				m.seen["heir folded into the dropped record"]++
			} else {
				m.seen["dropped record folded into the heir"]++
			}
			merged := maps.Clone(rec.pages)
			maps.Copy(merged, heir.pages)
			heir.pages, heir.full = merged, rec.full
		}
	}
}

// resolve is the object's pages at epoch, folded from its chain; nil
// when no record of the chain holds the object.
func (m *recordModel) resolve(oid, epoch uint64) map[int64][]byte {
	var chain []*modelRecord
	for i := slices.Index(m.epochs, epoch); i >= 0; i-- {
		if rec, ok := m.recs[RecordKey{1, oid, m.epochs[i]}]; ok {
			chain = append(chain, rec)
			if rec.full {
				break
			}
		}
	}
	if len(chain) == 0 {
		return nil
	}
	out := make(map[int64][]byte)
	for i := len(chain) - 1; i >= 0; i-- {
		maps.Copy(out, chain[i].pages)
	}
	return out
}

func randomPage(r *rand.Rand) []byte {
	p := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 8 {
		v := r.Uint64()
		for j := range 8 {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

// put writes epoch last+1: for each object, nothing (idle), a full
// record of its whole page set, or a delta of literal pages, pages
// whose content the store holds already and pages written in a few
// lines.
func (m *recordModel) put(t *testing.T, s *Store, r *rand.Rand) {
	t.Helper()
	m.last++
	epoch := m.last
	man := &Manifest{Group: 1, Epoch: epoch}
	if n := len(m.epochs); n > 0 {
		man.Prev = m.epochs[n-1]
	}
	for oid := uint64(1); oid <= 2; oid++ {
		live := m.live[oid]
		full := len(live) == 0 || r.IntN(6) == 0
		if !full && r.IntN(4) == 0 {
			continue
		}
		written := make(map[int64][]byte)
		masks := make(map[int64]uint64)
		if full {
			// A full record is often dense from page 0 (find indexes it),
			// sometimes sparse, and may drop pages the object had.
			live = make(map[int64][]byte)
			n, stride := 4+r.IntN(28), int64(1+r.IntN(2))
			for j := range int64(n) {
				idx := j * stride
				if p, ok := m.live[oid][idx]; ok && r.IntN(2) == 0 {
					live[idx] = p
				} else {
					live[idx] = randomPage(r)
				}
			}
			maps.Copy(written, live)
		} else {
			for range 1 + r.IntN(12) {
				idx := int64(r.IntN(40))
				old, had := live[idx]
				switch mode := r.IntN(4); {
				case mode == 0 && had:
					// A few lines written: a line entry, or a block once
					// the lines over its base pass lineBound.
					p := slices.Clone(old)
					var mask uint64
					for range 1 + r.IntN(lineBound+1) {
						l := r.IntN(64)
						p[l<<vm.LineShift+r.IntN(vm.LineSize)]++
						mask |= 1 << l
					}
					written[idx], masks[idx] = p, mask|masks[idx]
				case mode == 1:
					// Content the store holds already: dedup.
					other := m.live[uint64(1+r.IntN(2))]
					if len(other) == 0 {
						continue
					}
					var keys []int64
					for k := range other {
						keys = append(keys, k)
					}
					slices.Sort(keys)
					written[idx] = other[keys[r.IntN(len(keys))]]
					masks[idx] = vm.AllLines
				default:
					written[idx] = randomPage(r)
					masks[idx] = vm.AllLines
				}
				live[idx] = written[idx]
			}
		}
		hp := newHashedPages(written)
		hp.masks = masks
		before := s.Stats()
		if _, err := s.PutPages(1, oid, epoch, 3, full, nil, hp, nil); err != nil {
			t.Fatalf("put of object %d at epoch %d: %v", oid, epoch, err)
		}
		after := s.Stats()
		m.seen["line entry"] += int(after.LinePages - before.LinePages)
		m.seen["dedup"] += int(after.DedupHits - before.DedupHits)
		m.live[oid] = live
		m.recs[RecordKey{1, oid, epoch}] = &modelRecord{full: full, pages: written}
		man.Records = append(man.Records, RecordKey{1, oid, epoch})
	}
	s.PutManifest(man)
	m.epochs = append(m.epochs, epoch)
}

// check compares the store with the model: every record's entries, in
// strictly ascending page order, are the model's pages; every retained
// epoch reads back and counts its pages as the model resolves it; and
// the reachability audit is clean.
func (m *recordModel) check(t *testing.T, step string, s *Store) {
	t.Helper()
	s.mu.Lock()
	if len(s.records) != len(m.recs) {
		s.mu.Unlock()
		t.Fatalf("%s: store holds %d records, model %d", step, len(s.records), len(m.recs))
	}
	for key, want := range m.recs {
		rec, ok := s.records[key]
		if !ok || rec.Full != want.full || len(rec.Pages) != len(want.pages) {
			s.mu.Unlock()
			t.Fatalf("%s: record %v is %v, want full=%v and %d pages", step, key, rec, want.full, len(want.pages))
		}
		for i, p := range rec.Pages {
			data, ok := want.pages[p.Idx]
			if !ok || (i > 0 && p.Idx <= rec.Pages[i-1].Idx) || p.Ref.Hash != ContentHash(data) {
				s.mu.Unlock()
				t.Fatalf("%s: record %v entry %d (page %d) is not the model's", step, key, i, p.Idx)
			}
		}
	}
	s.mu.Unlock()
	for _, epoch := range m.epochs {
		for oid := uint64(1); oid <= 2; oid++ {
			want := m.resolve(oid, epoch)
			if want == nil {
				continue
			}
			run, _, err := s.ReadPages(1, oid, epoch)
			got := runMap(t, run)
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s: object %d at epoch %d reads %d pages (%v), want %d", step, oid, epoch, len(got), err, len(want))
			}
			for idx, p := range want {
				if !bytes.Equal(got[idx], p) {
					t.Fatalf("%s: object %d page %d at epoch %d differs from the model", step, oid, idx, epoch)
				}
			}
			if v, err := s.ResolveView(1, oid, epoch); err != nil || v.Len() != len(want) {
				t.Fatalf("%s: view of object %d at epoch %d: %v, %d pages, want %d", step, oid, epoch, err, v.Len(), len(want))
			}
		}
	}
	if err := s.AuditReachability(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// TestRecordModel drives a store through seeded random sequences of
// puts (full and incremental; literal, dedup and line pages), drops of
// the oldest epoch and of epochs in the middle (so a dropped record
// folds into a larger heir, takes a smaller heir's pages into itself,
// goes under a full heir or becomes an idle object's next record),
// TrimHistory, CompactPacks, and Sync followed by Open. After every step
// each record must equal a reference map model and the audit be clean.
func TestRecordModel(t *testing.T) {
	seen := make(map[string]int)
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewPCG(seed, 33))
			s := testStore(t)
			m := &recordModel{recs: make(map[RecordKey]*modelRecord), live: make(map[uint64]map[int64][]byte), seen: seen}
			for step := range 80 {
				var what string
				switch op := r.IntN(10); {
				case op < 5 || len(m.epochs) < 2:
					what = "put"
					m.put(t, s, r)
				case op < 7:
					epoch := m.epochs[r.IntN(len(m.epochs)-1)]
					what = fmt.Sprint("drop of epoch ", epoch)
					if err := s.DropEpoch(1, epoch); err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					m.drop(epoch)
				case op < 8:
					keep := 1 + r.IntN(3)
					what = fmt.Sprint("trim to ", keep)
					if err := s.TrimHistory(1, keep, nil); err != nil {
						t.Fatalf("step %d: %s: %v", step, what, err)
					}
					for len(m.epochs) > keep {
						m.drop(m.epochs[0])
					}
				case op < 9:
					what = "compaction"
					s.CompactPacks()
				default:
					what = "sync and open"
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
					re, err := Open(s.dev, s.clock)
					if err != nil {
						t.Fatalf("step %d: open: %v", step, err)
					}
					s = re
					seen["reopen"]++
				}
				m.check(t, fmt.Sprintf("step %d (%s)", step, what), s)
			}
		})
	}
	for _, c := range []string{"line entry", "dedup", "idle heir", "full heir", "reopen",
		"heir folded into the dropped record", "dropped record folded into the heir"} {
		if seen[c] == 0 {
			t.Errorf("no run reached %s (%v)", c, seen)
		}
	}
}
