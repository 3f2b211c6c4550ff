package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"aurora/internal/storage"
)

// hashedPages is a PageSet over literal pages, hashed up front the way
// an image's memo is.
type hashedPages struct {
	idxs []int64
	data [][]byte
	sums []Hash
}

func newHashedPages(pages map[int64][]byte) *hashedPages {
	hp := &hashedPages{}
	for idx := range pages {
		hp.idxs = append(hp.idxs, idx)
	}
	slices.Sort(hp.idxs)
	for _, idx := range hp.idxs {
		hp.data = append(hp.data, pages[idx])
		hp.sums = append(hp.sums, ContentHash(pages[idx]))
	}
	return hp
}

func (hp *hashedPages) Len() int { return len(hp.idxs) }
func (hp *hashedPages) Page(i int) (int64, []byte, Hash) {
	return hp.idxs[i], hp.data[i], hp.sums[i]
}

// distinctPages returns n pages no other call with a different tag
// produces.
func distinctPages(n int, tag byte) map[int64][]byte {
	pages := make(map[int64][]byte, n)
	for i := 0; i < n; i++ {
		p := make([]byte, BlockSize)
		p[0], p[1], p[2] = tag, byte(i), byte(i>>8)
		pages[int64(i)] = p
	}
	return pages
}

// TestOverlappedChargesBatch: on a view, n new blocks and the metadata
// extent cost the lane Batch(params, n+1, mean) plus a hash per page;
// the same put outside a window costs them one at a time; on the root
// handle the device has billed its own clock and the window adds
// nothing; and the store computes no hash for pages that come with one.
func TestOverlappedChargesBatch(t *testing.T) {
	const n = 200
	clock := storage.NewClock()
	params := storage.ParamsOptaneNVMe // queue depth 16
	s := Create(storage.NewMemDevice(params, clock), clock)
	write := params.Latency + time.Duration(int64(BlockSize)*int64(time.Second)/params.WriteBW)
	meta := []byte("m")
	metaWrite := params.Latency + time.Duration(int64(len(meta))*int64(time.Second)/params.WriteBW)
	hashes := n * s.costs.HashPage
	serial := n*write + metaWrite

	put := func(st *Store, epoch uint64, tag byte) error {
		_, err := st.PutPages(1, 1, epoch, 0, false, meta, newHashedPages(distinctPages(n, tag)), nil)
		return err
	}
	lane := clock.Lane()
	view := s.WithClock(lane)
	start := lane.Now()
	if err := view.Overlapped(func() error { return put(view, 1, 1) }); err != nil {
		t.Fatal(err)
	}
	if got, want := lane.Now()-start, hashes+storage.Batch(params, n+1, serial/(n+1)); got != want {
		t.Errorf("overlapped put of %d new blocks cost the lane %v, want %v", n, got, want)
	}
	if clock.Now() != 0 {
		t.Errorf("a view's put moved the foreground clock to %v", clock.Now())
	}

	start = lane.Now()
	if err := put(view, 2, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := lane.Now()-start, hashes+serial; got != want {
		t.Errorf("the same put outside a window cost the lane %v, want %v (one write at a time)", got, want)
	}

	// Dedup hits cost a hash and no device time.
	start = lane.Now()
	if err := view.Overlapped(func() error { return put(view, 3, 2) }); err != nil {
		t.Fatal(err)
	}
	if got, want := lane.Now()-start, hashes+metaWrite; got != want {
		t.Errorf("a put of %d pages the store holds cost the lane %v, want %v (hashes + the metadata extent)", n, got, want)
	}

	// The root handle: the device bills the clock it was built on, call
	// by call, and a window there holds nothing.
	if err := s.Overlapped(func() error { return put(s, 4, 4) }); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now(), hashes+serial; got != want {
		t.Errorf("a put on the root handle cost the foreground clock %v, want %v", got, want)
	}
	if got := s.Stats().PagesHashed; got != 0 {
		t.Errorf("the store hashed %d pages that came with their hashes", got)
	}
	if _, err := s.PutRecord(1, 2, 4, 0, false, nil, distinctPages(3, 9), nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PagesHashed; got != 3 {
		t.Errorf("PutRecord of 3 pages counted %d hashes", got)
	}
}

// asFound is what a failed put must leave untouched.
type asFound struct {
	blocks    map[Hash]int32
	records   int
	allocated int64 // blocks handed out and not on the free list
	inflight  int
	stats     Stats
}

// differs describes how the store changed, or returns "". Two counters
// are history, not state, and move with an unwound attempt: the dedup
// hits it scored and the blocks it wrote and gave back.
func (a asFound) differs(b asFound) string {
	b.stats.DedupHits, b.stats.BlocksFreed = a.stats.DedupHits, a.stats.BlocksFreed
	switch {
	case !maps.Equal(a.blocks, b.blocks):
		return fmt.Sprintf("block index or reference counts changed (%d blocks, were %d)", len(b.blocks), len(a.blocks))
	case a.records != b.records || a.allocated != b.allocated || b.inflight != 0:
		return fmt.Sprintf("records %d→%d, allocated blocks %d→%d, in-flight ledger %d", a.records, b.records, a.allocated, b.allocated, b.inflight)
	case a.stats != b.stats:
		return fmt.Sprintf("stats %+v → %+v", a.stats, b.stats)
	}
	return ""
}

func snapshotStore(s *Store) asFound {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := asFound{
		blocks:    make(map[Hash]int32, len(s.blocks)),
		records:   len(s.records),
		allocated: (s.nextOff-dataStart)/BlockSize - int64(len(s.freeList)),
		inflight:  len(s.inflight),
		stats:     s.stats,
	}
	for h, be := range s.blocks {
		a.blocks[h] = be.refs
	}
	return a
}

// TestOverlappedPutFailureLeavesStoreAsFound: a batch that dies half
// way — on an injected write fault, on a device that fills up, on the
// store's own control-plane reserve — leaves the block index, every
// reference count, the in-flight ledger and the allocated space exactly
// as it found them (blocks it had written are back on the free list,
// sorted), what landed before the failure is still charged, and the
// same put then succeeds.
func TestOverlappedPutFailureLeavesStoreAsFound(t *testing.T) {
	const held, n, failAt = 40, 120, 30
	for _, tc := range []struct {
		name string
		arm  func(fd *storage.FaultDevice, md *storage.MemDevice)
		want error
	}{
		{"injected write fault", func(fd *storage.FaultDevice, _ *storage.MemDevice) {
			fd.FailOps(storage.FaultWrite, fd.OpCount()+failAt, fd.OpCount()+failAt)
		}, storage.ErrInjected},
		{"torn write", func(fd *storage.FaultDevice, _ *storage.MemDevice) {
			fd.TearOps(fd.OpCount()+failAt, fd.OpCount()+failAt)
		}, storage.ErrInjected},
		{"device down", func(fd *storage.FaultDevice, _ *storage.MemDevice) { fd.Down() }, storage.ErrDeviceDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := storage.NewClock()
			md := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)
			fd := storage.NewFaultDevice(md, clock, storage.FaultConfig{Seed: 5})
			s := Create(fd, clock)
			// History to dedup against and a free list to allocate from.
			for epoch := uint64(1); epoch <= 2; epoch++ {
				if _, err := s.PutRecord(1, 1, epoch, 0, true, []byte("meta"), distinctPages(held, byte(epoch)), nil); err != nil {
					t.Fatal(err)
				}
				s.PutManifest(&Manifest{Group: 1, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{1, 1, epoch}}})
			}
			if err := s.DropEpoch(1, 1); err != nil {
				t.Fatal(err)
			}
			// The batch: half its pages are held already, half are new.
			pages := distinctPages(n, 7)
			for i := int64(0); i < n; i += 2 {
				pages[i] = distinctPages(held, 2)[i%held]
			}
			before := snapshotStore(s)
			lane := clock.Lane()
			view := s.WithClock(lane)
			put := func() error {
				return view.Overlapped(func() error {
					_, err := view.PutPages(1, 1, 3, 0, false, []byte("meta3"), newHashedPages(pages), nil)
					return err
				})
			}
			tc.arm(fd, md)
			start := lane.Now()
			if err := put(); !errors.Is(err, tc.want) {
				t.Fatalf("put = %v, want %v", err, tc.want)
			}
			fd.ClearScripts()
			fd.Up()
			if d := before.differs(snapshotStore(s)); d != "" {
				t.Errorf("failed put left the store changed: %s", d)
			}
			if err := s.AuditReachability(); err != nil {
				t.Error(err)
			}
			if tc.want == storage.ErrInjected && lane.Now() == start {
				t.Error("the writes that landed before the fault cost the lane nothing")
			}
			if err := put(); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if err := s.AuditReachability(); err != nil {
				t.Error(err)
			}
			s.PutManifest(&Manifest{Group: 1, Epoch: 3, Prev: 2, Records: []RecordKey{{1, 1, 3}}})
			got := snapshotView(s, 1, 1, 3)
			for idx, want := range pages {
				if !bytes.Equal(got[idx], want) {
					t.Fatalf("page %d reads back wrong after the retry", idx)
				}
			}
		})
	}

	t.Run("out of space", func(t *testing.T) {
		// A device with room for about half the batch: the store's own
		// reserve check refuses first, typed ErrStoreFull.
		clock := storage.NewClock()
		params := storage.ParamsOptaneNVMe
		params.Capacity = dataStart + (held+n/2)*BlockSize
		s := Create(storage.NewMemDevice(params, clock), clock)
		if _, err := s.PutRecord(1, 1, 1, 0, true, []byte("meta"), distinctPages(held, 1), nil); err != nil {
			t.Fatal(err)
		}
		before := snapshotStore(s)
		view := s.WithClock(clock.Lane())
		err := view.Overlapped(func() error {
			_, err := view.PutPages(1, 1, 2, 0, false, []byte("meta2"), newHashedPages(distinctPages(n, 8)), nil)
			return err
		})
		if !errors.Is(err, ErrStoreFull) || !errors.Is(err, storage.ErrOutOfSpace) {
			t.Fatalf("put = %v, want ErrStoreFull wrapping ErrOutOfSpace", err)
		}
		if d := before.differs(snapshotStore(s)); d != "" {
			t.Errorf("out-of-space put left the store changed: %s", d)
		}
		s.mu.Lock()
		sorted := slices.IsSorted(s.freeList)
		s.mu.Unlock()
		if !sorted {
			t.Error("blocks given back by the unwind are not in offset order")
		}
		if err := s.AuditReachability(); err != nil {
			t.Error(err)
		}
	})
}

// TestContentHashIsTheBlocksHash pins the one hashing rule: a page is
// hashed as the block it is stored as — zero-padded when shorter — by
// ContentHash, by the put path that computes hashes and by the one that
// is handed them; all three agree with what a verified read checks.
func TestContentHashIsTheBlocksHash(t *testing.T) {
	short := []byte("short page")
	block := make([]byte, BlockSize)
	copy(block, short)
	if ContentHash(short) != ContentHash(block) {
		t.Fatal("a short page and its zero-padded block hash differently")
	}
	long := append(append([]byte(nil), block...), 0xFF)
	if ContentHash(long) != ContentHash(block) {
		t.Fatal("a page longer than a block is not hashed as the block that is stored")
	}
	s := testStore(t)
	computed, err := s.PutRecord(1, 1, 1, 0, true, nil, map[int64][]byte{0: short}, nil)
	if err != nil {
		t.Fatal(err)
	}
	supplied, err := s.PutPages(1, 2, 1, 0, true, nil, newHashedPages(map[int64][]byte{0: short}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Pages[0] != supplied.Pages[0] || computed.Pages[0].Hash != ContentHash(block) {
		t.Fatalf("computed %x, supplied %x, rule %x", computed.Pages[0].Hash, supplied.Pages[0].Hash, ContentHash(block))
	}
	if s.Stats().DedupHits != 1 {
		t.Errorf("the second put of the same short page made %d dedup hits, want 1", s.Stats().DedupHits)
	}
	got, err := s.ReadBlock(supplied.Pages[0])
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("verified read of the padded block: %v", err)
	}
}

// wrongSum hands the store a page under another page's hash.
type wrongSum struct{ hashedPages }

func (w *wrongSum) Page(i int) (int64, []byte, Hash) {
	idx, data, _ := w.hashedPages.Page(i)
	return idx, data, ContentHash([]byte("something else"))
}

// TestSuppliedHashesCheckedUnderRace: the store takes a caller's hashes
// on trust in release builds and re-computes every one of them under
// the race detector, where a wrong one is a panic.
func TestSuppliedHashesCheckedUnderRace(t *testing.T) {
	s := testStore(t)
	bad := &wrongSum{*newHashedPages(map[int64][]byte{0: page(1)})}
	defer func() {
		if r := recover(); (r != nil) != verifySuppliedHashes {
			t.Fatalf("verifySuppliedHashes=%v, put under a wrong hash: recovered %v", verifySuppliedHashes, r)
		}
	}()
	s.PutPages(1, 1, 1, 0, true, nil, bad, nil)
}

// TestPlacementFollowsBatchOrder: block placement is decided by the
// order of the batch and the history of the store — not by a map
// iteration, neither the caller's nor the one a drop releases blocks
// in. The same history twice gives the same offset for every page of
// every record, drops, reuse and a failed put included.
func TestPlacementFollowsBatchOrder(t *testing.T) {
	history := func() map[RecordKey]map[int64]int64 {
		s, fd := faultStore(storage.FaultConfig{Seed: 9})
		for epoch := uint64(1); epoch <= 12; epoch++ {
			if epoch == 7 {
				fd.FailOps(storage.FaultWrite, fd.OpCount()+20, fd.OpCount()+20)
			}
			for attempt := 0; ; attempt++ {
				_, err := s.PutRecord(1, 1, epoch, 0, epoch == 1, []byte("meta"), distinctPages(48, byte(epoch)), nil)
				if err == nil {
					break
				}
				if attempt > 0 {
					t.Fatal(err)
				}
			}
			s.PutManifest(&Manifest{Group: 1, Epoch: epoch, Prev: epoch - 1, Records: []RecordKey{{1, 1, epoch}}})
			if err := s.TrimHistory(1, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[RecordKey]map[int64]int64)
		s.mu.Lock()
		defer s.mu.Unlock()
		for key, rec := range s.records {
			out[key] = make(map[int64]int64, len(rec.Pages))
			for idx, ref := range rec.Pages {
				out[key][idx] = ref.Off
			}
		}
		return out
	}
	first := history()
	for run := 0; run < 4; run++ {
		again := history()
		if len(again) != len(first) {
			t.Fatalf("run %d holds %d records, first run %d", run, len(again), len(first))
		}
		for key, pages := range first {
			if !maps.Equal(again[key], pages) {
				t.Fatalf("run %d placed record %+v differently from the first run", run, key)
			}
		}
	}
}
