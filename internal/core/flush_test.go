package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file holds the guards of the flush data path: an epoch goes to
// the store as one ordered batch with the image's own page hashes, its
// device writes overlap at the queue depth, and none of that allocates
// by the page beyond what the store's index needs.

// flushRig is one process with `resident` heap pages whose first full
// checkpoint is durable on a 4×Optane array behind a fault device.
// next dirties `dirty` pages with contents no epoch has seen and
// returns the (full or incremental) image taken then, unflushed; the
// caller flushes it and releases it.
type flushRig struct {
	*rig
	fd   *storage.FaultDevice
	g    *Group
	p    *kernel.Process
	next func(full bool) *Image
}

func newFlushRig(tb testing.TB, resident, dirty int) *flushRig {
	tb.Helper()
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	fd := storage.NewFaultDevice(storage.NewOptaneArray(4, clock), clock, storage.FaultConfig{Seed: 1})
	r := &flushRig{
		rig: &rig{clock: clock, k: k, o: NewOrchestrator(k),
			store: NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)},
		fd: fd,
	}
	r.api = NewAPI(r.o)
	tb.Cleanup(r.o.Close)
	var err error
	if r.p, err = k.Spawn(0, "counter"); err != nil {
		tb.Fatal(err)
	}
	r.p.SetProgram(&counter{addr: r.p.HeapBase()})
	touchedHeap(tb, r.p, resident)
	r.g, _ = r.o.Persist("app", r.p)
	r.o.Attach(r.g, r.store)
	if _, err := r.o.Checkpoint(r.g, CheckpointOpts{}); err != nil {
		tb.Fatal(err)
	}
	if err := r.o.Sync(r.g); err != nil {
		tb.Fatal(err)
	}
	round := 0
	fill := make([]byte, vm.PageSize)
	r.next = func(full bool) *Image {
		round++
		for pg := 0; pg < dirty; pg++ {
			for i := 0; i < 16; i++ {
				fill[i] = byte(round >> (8 * (i % 4)))
			}
			fill[16], fill[17] = byte(pg), byte(pg>>8)
			if err := r.p.WriteMem(r.p.HeapBase()+vm.Addr(pg*vm.PageSize), fill); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := r.o.Checkpoint(r.g, CheckpointOpts{Full: full, SkipFlush: true}); err != nil {
			tb.Fatal(err)
		}
		return r.g.LastImage()
	}
	return r
}

// flush delivers img the way the pipeline does — on a lane view — and
// returns what the lane was charged.
func (r *flushRig) flush(tb testing.TB, img *Image) time.Duration {
	tb.Helper()
	d, err := r.store.WithLane(r.clock.Lane()).Flush(img, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestFlushOverlapsAtQueueDepth: the writes of one epoch cost the flush
// lane storage.Batch of all of them at the device's queue depth, hash
// costs on top; pages the store already holds cost no device time; a
// whole 4,096-page record is one window; the device sees one write per
// new block and per metadata extent, one call each, as it always did; a
// direct Flush on the backend costs what the pipeline's lane view pays;
// and a flush that dies half way — on an injected write fault or out of
// space — leaves the store consistent and without the epoch, so the
// retry is a clean delivery. (What a failed put leaves inside the store
// is objstore's TestOverlappedPutFailureLeavesStoreAsFound.)
func TestFlushOverlapsAtQueueDepth(t *testing.T) {
	const resident, dirty = 4096, 256
	r := newFlushRig(t, resident, dirty)
	st := r.store.Store()
	params, member := st.Device().Params(), storage.ParamsOptaneNVMe
	if params.QueueDepth != 64 {
		t.Fatalf("4×Optane array reports queue depth %d, want 64", params.QueueDepth)
	}

	// measure flushes img through flush and returns what it was charged,
	// how many writes the device saw, and what they cost one at a time.
	r.fd.SetLogging(true)
	measure := func(img *Image, flush func(*Image) time.Duration) (charged time.Duration, writes int, serial time.Duration) {
		t.Helper()
		ops := r.fd.OpCount()
		charged = flush(img)
		for _, op := range r.fd.Log() {
			if op.N <= ops {
				continue
			}
			if op.Kind != "write" || op.Err {
				t.Fatalf("flush issued op %+v, want successful single writes only", op)
			}
			writes++
			// Each write lands on one member at that member's bandwidth.
			serial += member.Latency + time.Duration(int64(op.Len)*int64(time.Second)/member.WriteBW)
		}
		return charged, writes, serial
	}
	onLane := func(img *Image) time.Duration { return r.flush(t, img) }
	want := func(img *Image, writes int, serial time.Duration) time.Duration {
		return time.Duration(img.PageCount())*storage.DefaultCosts.HashPage +
			storage.Batch(params, writes, serial/time.Duration(writes))
	}
	extents := func(img *Image) int {
		n := len(img.Memory) // a VM object's record always carries metadata
		for _, m := range img.Meta {
			if len(m.Data) > 0 {
				n++
			}
		}
		return n
	}

	img := r.next(false)
	before := st.Stats()
	charged, writes, serial := measure(img, onLane)
	after := st.Stats()
	if w := want(img, writes, serial); charged != w {
		t.Errorf("flush of %d pages in %d writes was charged %v, want %v (one write at a time: %v)",
			img.PageCount(), writes, charged, w, time.Duration(img.PageCount())*storage.DefaultCosts.HashPage+serial)
	}
	newBlocks := after.Blocks - before.Blocks
	if newBlocks < dirty || after.DedupHits != before.DedupHits {
		t.Errorf("flush of %d never-seen pages: %d new blocks, %d dedup hits", dirty, newBlocks, after.DedupHits-before.DedupHits)
	}
	if w := newBlocks + extents(img); writes != w {
		t.Errorf("flush drew %d device operations, want %d new blocks + %d metadata extents", writes, newBlocks, extents(img))
	}

	// The same epoch delivered again — the pipeline's retry — dedups
	// every page: hash cost for each, device time for the extents only.
	charged, writes, serial = measure(img, onLane)
	if writes != extents(img) {
		t.Errorf("re-delivery drew %d device operations, want the %d metadata extents only", writes, extents(img))
	}
	if w := want(img, writes, serial); charged != w {
		t.Errorf("re-delivery was charged %v, want %v", charged, w)
	}
	if st.Stats().Blocks != after.Blocks {
		t.Errorf("re-delivery changed the block count %d → %d", after.Blocks, st.Stats().Blocks)
	}
	img.Release(r.k.Mem)

	// A direct call on the backend itself runs on a lane of its own and
	// merges it into the caller's clock: same charge, same writes.
	img = r.next(false)
	start := r.clock.Now()
	charged, writes, serial = measure(img, func(img *Image) time.Duration {
		d, err := r.store.Flush(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
	if w := want(img, writes, serial); charged != w || r.clock.Now()-start != w {
		t.Errorf("direct flush was charged %v and moved the clock by %v, want %v", charged, r.clock.Now()-start, w)
	}
	img.Release(r.k.Mem)

	r.fd.SetLogging(false)

	// A full record of 4,096 never-seen pages is still one window.
	big := newFlushRig(t, resident, resident)
	big.fd.SetLogging(true)
	r, st = big, big.store.Store()
	full := r.next(true)
	if !full.Full || full.PageCount() < resident {
		t.Fatalf("full image: Full=%v, %d pages, want at least %d", full.Full, full.PageCount(), resident)
	}
	charged, writes, serial = measure(full, onLane)
	if w := want(full, writes, serial); charged != w || writes < resident {
		t.Errorf("full flush of %d pages in %d writes was charged %v, want %v", full.PageCount(), writes, charged, w)
	}
	if one := time.Duration(full.PageCount())*storage.DefaultCosts.HashPage + serial; charged*16 > one {
		t.Errorf("full flush cost %v overlapped and %v one write at a time: not overlapped", charged, one)
	}
	full.Release(r.k.Mem)

	// Failures: the 100th write of the flush hits an injected fault; the
	// device is full from the first write on.
	for _, tc := range []struct {
		name string
		arm  func(at int64)
		want error
	}{
		{"injected", func(at int64) { r.fd.FailOps(storage.FaultWrite, at, at) }, storage.ErrInjected},
		{"enospc", func(int64) { r.fd.SetFull(true) }, storage.ErrOutOfSpace},
	} {
		img := r.next(false)
		blocks, epochs := st.Stats().Blocks, len(r.store.Epochs(r.g.ID))
		tc.arm(r.fd.OpCount() + 100)
		lane := r.clock.Lane()
		began := lane.Now()
		_, err := r.store.WithLane(lane).Flush(img, nil)
		r.fd.ClearScripts()
		r.fd.SetFull(false)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: flush = %v, want %v", tc.name, err, tc.want)
		}
		if err := st.AuditReachability(); err != nil {
			t.Errorf("%s: after the failed flush: %v", tc.name, err)
		}
		if got := len(r.store.Epochs(r.g.ID)); got != epochs {
			t.Errorf("%s: failed flush left %d epochs, were %d", tc.name, got, epochs)
		}
		if tc.name == "injected" && lane.Now() == began {
			t.Errorf("%s: the writes that landed before the fault cost the lane nothing", tc.name)
		}
		r.flush(t, img) // the retry is a clean delivery
		if _, err := st.Manifest(r.g.ID, img.Epoch); err != nil {
			t.Errorf("%s: retried flush: %v", tc.name, err)
		}
		if err := st.AuditReachability(); err != nil {
			t.Errorf("%s: after the retry: %v", tc.name, err)
		}
		if got := st.Stats().Blocks - blocks; got < dirty || got > img.PageCount() {
			t.Errorf("%s: failed flush + retry added %d blocks for %d pages", tc.name, got, img.PageCount())
		}
		img.Release(r.k.Mem)
	}
}

// TestFlushPlacementIsSeedDetermined: the workload and its seed decide
// the order of every manifest's records and the device offset of every
// page of every record — through the pipeline, history trimming and
// block reuse included. Nothing follows a map iteration: the same run
// twice in one process places everything the same, under the same
// object IDs (each machine mints its own).
func TestFlushPlacementIsSeedDetermined(t *testing.T) {
	type placed struct {
		oid   uint64
		pages map[int64]int64 // page index → device offset
	}
	run := func() [][]placed {
		r := newRig(t)
		defer r.o.Close()
		r.store.HistoryLimit = 3
		p := spawnCounter(t, r)
		touchedHeap(t, p, 96)
		g, _ := r.o.Persist("app", p)
		r.o.Attach(g, r.store)
		rng := rand.New(rand.NewSource(18))
		for epoch := 0; epoch < 10; epoch++ {
			for i := 0; i < 24 && epoch > 0; i++ {
				at := p.HeapBase() + vm.Addr(rng.Intn(96)*vm.PageSize+rng.Intn(64))
				if err := p.WriteMem(at, []byte{byte(epoch), byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.k.Run(3); err != nil { // the stack moves too
				t.Fatal(err)
			}
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
			if err := r.o.Sync(g); err != nil {
				t.Fatal(err)
			}
		}
		st := r.store.Store()
		var out [][]placed
		for _, m := range st.Manifests(g.ID) {
			var recs []placed
			for _, key := range m.Records {
				rec, err := st.GetRecord(key.Group, key.OID, key.Epoch)
				if err != nil {
					t.Fatal(err)
				}
				pl := placed{oid: key.OID, pages: make(map[int64]int64, len(rec.Pages))}
				for _, p := range rec.Pages {
					pl.pages[p.Idx] = p.Ref.Off
				}
				recs = append(recs, pl)
			}
			out = append(out, recs)
		}
		return out
	}
	first := run()
	if len(first) != 3 {
		t.Fatalf("store holds %d epochs, want the 3 HistoryLimit keeps", len(first))
	}
	for n := 0; n < 3; n++ {
		again := run()
		for e := range first {
			if len(again[e]) != len(first[e]) {
				t.Fatalf("run %d: manifest %d lists %d records, first run %d", n, e, len(again[e]), len(first[e]))
			}
			for i, want := range first[e] {
				got := again[e][i]
				if got.oid != want.oid || !maps.Equal(got.pages, want.pages) {
					t.Fatalf("run %d: manifest %d record %d (object %#x) placed differently: object %#x, %d pages, first run %d",
						n, e, i, want.oid, got.oid, len(got.pages), len(want.pages))
				}
			}
		}
	}
}

// sameHeap compares the first `pages` heap pages of two processes.
func sameHeap(t *testing.T, a, b *kernel.Process, pages int) {
	t.Helper()
	pa, pb := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
	for pg := 0; pg < pages; pg++ {
		at := vm.Addr(pg * vm.PageSize)
		if err := a.ReadMem(a.HeapBase()+at, pa); err != nil {
			t.Fatal(err)
		}
		if err := b.ReadMem(b.HeapBase()+at, pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("heap page %d differs", pg)
		}
	}
}

// TestFailedFetchFailsTheFlushNotTheBarrier: a page of a lazily restored
// process that has never been faulted in lives in the store only. A full
// checkpoint of that process names the page and leaves the read to the
// flush, so with the store unable to produce it the barrier still
// succeeds and the flush fails: typed, the durable frontier where it
// was, the process running on with its resident pages intact. An eager
// mapping's restore must fail, not carry on with a zero page in its
// place. With the device back, Sync makes the epoch durable, and what it
// made durable restores bit for bit.
func TestFailedFetchFailsTheFlushNotTheBarrier(t *testing.T) {
	const pages = 48
	r := newFlushRig(t, pages, 0)
	ng, _, err := r.o.Restore(r.g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	// Fault a few pages in and dirty one: the rest stays in the source.
	if err := np.WriteMem(np.HeapBase()+5*vm.PageSize, []byte("dirtied after the restore")); err != nil {
		t.Fatal(err)
	}
	epoch, durable, held := ng.Epoch(), ng.Durable(), len(r.store.Epochs(ng.ID))

	r.fd.Down()
	bd, err := r.o.Checkpoint(ng, CheckpointOpts{})
	if err != nil || !bd.Full || ng.Epoch() != epoch+1 {
		t.Fatalf("full checkpoint over a dead restore source: full=%v, epoch %d→%d, %v; want a full barrier at epoch %d",
			bd.Full, epoch, ng.Epoch(), err, epoch+1)
	}
	if err := r.o.Sync(ng); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("Sync of an epoch whose inherited pages cannot be read = %v, want ErrBackendDown", err)
	}
	if ng.Durable() != durable || len(r.store.Epochs(ng.ID)) != held {
		t.Fatalf("failed flush moved the group: durable %d→%d, store epochs %d→%d",
			durable, ng.Durable(), held, len(r.store.Epochs(ng.ID)))
	}
	// The process is running again and its resident pages are intact.
	buf := make([]byte, 25)
	if err := np.ReadMem(np.HeapBase()+5*vm.PageSize, buf); err != nil || string(buf) != "dirtied after the restore" {
		t.Fatalf("resident page after the failed flush: %q, %v", buf, err)
	}

	// An eager mapping over the lazy image: every page is fetched at
	// restore time, and the first one that cannot be is the restore's
	// error. Nothing of the half-built process is left behind.
	if err := r.api.MctlPolicy(r.p, r.p.HeapBase(), vm.RestoreEager); err != nil {
		t.Fatal(err)
	}
	r.fd.Up()
	if _, err := r.o.Checkpoint(r.g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(r.g); err != nil {
		t.Fatal(err)
	}
	procs, resident := len(r.k.Processes()), r.k.Mem.Resident()
	r.fd.Down()
	if _, _, err := r.o.Restore(r.g, 0, RestoreOpts{Lazy: true}); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("eager restore from a dead store = %v, want ErrBackendDown", err)
	}
	if got := len(r.k.Processes()); got != procs {
		t.Errorf("failed restore left %d processes, were %d", got, procs)
	}
	if got := r.k.Mem.Resident(); got != resident {
		t.Errorf("failed restore left %d frames resident, were %d", got, resident)
	}

	// Device back: Sync flushes the epoch that failed, and it restores —
	// eagerly, from the store — to the same bytes.
	r.fd.Up()
	if err := r.o.Sync(ng); err != nil {
		t.Fatal(err)
	}
	if ng.Durable() != epoch+1 {
		t.Fatalf("durable epoch %d, want %d", ng.Durable(), epoch+1)
	}
	back, _, err := r.o.Restore(ng, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := r.k.Process(back.PIDs()[0])
	sameHeap(t, np, bp, pages)
}

// TestFailedPlanReadFailsOnlyWhoLacksThePage: a lazily restored group's
// first epoch holds its heap by name in the store it came from, and a
// second, empty store lacks all of it. With every read of the source
// failing, the flush's read plan cannot read what the second store
// lacks: that delivery fails, typed, and the epoch stays owed there,
// while the same store (which lacks nothing) and a memory backend take
// it and it retires. With the reads back, Sync hands the second store
// the epoch, and it restores from that store alone bit for bit.
func TestFailedPlanReadFailsOnlyWhoLacksThePage(t *testing.T) {
	const pages = 48
	r := newFlushRig(t, pages, 0)
	ng, _, err := r.o.Restore(r.g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	mb := NewMemoryBackend(r.k.Mem, 0)
	second := NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsFlashNVMe, r.clock), r.clock), r.k.Mem, r.clock)
	r.o.Attach(ng, mb)
	r.o.Attach(ng, second)
	if _, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	epoch := ng.Epoch()
	r.fd.FailOps(storage.FaultRead, r.fd.OpCount()+1, r.fd.OpCount()+1<<20)
	if err := r.o.Sync(ng); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("Sync with the source's reads failing = %v, want ErrBackendDown from the second store", err)
	}
	if ng.Durable() != epoch || !slices.Contains(r.store.Epochs(ng.ID), epoch) {
		t.Fatalf("durable %d, source store epochs %v: want epoch %d taken by the store that lacks nothing", ng.Durable(), r.store.Epochs(ng.ID), epoch)
	}
	if _, _, err := mb.Load(ng.ID, epoch); err != nil {
		t.Fatalf("the memory backend lacks epoch %d: %v", epoch, err)
	}
	if got := second.Epochs(ng.ID); len(got) != 0 {
		t.Fatalf("the second store took epochs %v with its pages unreadable", got)
	}
	for _, h := range ng.Health() {
		if want := h.Name == second.Name(); (h.Pending == 1) != want {
			t.Fatalf("%s owes %d epochs; only the second store should owe one", h.Name, h.Pending)
		}
	}

	r.fd.ClearScripts()
	if err := r.o.Sync(ng); err != nil {
		t.Fatal(err)
	}
	back, _, err := second.Load(ng.ID, epoch)
	if err != nil {
		t.Fatal(err)
	}
	bk := kernel.NewWith(storage.NewClock(), vm.NewPhysMem(0))
	bg, _, err := NewOrchestrator(bk).RestoreImage(back, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := bk.Process(bg.PIDs()[0])
	sameHeap(t, np, bp, pages)
}

// countingReplica is a second, non-ephemeral backend that asks the image
// for its hashes the way a replica link does.
type countingReplica struct{ pages int }

func (c *countingReplica) Name() string    { return "replica" }
func (c *countingReplica) Ephemeral() bool { return false }
func (c *countingReplica) Flush(img *Image, _ NamedBytes) (time.Duration, error) {
	c.pages += len(img.PageHashes())
	return 0, nil
}
func (c *countingReplica) Load(group, epoch uint64) (*Image, time.Duration, error) {
	return nil, 0, ErrNoImage
}

// TestFlushHashesOnce: a group with a store and a replica computes one
// SHA-256 per page it holds — the image's memo, shared by both backends
// — and the store's put path none: the hashes the sender's side ran are
// PagesHashed() on the image plus PagesHashed in the store's stats.
func TestFlushHashesOnce(t *testing.T) {
	const dirty = 96
	r := newFlushRig(t, 256, dirty)
	rep := &countingReplica{}
	r.o.Attach(r.g, rep)
	for round := 0; round < 3; round++ {
		img := r.next(false)
		held := int64(img.PageCount())
		if got := img.PagesHashed(); got != 0 {
			t.Fatalf("image hashed %d pages before any backend asked", got)
		}
		storeBefore := r.store.Store().Stats().PagesHashed
		seen := rep.pages
		// The image was taken with SkipFlush; Sync delivers such a head
		// to every backend, concurrently.
		if err := r.o.Sync(r.g); err != nil {
			t.Fatal(err)
		}
		if got := r.store.Store().Stats().PagesHashed - storeBefore; got != 0 {
			t.Errorf("round %d: the store hashed %d pages the image had already hashed", round, got)
		}
		if got := img.PagesHashed(); got != held || held < dirty {
			t.Errorf("round %d: %d SHA-256 computations for %d pages held", round, got, held)
		}
		if got := int64(rep.pages - seen); got != held {
			t.Errorf("round %d: the replica saw %d page hashes, image holds %d", round, got, held)
		}
	}
	// And what the store indexed under those hashes restores bit for bit.
	ng, _, err := r.o.Restore(r.g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	want, got := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
	for pg := 0; pg < dirty; pg++ {
		at := vm.Addr(pg * vm.PageSize)
		if err := r.p.ReadMem(r.p.HeapBase()+at, want); err != nil {
			t.Fatal(err)
		}
		if err := np.ReadMem(np.HeapBase()+at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d restored differently from what was flushed", pg)
		}
	}
}

// TestPageHashesParallelLeavesNothingBehind: above hashSpan×2 pages the
// memo is filled on several goroutines; the hashes are the ones the
// serial rule gives, in wire order, and every worker has exited by the
// time PageHashes returns (plus scheduling slack).
func TestPageHashesParallelLeavesNothingBehind(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	r := newFlushRig(t, 8*hashSpan, 8*hashSpan-3) // an uneven split
	img := r.next(false)
	before := snapshotGoroutines()
	pages := img.PageHashes()
	assertNoLeaks(t, before)
	if len(pages) < 8*hashSpan-3 {
		t.Fatalf("memo holds %d pages", len(pages))
	}
	for i, p := range pages {
		if want := objstore.ContentHash(img.Memory[p.ObjID].page(p.Idx)); p.Hash != want {
			t.Fatalf("page %d (object %d index %d) hashed wrongly by the parallel fill", i, p.ObjID, p.Idx)
		}
		if i > 0 && (pages[i-1].ObjID > p.ObjID || pages[i-1].ObjID == p.ObjID && pages[i-1].Idx >= p.Idx) {
			t.Fatalf("memo out of wire order at %d", i)
		}
	}
}

// flushAllocs reports the heap objects and bytes one flush of a
// dirty-page image allocates, the image's capture excluded.
func flushAllocs(t *testing.T, dirty int) (allocs, bytes float64) {
	t.Helper()
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	r := newFlushRig(t, 512, dirty)
	var before, after runtime.MemStats
	for i := -2; i < runs; i++ { // two warm-up flushes
		img := r.next(false)
		lane := r.clock.Lane()
		runtime.ReadMemStats(&before)
		_, err := r.store.WithLane(lane).Flush(img, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		img.Release(r.k.Mem)
		if err := r.store.Store().TrimHistory(r.g.ID, 2, nil); err != nil {
			t.Fatal(err)
		}
		if i >= 0 {
			allocs += float64(after.Mallocs - before.Mallocs)
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	return allocs / runs, bytes / runs
}

// TestFlushAllocs is the count guard of the flush data path. What a
// flush allocates per page is what the store keeps for it — an index
// entry per new block, its slot in the record's page map and in the
// block index — plus the image's 48-byte hash memo entry; the batch
// itself, the overlap accounting and the lane view cost a fixed number
// of objects whatever the size of the epoch.
func TestFlushAllocs(t *testing.T) {
	allocs3, bytes3 := flushAllocs(t, 3)
	allocs256, bytes256 := flushAllocs(t, 256)
	t.Logf("per flush: %v allocs, %.0f B at 3 pages; %v allocs, %.0f B at 256 pages", allocs3, bytes3, allocs256, bytes256)
	if allocs3 > 75 {
		t.Errorf("a 3-page flush allocates %v objects, want at most 75", allocs3)
	}
	if perPage := (allocs256 - allocs3) / 253; perPage > 1.25 {
		t.Errorf("a flush allocates %.2f objects per extra page, want at most 1.25 (one index entry per new block)", perPage)
	}
	if perPage := (bytes256 - bytes3) / 253; perPage > 420 {
		t.Errorf("a flush allocates %.0f bytes per extra page, want at most 420", perPage)
	}
}

// BenchmarkStoreFlush is StoreBackend.Flush alone — an incremental
// image of `dirty` never-seen pages onto a 4×Optane array, on a lane
// view as the pipeline calls it — at the three sizes the scoreboard's
// workloads flush. Capturing the image is outside the timer. The
// before/after table is in EXPERIMENTS.md "Flush data path".
func BenchmarkStoreFlush(b *testing.B) {
	for _, dirty := range []int{3, 256, 4096} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			r := newFlushRig(b, max(dirty, 512), dirty)
			var virtual time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				img := r.next(false)
				b.StartTimer()
				virtual += r.flush(b, img)
				b.StopTimer()
				img.Release(r.k.Mem)
				if err := r.store.Store().TrimHistory(r.g.ID, 2, nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(virtual.Nanoseconds())/1e3/float64(b.N), "vus/op")
		})
	}
}
