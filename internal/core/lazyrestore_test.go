package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// heapPage is what touchedHeap leaves at the start of heap page pg.
func heapPage(pg int) []byte { return []byte{byte(pg), byte(pg >> 8), 0x77} }

// TestLazyRestoreSurvivesHistoryTrim: the HistoryLimit trim honours the
// pins the space reclaimer honours. A lazy restore pages from the epoch
// it restored at for as long as it lives; trimming that epoch from
// under it used to surface, four checkpoints later, as "block content
// hash mismatch" on a demand-paged read (the freed blocks had been
// rewritten by the source's newer epochs).
func TestLazyRestoreSurvivesHistoryTrim(t *testing.T) {
	const pages = 64
	r := newRig(t)
	r.store.HistoryLimit = 2
	p := spawnCounter(t, r)
	touchedHeap(t, p, pages)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	durable := func() {
		t.Helper()
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	durable()
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite every page of the source, four epochs running.
	fill := make([]byte, vm.PageSize)
	for round := 1; round <= 4; round++ {
		for i := range fill {
			fill[i] = byte(0xA0 + round)
		}
		for pg := 0; pg < pages; pg++ {
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), fill); err != nil {
				t.Fatal(err)
			}
		}
		durable()
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	buf := make([]byte, 3)
	for pg := 0; pg < pages; pg++ {
		if err := np.ReadMem(np.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			t.Fatalf("page %d of the restored process: %v", pg, err)
		}
		if !bytes.Equal(buf, heapPage(pg)) {
			t.Fatalf("page %d restored as % x, want % x", pg, buf, heapPage(pg))
		}
	}
	// The restore's epoch is still there, beside the newest; what the
	// trim dropped are the unpinned epochs in between.
	if got := r.store.Epochs(g.ID); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("store holds epochs %v, want [1 5]", got)
	}
	// With the restore gone, so is the pin: the next flush trims to the
	// limit again.
	r.k.Exit(np, 0)
	if err := r.k.Reap(np); err != nil {
		t.Fatal(err)
	}
	r.o.Unpersist(ng)
	if err := p.WriteMem(p.HeapBase(), fill[:8]); err != nil {
		t.Fatal(err)
	}
	durable()
	if got := r.store.Epochs(g.ID); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("store holds epochs %v after the restore exited, want [5 6]", got)
	}
}

// TestLazyRestoreVanishedEpochIsLoud: a page the image never held
// zero-fills; a page the source can no longer locate — its epoch was
// dropped behind the pin's back — is a typed error to the faulting
// thread, on the read path and the write path. It must never read as
// zeros.
func TestLazyRestoreVanishedEpochIsLoud(t *testing.T) {
	const held, mapped = 16, 24
	r := newRig(t)
	p := spawnCounter(t, r)
	touchedHeap(t, p, held)
	if _, err := p.Sbrk((mapped - held) * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	for i := 0; i < 2; i++ {
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	ng, _, err := r.o.Restore(g, 1, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	at := func(pg int) vm.Addr { return np.HeapBase() + vm.Addr(pg*vm.PageSize) }
	buf := []byte{1, 2, 3}
	if err := np.ReadMem(at(held+2), buf); err != nil || !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("a page the image never held read as % x, %v; want zeros", buf, err)
	}
	if err := np.ReadMem(at(3), buf); err != nil || !bytes.Equal(buf, heapPage(3)) {
		t.Fatalf("page 3 read as % x, %v", buf, err)
	}

	if err := r.store.Store().DropEpoch(g.ID, 1); err != nil {
		t.Fatal(err)
	}
	resident := r.k.Mem.Resident()
	for name, access := range map[string]func(vm.Addr, []byte) error{"read": np.ReadMem, "write": np.WriteMem} {
		for _, pg := range []int{5, held + 3} {
			err := access(at(pg), buf)
			if !errors.Is(err, ErrBackendDown) || !errors.Is(err, objstore.ErrNoManifest) {
				t.Errorf("%s of page %d through a dropped epoch: %v, want ErrBackendDown wrapping ErrNoManifest", name, pg, err)
			}
		}
	}
	if got := r.k.Mem.Resident(); got != resident {
		t.Errorf("failed faults left %d frames resident, were %d", got, resident)
	}
	// What was paged in before is the process's own.
	if err := np.ReadMem(at(3), buf); err != nil || !bytes.Equal(buf, heapPage(3)) {
		t.Fatalf("resident page 3 read as % x, %v", buf, err)
	}
}

// lazyRestoreOp builds a machine holding one process with `resident`
// heap pages, durable on the store as a full checkpoint and four
// 64-page incrementals, and returns the Table 4 operation on it:
// restore lazily, demand-page 64 pages, tear the restored process down.
// The pages touched are the same whatever the size of the image.
func lazyRestoreOp(tb testing.TB, resident int) func() {
	const touch = 64
	r := newRig(nil)
	tb.Cleanup(r.o.Close)
	p, err := r.k.Spawn(0, "counter")
	if err != nil {
		tb.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	touchedHeap(tb, p, resident)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	for epoch := 0; epoch < 5; epoch++ {
		for j := 0; j < touch && epoch > 0; j++ {
			pg := (j*(resident/touch) + epoch) % resident
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize)+8, []byte{byte(epoch)}); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			tb.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			tb.Fatal(err)
		}
	}
	buf := make([]byte, 3)
	return func() {
		ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
		if err != nil {
			tb.Fatal(err)
		}
		np, _ := r.k.Process(ng.PIDs()[0])
		for j := 0; j < touch; j++ {
			pg := j * (1024 / touch)
			if err := np.ReadMem(np.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
				tb.Fatal(err)
			}
			if !bytes.Equal(buf, heapPage(pg)) {
				tb.Fatalf("page %d restored as % x", pg, buf)
			}
		}
		r.k.Exit(np, 0)
		if err := r.k.Reap(np); err != nil {
			tb.Fatal(err)
		}
		r.o.Unpersist(ng)
	}
}

// TestLazyRestoreAllocsFlat is the count guard of the restore data
// path: a lazy restore that touches 64 pages allocates the same number
// of objects from a 1,024-page image as from a 16,384-page one, and its
// bytes grow by at most 48 per extra page. Those bytes are one buffer:
// objstore.ChargeIndexRead bills the cold read of the persisted index —
// 40 bytes a page — through a real device read into a buffer it throws
// away, because storage.Device has no read without a destination.
// Nothing else a restore allocates is sized by the image.
func TestLazyRestoreAllocsFlat(t *testing.T) {
	const small, large, runs = 1024, 16384, 20
	measure := func(resident int) (allocs, bytes float64) {
		op := lazyRestoreOp(t, resident)
		op() // warm: recycled frames on the free list, the page-count memo
		allocs = testing.AllocsPerRun(runs, op)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs1k, bytes1k := measure(small)
	allocs16k, bytes16k := measure(large)
	t.Logf("per restore: %v allocs, %.0f B at %d pages; %v allocs, %.0f B at %d pages",
		allocs1k, bytes1k, small, allocs16k, bytes16k, large)
	if d := allocs16k - allocs1k; d > 0.05*allocs1k || -d > 0.05*allocs1k {
		t.Errorf("a lazy restore allocates %v objects at %d resident pages and %v at %d: not flat",
			allocs1k, small, allocs16k, large)
	}
	if perPage := (bytes16k - bytes1k) / (large - small); perPage > 48 {
		t.Errorf("a lazy restore allocates %.1f more bytes per extra resident page, want at most 48", perPage)
	}
}

// BenchmarkLazyRestore is the restore data path end to end — lazy
// restore, 64 demand-paged pages, teardown — at two image sizes. The
// before/after table is in EXPERIMENTS.md "Restore data path".
func BenchmarkLazyRestore(b *testing.B) {
	for _, tc := range []struct {
		name     string
		resident int
	}{{"1k", 1024}, {"16k", 16384}} {
		b.Run(fmt.Sprintf("resident=%s", tc.name), func(b *testing.B) {
			op := lazyRestoreOp(b, tc.resident)
			op()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// heapHolds checks that the first `pages` heap pages of p are what
// touchedHeap wrote.
func heapHolds(t *testing.T, p *kernel.Process, pages int) {
	t.Helper()
	got, want := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
	for pg := 0; pg < pages; pg++ {
		copy(want, heapPage(pg))
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), got); err != nil {
			t.Fatalf("heap page %d: %v", pg, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("heap page %d starts % x, want % x", pg, got[:4], want[:4])
		}
	}
}

// TestFirstBarrierAfterLazyRestore: the first barrier of a lazily
// restored group is full, and costs what a full barrier over what it
// holds resident costs: it names the pages it inherits from the store
// and reads none of them, so no device byte is read between stop and
// resume. (It is taken with SkipFlush so that no flush can read in that
// window; Sync then flushes it.) Its flush reads them, and finds every
// block in the store already: no data block is written. The epoch it
// makes durable stands on its own: it restores bit for bit after the
// origin group is gone and every epoch of its lineage dropped.
func TestFirstBarrierAfterLazyRestore(t *testing.T) {
	for _, pages := range []int{2048, 16384} {
		t.Run(fmt.Sprintf("pages=%d", pages), func(t *testing.T) {
			r := newRig(t)
			p := spawnCounter(t, r)
			touchedHeap(t, p, pages)
			g, _ := r.o.Persist("app", p)
			r.o.Attach(g, r.store)
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
			if err := r.o.Sync(g); err != nil {
				t.Fatal(err)
			}
			ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			st, dev := r.store.Store(), r.store.Store().Device()
			blocks, reads := st.Stats().BlockBytes, dev.Stats().Reads
			first, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: true})
			if err != nil || !first.Full {
				t.Fatalf("first barrier after the restore: %v, full=%v", err, first.Full)
			}
			if n := dev.Stats().Reads - reads; n != 0 {
				t.Fatalf("the first barrier after a lazy restore read the device %d times", n)
			}
			if err := r.o.Sync(ng); err != nil {
				t.Fatal(err)
			}
			if got := st.Stats().BlockBytes; got != blocks {
				t.Fatalf("its flush wrote data blocks: BlockBytes %d → %d", blocks, got)
			}
			steady, err := r.o.Checkpoint(ng, CheckpointOpts{Full: true})
			if err != nil {
				t.Fatal(err)
			}
			if first.StopTime*100 > steady.StopTime*105 {
				t.Fatalf("first barrier after the restore stopped %v, a full barrier over the same resident set %v",
					first.StopTime, steady.StopTime)
			}
			if err := r.o.Sync(ng); err != nil {
				t.Fatal(err)
			}

			r.k.Exit(p, 0)
			if err := r.k.Reap(p); err != nil {
				t.Fatal(err)
			}
			r.o.Unpersist(g)
			for _, e := range r.store.Epochs(g.ID) {
				if err := st.DropEpoch(g.ID, e); err != nil {
					t.Fatal(err)
				}
			}
			back, _, err := r.o.Restore(ng, first.Epoch, RestoreOpts{})
			if err != nil {
				t.Fatal(err)
			}
			bp, _ := r.k.Process(back.PIDs()[0])
			heapHolds(t, bp, pages)
		})
	}
}

// TestRollbackToUnflushedPostRestoreEpoch: a rollback to a lazily
// restored group's first epoch before any flush of it has succeeded —
// the barrier taken with SkipFlush, or its flush stalled on a store it
// could not read — reads the pages that epoch inherits through resolve,
// and the rolled-back process holds the heap the barrier saw.
func TestRollbackToUnflushedPostRestoreEpoch(t *testing.T) {
	const pages = 64
	for _, stalled := range []bool{false, true} {
		t.Run(fmt.Sprintf("stalled=%v", stalled), func(t *testing.T) {
			r := newFlushRig(t, pages, 0)
			ng, _, err := r.o.Restore(r.g, 0, RestoreOpts{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			np, _ := r.k.Process(ng.PIDs()[0])
			if stalled {
				r.fd.Down()
			}
			if _, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: !stalled}); err != nil {
				t.Fatal(err)
			}
			if stalled {
				r.o.Drain(ng)
				r.fd.Up()
			}
			if ng.Durable() == ng.Epoch() {
				t.Fatalf("epoch %d is durable before the rollback", ng.Epoch())
			}
			if err := np.WriteMem(np.HeapBase()+7*vm.PageSize, []byte("after the barrier")); err != nil {
				t.Fatal(err)
			}
			back, notice, err := r.api.Rollback(np)
			if err != nil {
				t.Fatal(err)
			}
			if notice.ToEpoch != ng.Epoch() {
				t.Fatalf("rolled back to epoch %d, want %d", notice.ToEpoch, ng.Epoch())
			}
			bp, _ := r.k.Process(back.PIDs()[0])
			heapHolds(t, bp, pages)
		})
	}
}

// TestRollbackWhileRestoreSourceDown: a rollback to a lazily restored
// group's first epoch reads the pages that epoch inherits from the store
// it was restored from. With that store down it cannot, and it fails
// with a typed error before it touches the running incarnation: the
// process keeps running with what it wrote after the barrier. With the
// store back the same rollback goes through, bit for bit.
func TestRollbackWhileRestoreSourceDown(t *testing.T) {
	const pages = 64
	r := newFlushRig(t, pages, 0)
	ng, _, err := r.o.Restore(r.g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if _, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	after := []byte("after the barrier")
	if err := np.WriteMem(np.HeapBase()+7*vm.PageSize, after); err != nil {
		t.Fatal(err)
	}
	r.fd.Down()
	if _, _, err := r.api.Rollback(np); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("rollback with the restore source down: %v, want ErrBackendDown", err)
	}
	if _, err := r.k.Process(np.PID); err != nil || !slices.Equal(ng.PIDs(), []int{np.PID}) {
		t.Fatalf("a failed rollback took the running process: %v, group pids %v", err, ng.PIDs())
	}
	got := make([]byte, len(after))
	if err := np.ReadMem(np.HeapBase()+7*vm.PageSize, got); err != nil || !bytes.Equal(got, after) {
		t.Fatalf("after a failed rollback the process reads % x, %v; want what it wrote", got, err)
	}
	r.fd.Up()
	back, notice, err := r.api.Rollback(np)
	if err != nil {
		t.Fatal(err)
	}
	if notice.ToEpoch != ng.Epoch() {
		t.Fatalf("rolled back to epoch %d, want %d", notice.ToEpoch, ng.Epoch())
	}
	bp, _ := r.k.Process(back.PIDs()[0])
	heapHolds(t, bp, pages)
}

// TestRestoreAttachesWhatAnImageHoldsByName: a restore pages what an
// image holds by name from where it is held, and reads none of it up
// front. Both images that hold pages by name — a lazily loaded one, and
// the unflushed SkipFlush first epoch of the group restored from it —
// restore lazily without a device read before the first fault, and
// their heaps hold. The group restored from the second pages from the
// store epoch the first was loaded at, and pins it itself: that epoch
// survives the HistoryLimit trims of its lineage after the group it came
// from is gone.
func TestRestoreAttachesWhatAnImageHoldsByName(t *testing.T) {
	const pages = 64
	r := newRig(t)
	r.store.HistoryLimit = 2
	p := spawnCounter(t, r)
	touchedHeap(t, p, pages)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	durable := func() {
		t.Helper()
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	durable()
	dev := r.store.Store().Device()
	restore := func(img *Image, what string) (*Group, *kernel.Process) {
		t.Helper()
		reads := dev.Stats().Reads
		ng, _, err := r.o.RestoreImage(img, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := dev.Stats().Reads - reads; n != 0 {
			t.Fatalf("the lazy restore of %s read the device %d times before its first fault", what, n)
		}
		np, err := r.k.Process(ng.PIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		return ng, np
	}
	loaded, _, err := r.store.LoadLazy(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	ng, np := restore(loaded, "a lazily loaded image")
	if _, err := r.o.Checkpoint(ng, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	ng2, np2 := restore(ng.LastImage(), "an unflushed epoch holding its pages by name")
	heapHolds(t, np, pages)

	r.k.Exit(np, 0)
	if err := r.k.Reap(np); err != nil {
		t.Fatal(err)
	}
	r.o.Unpersist(ng)
	fill := make([]byte, vm.PageSize)
	for round := 1; round <= 4; round++ {
		for i := range fill {
			fill[i] = byte(0xA0 + round)
		}
		for pg := 0; pg < pages; pg++ {
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), fill); err != nil {
				t.Fatal(err)
			}
		}
		durable()
	}
	if got := r.store.Epochs(g.ID); len(got) != 2 || got[0] != loaded.Epoch {
		t.Fatalf("store holds epochs %v of the origin lineage, want epoch %d and the newest", got, loaded.Epoch)
	}
	heapHolds(t, np2, pages)
	r.o.Unpersist(ng2)
}

// TestClaimAdoptsOnce: of the restores that claim one lazily loaded
// image's store source at once, exactly one adopts it; every other gets
// a source of its own over the same store, view, pin and peers, so each
// restored group pins the epoch it pages from itself.
func TestClaimAdoptsOnce(t *testing.T) {
	r := newFlushRig(t, 16, 0)
	img, _, err := r.store.LoadLazy(r.g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	img.AddBlockPeer(r.store)
	var src *lazyPageSource
	for _, mi := range img.Memory {
		if mi.Inherit != nil {
			src = mi.Inherit
		}
	}
	got := make([]*lazyPageSource, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = src.claim(r.o)
		}(i)
	}
	wg.Wait()
	adopted := 0
	for _, c := range got {
		switch {
		case c == src:
			adopted++
		case c.o != r.o || c.sb != src.sb || c.view != src.view || c.pinGroup != r.g.ID || c.pinEpoch != img.Epoch || c.peerCount() != 1:
			t.Fatalf("a claimed copy pins (%d, %d) with %d peers, or names another store or view; want the source's (%d, %d), 1 peer",
				c.pinGroup, c.pinEpoch, c.peerCount(), src.pinGroup, src.pinEpoch)
		}
	}
	if adopted != 1 {
		t.Fatalf("%d restores adopted the source, want exactly one", adopted)
	}
}
