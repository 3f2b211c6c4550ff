package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

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
