package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// rig is a complete simulated machine for tests.
type rig struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *Orchestrator
	api   *API
	mem   *MemoryBackend
	store *StoreBackend
}

func newRig(t *testing.T) *rig {
	if t != nil {
		t.Helper()
	}
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	st := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
	return &rig{
		clock: clock,
		k:     k,
		o:     o,
		api:   NewAPI(o),
		mem:   NewMemoryBackend(k.Mem, 16),
		store: NewStoreBackend(st, k.Mem, clock),
	}
}

// counter is a test program that increments a heap counter each step.
type counter struct{ addr vm.Addr }

func (c *counter) ProgName() string { return "counter" }
func (c *counter) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	return e.Bytes()
}
func (c *counter) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(c.addr, b[:]); err != nil {
		return err
	}
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
	v++
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return p.WriteMem(c.addr, b[:])
}

func init() {
	kernel.RegisterProgram("counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &counter{addr: vm.Addr(d.U64())}, nil
	})
}

func spawnCounter(t *testing.T, r *rig) *kernel.Process {
	if t != nil {
		t.Helper()
	}
	p, err := r.k.Spawn(0, "counter")
	if err != nil && t != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	return p
}

func counterValue(p *kernel.Process) uint64 {
	var b [8]byte
	p.ReadMem(p.HeapBase(), b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
}

func TestPersistAndGroups(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.PIDs(); len(got) != 1 || got[0] != p.PID {
		t.Fatalf("pids = %v", got)
	}
	if _, err := r.o.Group(g.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.GroupByName("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.GroupByName("nope"); err != ErrNoGroup {
		t.Fatalf("missing group err = %v", err)
	}
	if r.o.GroupOf(p.PID) != g.ID {
		t.Fatal("resolver does not know the pid")
	}
}

func TestCheckpointRestoreMemoryBackend(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)

	r.k.Run(100) // counter = 100
	if counterValue(p) != 100 {
		t.Fatalf("counter = %d", counterValue(p))
	}
	bd, err := r.o.Checkpoint(g, CheckpointOpts{Name: "at-100"})
	if err != nil {
		t.Fatal(err)
	}
	if !bd.Full {
		t.Fatal("first checkpoint must be full")
	}
	if bd.StopTime <= 0 || bd.MetadataCopy <= 0 || bd.LazyDataCopy <= 0 {
		t.Fatalf("empty breakdown: %+v", bd)
	}

	r.k.Run(50) // counter = 150, diverged from checkpoint

	ng, rbd, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if rbd.Total <= 0 || rbd.MetadataState <= 0 || rbd.MemoryState <= 0 {
		t.Fatalf("restore breakdown: %+v", rbd)
	}
	np, err := r.k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(np); got != 100 {
		t.Fatalf("restored counter = %d, want 100", got)
	}
	// The restored process resumes execution from the checkpoint.
	r.k.Run(1000)
	if got := counterValue(np); got <= 100 {
		t.Fatalf("restored process did not run: %d", got)
	}
}

func TestCheckpointRestoreStoreBackend(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)

	r.k.Run(42)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	ng, bd, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if bd.ObjectStoreRead <= 0 {
		t.Fatal("store restore must account an object store read")
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != 42 {
		t.Fatalf("restored counter = %d, want 42", got)
	}
}

func TestIncrementalCheckpointChain(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	// Touch a large region once so the full checkpoint is big.
	big := make([]byte, 128*vm.PageSize)
	for i := range big {
		big[i] = byte(i)
	}
	p.Sbrk(int64(len(big)) + vm.PageSize)
	p.WriteMem(p.HeapBase()+vm.PageSize, big)

	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)

	full, err := r.o.Checkpoint(g, CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r.k.Run(10) // dirties only the counter page
	incr, err := r.o.Checkpoint(g, CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if incr.Full {
		t.Fatal("second checkpoint should be incremental")
	}
	if incr.PagesCaptured >= full.PagesCaptured/10 {
		t.Fatalf("incremental captured %d pages vs full %d", incr.PagesCaptured, full.PagesCaptured)
	}
	if incr.LazyDataCopy >= full.LazyDataCopy {
		t.Fatalf("incremental data copy %v not faster than full %v", incr.LazyDataCopy, full.LazyDataCopy)
	}
	if incr.StopTime >= full.StopTime {
		t.Fatalf("incremental stop %v not below full stop %v", incr.StopTime, full.StopTime)
	}

	// Restoring the incremental chain yields the complete state.
	r.k.Run(5)
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != 10 {
		t.Fatalf("restored counter = %d, want 10", got)
	}
	gotBig := make([]byte, len(big))
	np.ReadMem(np.HeapBase()+vm.PageSize, gotBig)
	if !bytes.Equal(gotBig, big) {
		t.Fatal("bulk data lost through incremental chain")
	}
}

func TestRestoreSpecificEpoch(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)

	r.k.Run(10)
	r.o.Checkpoint(g, CheckpointOpts{Name: "ten"})
	r.k.Run(10)
	r.o.Checkpoint(g, CheckpointOpts{Name: "twenty"})

	// Restore the older epoch: time travel.
	ng, _, err := r.o.Restore(g, 1, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != 10 {
		t.Fatalf("epoch-1 counter = %d, want 10", got)
	}
}

func TestLazyRestoreFaultsOnDemand(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	payload := make([]byte, 64*vm.PageSize)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	p.Sbrk(int64(len(payload)) + vm.PageSize)
	p.WriteMem(p.HeapBase()+vm.PageSize, payload)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store) // disk-backed image: the lazy-fault path
	r.o.Checkpoint(g, CheckpointOpts{})

	resident := r.k.Mem.Resident()
	ng, bd, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bd.Lazy {
		t.Fatal("breakdown should record lazy mode")
	}
	// Lazy restore allocates almost nothing up front.
	if grew := r.k.Mem.Resident() - resident; grew > 4 {
		t.Fatalf("lazy restore allocated %d frames up front", grew)
	}
	// Faulting reads return the checkpointed data.
	np, _ := r.k.Process(ng.PIDs()[0])
	got := make([]byte, len(payload))
	if err := np.ReadMem(np.HeapBase()+vm.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("lazily restored data corrupt")
	}
	if r.k.Meter.PageIns.Load() == 0 {
		t.Fatal("no lazy page-ins recorded")
	}
}

func TestMemoryRestoreSharesFramesCOW(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	payload := make([]byte, 32*vm.PageSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	p.Sbrk(int64(len(payload)) + vm.PageSize)
	p.WriteMem(p.HeapBase()+vm.PageSize, payload)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.o.Checkpoint(g, CheckpointOpts{})

	resident := r.k.Mem.Resident()
	ng, bd, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	// No memory is copied: frames are shared with the image.
	if bd.Shared == 0 {
		t.Fatal("no pages were COW-shared with the image")
	}
	if grew := r.k.Mem.Resident() - resident; grew != 0 {
		t.Fatalf("memory restore copied %d frames", grew)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	got := make([]byte, len(payload))
	np.ReadMem(np.HeapBase()+vm.PageSize, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("shared-frame restore corrupt")
	}
	// Writing after restore must not alter the image (COW).
	np.WriteMem(np.HeapBase()+vm.PageSize, []byte{0xFF})
	img := g.LastImage()
	// Restore the image again: it still holds the original byte.
	ng2, _, err := r.o.RestoreImage(img, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np2, _ := r.k.Process(ng2.PIDs()[0])
	var b [1]byte
	np2.ReadMem(np2.HeapBase()+vm.PageSize, b[:])
	if b[0] != payload[0] {
		t.Fatalf("image corrupted by post-restore write: %#x", b[0])
	}
}

// imgObjIDOfHeap finds the heap object's ID inside an image.
func imgObjIDOfHeap(img *Image) uint64 {
	for id, mi := range img.Memory {
		if mi.Name == "heap" {
			return id
		}
	}
	return 0
}

func TestLazyRestorePrefetchHottest(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	// The counter page is by far the hottest (touched every step).
	r.k.Run(200)
	r.o.Checkpoint(g, CheckpointOpts{})

	_, bd, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true, Prefetch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Prefetched == 0 {
		t.Fatal("prefetch restored no pages")
	}
}

// TestPrefetchChargesItsCopies: a prefetched page is copied into a frame
// of its own, as an eager restore's is, and costs what that copy costs.
// Restoring one loaded image lazily with Prefetch: 64 costs 64 page
// copies — in the meter and on the clock — more than without.
func TestPrefetchChargesItsCopies(t *testing.T) {
	const pages, prefetch = 128, 64
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
	restore := func(opts RestoreOpts) (copies int64, bd RestoreBreakdown) {
		img, readTime, err := r.store.Load(g.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := r.k.Meter.PageCopies.Load()
		if _, bd, err = r.o.RestoreImage(img, readTime, opts); err != nil {
			t.Fatal(err)
		}
		return r.k.Meter.PageCopies.Load() - before, bd
	}
	lazyCopies, lazy := restore(RestoreOpts{Lazy: true})
	hotCopies, hot := restore(RestoreOpts{Lazy: true, Prefetch: prefetch})
	if hot.Prefetched != prefetch {
		t.Fatalf("prefetched %d pages, want %d", hot.Prefetched, prefetch)
	}
	if hotCopies-lazyCopies != prefetch {
		t.Errorf("a Prefetch: %d restore made %d page copies, a plain lazy one %d: want %d more",
			prefetch, hotCopies, lazyCopies, prefetch)
	}
	if want := prefetch * r.k.Costs.PageCopy; hot.Total-lazy.Total != want || hot.MemoryState-lazy.MemoryState != want {
		t.Errorf("a Prefetch: %d restore costs %v more in total and %v more in memory state, want %v (%d copies)",
			prefetch, hot.Total-lazy.Total, hot.MemoryState-lazy.MemoryState, want, prefetch)
	}
}

func TestEagerRestoreCopiesEverything(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	p.WriteMem(p.HeapBase()+vm.PageSize, make([]byte, 8*vm.PageSize))
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.o.Checkpoint(g, CheckpointOpts{})

	_, bd, err := r.o.Restore(g, 0, RestoreOpts{Lazy: false})
	if err != nil {
		t.Fatal(err)
	}
	if bd.PagesRestored < 8 {
		t.Fatalf("eager restore touched %d pages", bd.PagesRestored)
	}
}

func TestCheckpointPreservesPipesAndSockets(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	rfd, wfd, _ := r.k.NewPipe(p)
	sa, sb, _ := r.k.NewSocketPair(p)
	r.k.Write(p, wfd, []byte("pipe payload"))
	r.k.Write(p, sa, []byte("sock payload"))

	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}

	ng, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	// Descriptor numbers are preserved; buffered data survived.
	buf := make([]byte, 32)
	n, err := r.k.Read(np, rfd, buf)
	if err != nil || string(buf[:n]) != "pipe payload" {
		t.Fatalf("pipe after restore = %q, %v", buf[:n], err)
	}
	n, err = r.k.Read(np, sb, buf)
	if err != nil || string(buf[:n]) != "sock payload" {
		t.Fatalf("socket after restore = %q, %v", buf[:n], err)
	}
	_ = sa
}

func TestCheckpointPreservesSharedMemoryAcrossProcesses(t *testing.T) {
	r := newRig(t)
	p1 := spawnCounter(t, r)
	fillHeap(t, p1, 0, forkPages, 1)
	p2, _ := r.k.Fork(p1)
	pokeHeap(t, p1, 0, 3, 2)
	pokeHeap(t, p2, 2, 5, 3)
	seg, _ := r.k.ShmGet(99, 4*vm.PageSize)
	a1, _ := r.k.ShmAttach(p1, seg)
	a2, _ := r.k.ShmAttach(p2, seg)
	p1.WriteMem(a1, []byte("shared before ckpt"))

	g, _ := r.o.Persist("app", p1)
	r.o.Attach(g, r.store)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}

	restored := restoredTree(t, r, ng)
	if len(restored) != 2 {
		t.Fatalf("restored %d processes, want 2", len(restored))
	}
	np1, np2 := restored[0], restored[1]
	// Each process's private memory is its own, as it was at the
	// barrier: the pages written before the fork and each side's writes
	// after it.
	sameHeap(t, p1, np1, forkPages)
	sameHeap(t, p2, np2, forkPages)

	// Shared memory is still *shared* after restore: a write by one
	// is seen by the other (the memory hierarchy was reproduced, not
	// duplicated).
	if err := np1.WriteMem(a1, []byte("shared after restore")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 20)
	if err := np2.ReadMem(a2, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared after restore" {
		t.Fatalf("np2 sees %q — sharing broken by restore", got)
	}
}

func TestProcessTreeRestoredWithHierarchy(t *testing.T) {
	r := newRig(t)
	parent := spawnCounter(t, r)
	child, _ := r.k.Fork(parent)
	child.SetProgram(&counter{addr: child.HeapBase()})

	g, _ := r.o.Persist("tree", parent)
	r.o.Attach(g, r.mem)
	r.k.Run(20)
	r.o.Checkpoint(g, CheckpointOpts{})

	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ng.PIDs()) != 2 {
		t.Fatalf("restored pids = %v", ng.PIDs())
	}
	// Parent/child linkage is preserved in the metadata.
	var np, nc *kernel.Process
	for _, pid := range ng.PIDs() {
		q, _ := r.k.Process(pid)
		if q.PPID == 0 {
			np = q
		} else {
			nc = q
		}
	}
	if np == nil || nc == nil || nc.PPID != np.PID {
		t.Fatalf("process hierarchy lost: parent=%v child=%v", np, nc)
	}
}

func TestExternalConsistencyEndToEnd(t *testing.T) {
	r := newRig(t)
	srv := spawnCounter(t, r)
	ext, _ := r.k.Spawn(0, "client") // outside any group
	a, b, _ := r.k.NewSocketPair(srv)
	fdB, _ := srv.FDs.Get(b)
	extFD, _ := ext.FDs.Install(r.k, fdB.File, kernel.ORdWr)

	g, _ := r.o.Persist("srv", srv)
	r.o.Attach(g, r.mem)
	r.o.Checkpoint(g, CheckpointOpts{})
	if err := r.o.Sync(g); err != nil { // epoch 1 durable
		t.Fatal(err)
	}

	// Output written during epoch 1 is held until epoch 2 is durable.
	r.k.Write(srv, a, []byte("result"))
	buf := make([]byte, 16)
	if _, err := r.k.Read(ext, extFD, buf); err != kernel.ErrWouldBlock {
		t.Fatalf("pre-checkpoint read err = %v, want would-block", err)
	}
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	// The barrier alone does not release the output: epoch 2 must be
	// durable on the backend first.
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	n, err := r.k.Read(ext, extFD, buf)
	if err != nil || string(buf[:n]) != "result" {
		t.Fatalf("post-checkpoint read = %q, %v", buf[:n], err)
	}
}

func TestMctlExcludesRegion(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	scratch, err := p.Space.MapAnon(16*vm.PageSize, vm.ProtRead|vm.ProtWrite, false, "scratch")
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(scratch.Start, make([]byte, 16*vm.PageSize))
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)

	// Exclude the scratch region via sls_mctl.
	if err := r.api.Mctl(p, scratch.Start, false); err != nil {
		t.Fatal(err)
	}
	bd, err := r.o.Checkpoint(g, CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if bd.PagesCaptured >= 16 {
		t.Fatalf("excluded pages were captured: %d", bd.PagesCaptured)
	}
}

func TestRollback(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.k.Run(30)
	r.o.Checkpoint(g, CheckpointOpts{})
	r.k.Run(70) // counter = 100, beyond the checkpoint

	ng, notice, err := r.api.Rollback(p)
	if err != nil {
		t.Fatal(err)
	}
	if notice == nil || notice.ToEpoch != 1 {
		t.Fatalf("notice = %v", notice)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != 30 {
		t.Fatalf("rolled-back counter = %d, want 30", got)
	}
	// The old process is gone.
	if _, err := r.k.Process(p.PID); err == nil && p.State() != kernel.ProcZombie {
		t.Fatal("pre-rollback process still alive")
	}
}

func TestBarrierFlushesPending(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	r.k.Run(5)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	if g.Durable() == g.Epoch() {
		t.Fatal("SkipFlush checkpoint should leave the epoch pending")
	}
	if err := r.api.Barrier(p); err != nil {
		t.Fatal(err)
	}
	if g.Durable() != g.Epoch() {
		t.Fatal("barrier did not flush")
	}
}

func TestNTFlushAndReplay(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("db", p)
	r.o.Attach(g, r.store)

	if err := r.api.NTFlush(p, []byte("put k1 v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.api.NTFlush(p, []byte("put k2 v2")); err != nil {
		t.Fatal(err)
	}
	entries, err := r.api.NTEntries(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || string(entries[0]) != "put k1 v1" {
		t.Fatalf("entries = %q", entries)
	}
	// A checkpoint subsumes the log; truncate drops it.
	seq := r.api.NTSeq(g)
	r.o.Checkpoint(g, CheckpointOpts{})
	if err := r.api.NTTruncate(g, seq); err != nil {
		t.Fatal(err)
	}
	entries, _ = r.api.NTEntries(g)
	if len(entries) != 0 {
		t.Fatalf("entries after truncate = %d", len(entries))
	}
}

func TestNTFlushRequiresStoreBackend(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("db", p)
	r.o.Attach(g, r.mem)
	if err := r.api.NTFlush(p, []byte("x")); err != ErrNoNTLog {
		t.Fatalf("err = %v, want ErrNoNTLog", err)
	}
}

// TestAPI exercises every Table 2 entry point through the API type.
func TestAPI(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	r.o.Attach(g, r.mem)

	// sls_checkpoint
	if _, err := r.api.Checkpoint(p, "api-ckpt"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// sls_barrier
	if err := r.api.Barrier(p); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	// sls_ntflush
	if err := r.api.NTFlush(p, []byte("log")); err != nil {
		t.Fatalf("NTFlush: %v", err)
	}
	// sls_mctl
	if err := r.api.Mctl(p, p.HeapBase(), true); err != nil {
		t.Fatalf("Mctl: %v", err)
	}
	// sls_fdctl
	rfd, _, _ := r.k.NewPipe(p)
	if err := r.api.Fdctl(p, rfd, false); err != nil {
		t.Fatalf("Fdctl: %v", err)
	}
	// sls_restore
	ng, _, err := r.api.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// sls_rollback (on the restored group)
	np, _ := r.k.Process(ng.PIDs()[0])
	if _, _, err := r.api.Rollback(np); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	// Unpersisted process gets ErrNotPersisted.
	outsider, _ := r.k.Spawn(0, "x")
	if _, err := r.api.Checkpoint(outsider, ""); err != ErrNotPersisted {
		t.Fatalf("outsider err = %v", err)
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.k.Run(17)
	r.o.Checkpoint(g, CheckpointOpts{Name: "xfer"})

	img := g.LastImage()
	img2, err := DecodeImage(encoded(t, img, r.k.Mem), r.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	// Restoring the decoded image works: this is the `sls send/recv`
	// data path.
	ng, _, err := r.o.RestoreImage(img2, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != 17 {
		t.Fatalf("decoded-image counter = %d, want 17", got)
	}
}

// TestEncodeAfterLazyRestore: a lazily restored group's image keeps its
// pages in the store, and Encode reads them there: its file restores the
// counter with no checkpoint in between. So does the file of the
// restored group's first checkpoint, which is full and holds the pages
// it inherits by name until its flush or Encode reads them — taken as a
// checkpoint whose flush runs in the background, sent as `sls send`
// sends it (Orchestrator.Encode: the flush drained first, the store's
// copy sent once the flush released the image), and with SkipFlush,
// encoded before any flush. A chain that reaches a released image is
// refused.
func TestEncodeAfterLazyRestore(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	r.k.Run(17)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	restores := func(file []byte, what string) {
		t.Helper()
		dec, err := DecodeImage(file, r.k.Mem)
		if err != nil {
			t.Fatal(err)
		}
		rg, _, err := r.o.RestoreImage(dec, 0, RestoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		np, _ := r.k.Process(rg.PIDs()[0])
		if got := counterValue(np); got != 17 {
			t.Fatalf("counter from %s = %d, want 17", what, got)
		}
	}
	for _, tc := range []struct {
		how  string
		opts CheckpointOpts
	}{{"flushed", CheckpointOpts{}}, {"SkipFlush", CheckpointOpts{SkipFlush: true}}} {
		ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		restores(encoded(t, ng.LastImage(), r.k.Mem), "the lazily restored group's file")

		if _, err := r.o.Checkpoint(ng, tc.opts); err != nil {
			t.Fatal(err)
		}
		img := ng.LastImage()
		if !img.Full {
			t.Fatalf("the restored group's first checkpoint is %v, want a full one", img)
		}
		var file []byte
		if tc.opts.SkipFlush {
			file, err = img.Encode(r.k.Mem)
		} else {
			var epoch uint64
			if file, epoch, err = r.o.Encode(ng); err == nil && epoch != img.Epoch {
				t.Fatalf("Orchestrator.Encode sent epoch %d, want %d", epoch, img.Epoch)
			}
		}
		if err != nil {
			t.Fatalf("Encode of the restored group's first checkpoint, %s: %v", tc.how, err)
		}
		restores(file, "the file of the restored group's first checkpoint, "+tc.how)
		if err := r.o.Sync(ng); err != nil {
			t.Fatal(err)
		}
	}

	pm := vm.NewPhysMem(0)
	base := codecImage(t, pm, 1, true, 2, distinctFill)
	top := codecImage(t, pm, 2, false, 2, distinctFill)
	top.Prev = base
	base.Release(pm)
	if file, err := top.Encode(pm); !errors.Is(err, ErrNoImage) || file != nil {
		t.Fatalf("Encode over a released image: %d bytes, err = %v; want none and ErrNoImage", len(file), err)
	}
}

func TestMemoryBackendHistoryConsolidation(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	mb := NewMemoryBackend(r.k.Mem, 3)
	r.o.Attach(g, mb)

	for i := 0; i < 6; i++ {
		r.k.Run(5)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	hist := mb.History(g.ID)
	if len(hist) != 3 {
		t.Fatalf("history = %v, want 3 entries", hist)
	}
	// The oldest retained image must still restore completely.
	img, _, err := mb.Load(g.ID, hist[0])
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := r.o.RestoreImage(img, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != uint64(hist[0])*5 {
		t.Fatalf("consolidated restore counter = %d, want %d", got, hist[0]*5)
	}
}

func TestTable3ShapeIncrementalVsFull(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	ws := int64(8192) // pages (32 MiB working set)
	p.Sbrk(ws*vm.PageSize + vm.PageSize)
	p.WriteMem(p.HeapBase()+vm.PageSize, make([]byte, ws*vm.PageSize))
	g, _ := r.o.Persist("redis", p)
	r.o.Attach(g, r.store)

	full, _ := r.o.Checkpoint(g, CheckpointOpts{Full: true})
	// Dirty ~12% of the working set.
	for i := int64(0); i < ws/8; i++ {
		p.WriteMem(p.HeapBase()+vm.PageSize+vm.Addr(i*8*vm.PageSize), []byte{1})
	}
	incr, _ := r.o.Checkpoint(g, CheckpointOpts{})

	// Metadata copy roughly equal between modes.
	ratio := float64(full.MetadataCopy) / float64(incr.MetadataCopy)
	if ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("metadata ratio = %.2f, want ~1", ratio)
	}
	// Lazy data copy several times faster incrementally.
	if full.LazyDataCopy < 3*incr.LazyDataCopy {
		t.Fatalf("data copy full=%v incr=%v, want >=3x gap", full.LazyDataCopy, incr.LazyDataCopy)
	}
	// Total stop time dominated by the data phase in full mode.
	if full.StopTime < incr.StopTime {
		t.Fatal("full stop time below incremental")
	}
}

func TestTable4ShapeRestoreBreakdown(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	p.Sbrk(256*vm.PageSize + vm.PageSize)
	p.WriteMem(p.HeapBase()+vm.PageSize, make([]byte, 256*vm.PageSize))
	g, _ := r.o.Persist("redis", p)
	r.o.Attach(g, r.mem)
	r.o.Attach(g, r.store)
	r.o.Checkpoint(g, CheckpointOpts{})
	if err := r.o.Sync(g); err != nil { // loading backends directly below
		t.Fatal(err)
	}

	// Memory restore: no object-store read.
	img, _, err := r.mem.Load(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, memBD, err := r.o.RestoreImage(img, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if memBD.ObjectStoreRead != 0 {
		t.Fatal("memory restore should have no store read")
	}

	// Disk restore: store read appears; metadata and memory phases are
	// slightly cheaper (implicit restoration).
	simg, readTime, err := r.store.Load(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, diskBD, err := r.o.RestoreImage(simg, readTime, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if diskBD.ObjectStoreRead <= 0 {
		t.Fatal("disk restore must include the store read")
	}
	if diskBD.MetadataState >= memBD.MetadataState {
		t.Fatalf("disk metadata %v should undercut memory %v", diskBD.MetadataState, memBD.MetadataState)
	}
	if diskBD.MemoryState >= memBD.MemoryState {
		t.Fatalf("disk memory %v should undercut memory-backend %v", diskBD.MemoryState, memBD.MemoryState)
	}
}

func TestCheckpointFrequency100Hz(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)

	// 100 checkpoints; each stop must be well under the 10 ms period.
	for i := 0; i < 100; i++ {
		r.k.Run(3)
		bd, err := r.o.Checkpoint(g, CheckpointOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if bd.StopTime > 5_000_000 { // 5 ms in ns
			t.Fatalf("checkpoint %d stop time %v exceeds budget", i, bd.StopTime)
		}
	}
	if got := len(g.Breakdowns()); got != 100 {
		t.Fatalf("breakdowns = %d", got)
	}
}

func TestUnixSocketListenerRestored(t *testing.T) {
	r := newRig(t)
	srv := spawnCounter(t, r)
	if _, err := r.k.Listen(srv, "/srv.sock"); err != nil {
		t.Fatal(err)
	}
	// A client connection waits in the backlog at checkpoint time.
	cli, _ := r.k.Spawn(0, "client")
	if _, err := r.k.Connect(cli, "/srv.sock"); err != nil {
		t.Fatal(err)
	}

	g, _ := r.o.Persist("srv", srv)
	r.o.Attach(g, r.store)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil { // loading the store directly below
		t.Fatal(err)
	}

	// Restore into a fresh kernel (crash simulation): the listener and
	// its backlog come back.
	r2 := newRig(t)
	img, readTime, err := r.store.Load(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := DecodeImage(encoded(t, img, r.k.Mem), r2.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := r2.o.RestoreImage(img2, readTime, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r2.k.Process(ng.PIDs()[0])
	// The restored listener accepts the checkpointed connection.
	lfd := -1
	for _, n := range np.FDs.Numbers() {
		fd, _ := np.FDs.Get(n)
		if _, ok := fd.File.(*kernel.UnixSocket); ok {
			lfd = n
		}
	}
	if lfd == -1 {
		t.Fatal("listener descriptor not restored")
	}
	if _, err := r2.k.Accept(np, lfd); err != nil {
		t.Fatalf("accept after restore: %v", err)
	}
}

// TestQuickEveryEpochRestoresExactly drives a random write workload
// with checkpoints interleaved, recording the application state at
// every barrier; then every epoch in the history must restore to
// exactly its recorded state. This is the global correctness property
// of incremental checkpointing: no epoch ever bleeds into another.
func TestQuickEveryEpochRestoresExactly(t *testing.T) {
	f := func(writes []uint16) bool {
		r := newRig(nil)
		p, err := r.k.Spawn(0, "app")
		if err != nil {
			return false
		}
		p.SetProgram(&counter{addr: p.HeapBase()})
		const pages = 16
		p.Sbrk(pages*vm.PageSize + vm.PageSize)
		g, _ := r.o.Persist("app", p)
		r.o.Attach(g, r.store)

		model := make([]byte, pages*vm.PageSize)
		epochStates := make(map[uint64][]byte)

		for i, w := range writes {
			pg := int64(w % pages)
			fill := byte(w >> 8)
			chunk := bytes.Repeat([]byte{fill}, 64)
			off := pg * vm.PageSize
			if err := p.WriteMem(p.HeapBase()+vm.PageSize+vm.Addr(off), chunk); err != nil {
				return false
			}
			copy(model[off:], chunk)
			if i%3 == 2 {
				bd, err := r.o.Checkpoint(g, CheckpointOpts{})
				if err != nil {
					return false
				}
				epochStates[bd.Epoch] = append([]byte(nil), model...)
			}
		}
		// Restore every epoch and compare byte for byte.
		for epoch, want := range epochStates {
			ng, _, err := r.o.Restore(g, epoch, RestoreOpts{Lazy: true})
			if err != nil {
				return false
			}
			np, err := r.k.Process(ng.PIDs()[0])
			if err != nil {
				return false
			}
			got := make([]byte, len(want))
			if err := np.ReadMem(np.HeapBase()+vm.PageSize, got); err != nil {
				return false
			}
			if !bytes.Equal(got, want) {
				return false
			}
			r.k.Exit(np, 0)
			r.k.Reap(np)
			r.o.Unpersist(ng)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
