package core

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// heapOf reads pages [0, n) of p's heap.
func heapOf(t *testing.T, p *kernel.Process, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for pg := range out {
		out[pg] = make([]byte, vm.PageSize)
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), out[pg]); err != nil {
			t.Fatalf("reading page %d: %v", pg, err)
		}
	}
	return out
}

// TestTrimmedLineChainRestoresBitIdentical: a group whose incremental
// epochs write a few bytes here and there stores those pages as line
// entries (Flush hands the store the dirty-line masks), the history
// limit merges them forward under the newest epochs, and the trimmed
// chain restores bit-identically — lazily, each line page rebuilt from
// its base and patch at its first touch, and eagerly.
func TestTrimmedLineChainRestoresBitIdentical(t *testing.T) {
	const pages, epochs = 64, 12
	r := newRig(t)
	r.store.HistoryLimit = 3
	p := spawnCounter(t, r)
	touchedHeap(t, p, pages)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	rng := rand.New(rand.NewPCG(31, 1))
	for e := 0; e < epochs; e++ {
		if e > 0 {
			// A few bytes in a few pages, now and then a page whole.
			for j := 0; j < 12; j++ {
				pg := 1 + rng.IntN(pages-1)
				buf := []byte{byte(rng.Uint32())}
				if j == 0 {
					buf = bytes.Repeat(buf, vm.PageSize)
				}
				off := rng.IntN(vm.PageSize - len(buf) + 1)
				if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize+off), buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	st := r.store.Store().Stats()
	if st.LinePages == 0 {
		t.Fatal("no page went to the store as a line entry")
	}
	if got := r.store.Epochs(g.ID); len(got) != 3 {
		t.Fatalf("store holds epochs %v, want the last 3", got)
	}
	if err := r.store.Store().AuditReachability(); err != nil {
		t.Fatal(err)
	}
	want := heapOf(t, p, pages)
	for _, lazy := range []bool{true, false} {
		ng, bd, err := r.o.Restore(g, 0, RestoreOpts{Lazy: lazy, Validate: true})
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		if bd.Lazy != lazy {
			t.Fatalf("restore lazy=%v, asked for %v", bd.Lazy, lazy)
		}
		np, _ := r.k.Process(ng.PIDs()[0])
		for pg, got := range heapOf(t, np, pages) {
			if !bytes.Equal(got, want[pg]) {
				t.Fatalf("lazy=%v: page %d differs from the live process", lazy, pg)
			}
		}
	}
}

// TestRottedLineBaseFailsOverByHash: a line page whose base block rots
// on the primary store fails over to a peer by content hash — the peer
// holds the same line entry, and serves the page it rebuilds — and the
// read-repair heals the primary's base from the peer's copy of it.
func TestRottedLineBaseFailsOverByHash(t *testing.T) {
	fr := newFaultRig(3, 0)
	g, orig := failoverWorkload(t, fr, 6, 3)
	want := readHeapPages(t, orig)
	st := fr.primary.Store()
	m, _ := st.LatestManifest(g.ID)
	heap := orig.Space.Find(orig.HeapBase())
	v, err := st.ResolveView(g.ID, vmBit|heap.Obj.ID, m.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok, err := v.Lookup(heap.Off / vm.PageSize) // the counter page
	if err != nil || !ok || !ref.Lined() {
		t.Fatalf("the counter page is %+v (%v %v), want a line entry", ref, ok, err)
	}
	if _, err := fr.fd.Inner().WriteAt([]byte("rot"), ref.Base.Off+100); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadPage(ref, make([]byte, vm.PageSize), new(objstore.PageReader)); err == nil {
		t.Fatal("the page reads back intact over a rotted base")
	}

	fr.k.Exit(orig, 0)
	ng, _, err := fr.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := fr.k.Process(ng.PIDs()[0])
	for pg, got := range readHeapPages(t, np) {
		if !bytes.Equal(got, want[pg]) {
			t.Fatalf("page %d differs from the live process", pg)
		}
	}
	if rs := ng.RecoveryStats(); rs.Failovers != 1 || rs.PagesRepaired != 1 {
		t.Fatalf("recovery stats %+v, want the counter page failed over and repaired", rs)
	}
	buf := make([]byte, vm.PageSize)
	if err := st.ReadPage(ref, buf, new(objstore.PageReader)); err != nil || !bytes.Equal(buf, want[0]) {
		t.Fatalf("the primary's line page after read-repair: %v", err)
	}
}

// opDevice counts the read operations issued to the device it wraps.
type opDevice struct {
	storage.Device
	reads atomic.Int64
}

func (d *opDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.reads.Add(1)
	return d.Device.ReadAt(p, off)
}

func (d *opDevice) ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error) {
	d.reads.Add(1)
	return d.Device.ReadBatch(bufs, offs)
}

// TestLinePageFaultIsOneRead: a demand fault on a line page locates the
// page once and reads its base and its patch in one device operation,
// through a striped array too, into a recycled frame and the source's
// own patch buffer. It costs what a fault on a block does: one
// operation, and no allocation the block's fault does not make.
func TestLinePageFaultIsOneRead(t *testing.T) {
	const pages = 32
	r := newRig(t)
	dev := &opDevice{Device: storage.NewOptaneArray(4, r.clock)}
	r.store = NewStoreBackend(objstore.Create(dev, r.clock), r.k.Mem, r.clock)
	p := spawnCounter(t, r)
	touchedHeap(t, p, pages)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	checkpoint := func() {
		t.Helper()
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	blocks := heapOf(t, p, pages)
	for pg := 0; pg < pages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize)+100, []byte{0xAB}); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()
	if n := r.store.Store().Stats().LinePages; n != pages {
		t.Fatalf("%d line entries, want one for each of the %d pages written in a line", n, pages)
	}
	lined := heapOf(t, p, pages)
	r.k.Exit(p, 0)
	// fault restores the epoch lazily and faults every page in.
	fault := func(epoch uint64, want [][]byte) (reads int64, allocs uint64) {
		t.Helper()
		ng, _, err := r.o.Restore(g, epoch, RestoreOpts{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		np, _ := r.k.Process(ng.PIDs()[0])
		var b [1]byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reads = dev.reads.Load()
		for pg := 0; pg < pages; pg++ {
			if err := np.ReadMem(np.HeapBase()+vm.Addr(pg*vm.PageSize)+100, b[:]); err != nil || b[0] != want[pg][100] {
				t.Fatalf("epoch %d page %d reads %#x (%v)", epoch, pg, b[0], err)
			}
		}
		reads = dev.reads.Load() - reads
		runtime.ReadMemStats(&after)
		r.k.Exit(np, 0)
		if err := r.k.Reap(np); err != nil {
			t.Fatal(err)
		}
		r.o.Unpersist(ng)
		return reads, after.Mallocs - before.Mallocs
	}
	fault(2, lined) // warm: frames on the free list, the array's batch lists
	blockReads, blockAllocs := fault(1, blocks)
	lineReads, lineAllocs := fault(2, lined)
	if blockReads != pages || lineReads != pages {
		t.Fatalf("%d faults issued %d device reads on blocks and %d on line pages, want one each", pages, blockReads, lineReads)
	}
	if lineAllocs > blockAllocs {
		t.Fatalf("%d line-page faults allocated %d times, %d block-page faults %d", pages, lineAllocs, pages, blockAllocs)
	}
}
