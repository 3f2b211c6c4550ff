package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"aurora/internal/kernel"
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
	if err := st.ReadPageInto(ref, make([]byte, vm.PageSize)); err == nil {
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
	if err := st.ReadPageInto(ref, buf); err != nil || !bytes.Equal(buf, want[0]) {
		t.Fatalf("the primary's line page after read-repair: %v", err)
	}
}
