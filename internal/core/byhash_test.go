package core_test

import (
	"bytes"
	"testing"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// byHashPages is the heap of the byHashRig's process, in pages; its first
// byHashChanged pages are rewritten after the epoch an early backend saw.
const byHashPages, byHashChanged = 48, 12

// byHashPage is heap page pg as write round r left it: distinct across
// pages and rounds, so no two pages share a content hash.
func byHashPage(pg, r int) []byte {
	b := make([]byte, vm.PageSize)
	for i := range b {
		b[i] = byte(pg*7 + r*131 + i%251)
	}
	b[0], b[1], b[2] = byte(pg), byte(pg>>8), byte(r)
	return b
}

// byHashWant is heap page pg as the rig's second epoch holds it.
func byHashWant(pg int) []byte {
	if pg < byHashChanged {
		return byHashPage(pg, 2)
	}
	return byHashPage(pg, 1)
}

// byHashRig is one machine whose source store src holds a lineage at
// two epochs — the first also on the case's early backend, the second
// rewriting byHashChanged pages — and ng, the group restored lazily from
// src's second epoch, attached to the case's destinations: every heap
// page of ng is held by name in src.
type byHashRig struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
	dev   *storage.MemDevice
	src   *core.StoreBackend
	g, ng *core.Group
}

// byHashCase is one destination of ng's first epoch. early attaches what
// holds the lineage's first epoch (nil: nothing) and returns it; attach
// attaches the destinations of ng's first epoch; reads is how many pages
// its flush may read from src; check runs once that epoch, of pages
// pages, is durable.
type byHashCase struct {
	early  func(g *core.Group) core.Backend
	attach func(ng *core.Group)
	reads  int64
	check  func(first *core.Image, pages int)
}

func newByHashRig(t *testing.T) *byHashRig {
	t.Helper()
	r := &byHashRig{clock: storage.NewClock()}
	r.k = kernel.NewWith(r.clock, vm.NewPhysMem(0))
	r.o = core.NewOrchestrator(r.k)
	t.Cleanup(r.o.Close)
	r.dev = storage.NewMemDevice(storage.ParamsOptaneNVMe, r.clock)
	r.src = core.NewStoreBackend(objstore.Create(r.dev, r.clock), r.k.Mem, r.clock)
	return r
}

// lineage runs the lineage's two epochs and the lazy restore.
func (r *byHashRig) lineage(t *testing.T, c byHashCase) {
	t.Helper()
	p, err := r.k.Spawn(0, "byhash")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&migTestCounter{addr: p.HeapBase()})
	if _, err := p.Sbrk(byHashPages * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if r.g, err = r.o.Persist("byhash", p); err != nil {
		t.Fatal(err)
	}
	r.o.Attach(r.g, r.src)
	var early core.Backend
	if c.early != nil {
		early = c.early(r.g)
	}
	for round := 1; round <= 2; round++ {
		for pg := 0; pg < byHashPages; pg++ {
			if round == 1 || pg < byHashChanged {
				if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), byHashPage(pg, round)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := r.o.Checkpoint(r.g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(r.g); err != nil {
			t.Fatal(err)
		}
		if round == 1 && early != nil {
			if err := r.o.Detach(r.g, early.Name()); err != nil {
				t.Fatal(err)
			}
		}
	}
	img, rt, err := r.src.LoadLazy(r.g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ng, _, err = r.o.RestoreImage(img, rt, core.RestoreOpts{Lazy: true}); err != nil {
		t.Fatal(err)
	}
	c.attach(r.ng)
}

// byHashHeapHolds checks that p's heap is the lineage's second epoch.
func byHashHeapHolds(t *testing.T, p *kernel.Process, what string) {
	t.Helper()
	got := make([]byte, vm.PageSize)
	for pg := 0; pg < byHashPages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), got); err != nil {
			t.Fatalf("%s: heap page %d: %v", what, pg, err)
		}
		if !bytes.Equal(got, byHashWant(pg)) {
			t.Fatalf("%s: heap page %d differs from the epoch restored", what, pg)
		}
	}
}

// restoreOn restores img on k and returns its process.
func restoreOn(t *testing.T, k *kernel.Kernel, img *core.Image, opts core.RestoreOpts) *kernel.Process {
	t.Helper()
	g, _, err := core.NewOrchestrator(k).RestoreImage(img, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Process(g.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInheritedPagesFlushByHash: the first epoch of a lazily restored
// group holds its heap by name in the store it was restored from, each
// page with the content hash that store's index has. Its flush hashes
// none of those pages and reads one only for a destination that lacks
// it:
//   - into the same store it reads nothing and writes no data block;
//   - into a second store that holds the lineage's first epoch it reads
//     exactly the pages rewritten since, and that store alone then
//     restores the epoch bit for bit;
//   - over a replica link whose receiver holds the first epoch it sends
//     those pages as refs and reads and sends the rest literal, and the
//     receiver's copy restores bit for bit;
//   - over two fresh replica links and no store it reads each page once,
//     for both, and each receiver's copy restores bit for bit;
//   - into a memory backend beside the store it reads nothing either,
//     and restoring from the memory backend while the group lives gives
//     the same heap.
func TestInheritedPagesFlushByHash(t *testing.T) {
	held := int64(byHashPages - byHashChanged) // pages the early backends hold
	cases := map[string]func(t *testing.T, r *byHashRig) byHashCase{
		"same store": func(t *testing.T, r *byHashRig) byHashCase {
			return byHashCase{
				attach: func(ng *core.Group) { r.o.Attach(ng, r.src) },
				check: func(first *core.Image, pages int) {
					back, _, err := r.src.Load(r.ng.ID, first.Epoch)
					if err != nil {
						t.Fatal(err)
					}
					byHashHeapHolds(t, restoreOn(t, r.k, back, core.RestoreOpts{}), "restored from the store")
				},
			}
		},
		"second store": func(t *testing.T, r *byHashRig) byHashCase {
			clock := storage.NewClock()
			second := core.NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsFlashNVMe, clock), clock), r.k.Mem, clock)
			return byHashCase{
				early:  func(g *core.Group) core.Backend { r.o.Attach(g, second); return second },
				attach: func(ng *core.Group) { r.o.Attach(ng, second) },
				reads:  byHashChanged,
				check: func(first *core.Image, pages int) {
					for _, gid := range []uint64{r.g.ID, r.ng.ID} {
						for _, e := range r.src.Epochs(gid) {
							if err := r.src.Store().DropEpoch(gid, e); err != nil {
								t.Fatal(err)
							}
						}
					}
					back, _, err := second.Load(r.ng.ID, first.Epoch)
					if err != nil {
						t.Fatal(err)
					}
					byHashHeapHolds(t, restoreOn(t, r.k, back, core.RestoreOpts{}), "restored from the second store alone")
				},
			}
		},
		"replica": func(t *testing.T, r *byHashRig) byHashCase {
			rpm := vm.NewPhysMem(0)
			w := netback.NewWire(netback.LinkFaultConfig{}, r.clock, netback.NewReceiver(rpm, storage.NewClock()))
			connect := func(g *core.Group) {
				if err := w.Connect(g.ID); err != nil {
					t.Fatal(err)
				}
				r.o.Attach(g, w.Backend())
			}
			var sent, skipped int64
			return byHashCase{
				early: func(g *core.Group) core.Backend { connect(g); return w.Backend() },
				attach: func(ng *core.Group) {
					connect(ng)
					sent, skipped, _ = w.Backend().DeltaStats()
				},
				reads: byHashChanged,
				check: func(first *core.Image, pages int) {
					nowSent, nowSkipped, resends := w.Backend().DeltaStats()
					if nowSkipped-skipped != held || resends != 0 {
						t.Fatalf("the link sent %d pages as refs (%d resends), want %d: every page its receiver holds",
							nowSkipped-skipped, resends, held)
					}
					if got, want := nowSent-sent, int64(pages)-held; got != want {
						t.Fatalf("the link sent %d pages literal, want %d", got, want)
					}
					img, err := w.Receiver().Latest(r.ng.ID)
					if err != nil || img.Epoch != first.Epoch {
						t.Fatalf("the receiver holds %v (%v), want epoch %d", img, err, first.Epoch)
					}
					byHashHeapHolds(t, restoreOn(t, kernel.NewWith(storage.NewClock(), rpm), img, core.RestoreOpts{Lazy: true}), "restored from the replica")
				},
			}
		},
		"two fresh replica links, no store": func(t *testing.T, r *byHashRig) byHashCase {
			var wires []*netback.Wire
			var pms []*vm.PhysMem
			return byHashCase{
				attach: func(ng *core.Group) {
					for range 2 {
						pms = append(pms, vm.NewPhysMem(0))
						w := netback.NewWire(netback.LinkFaultConfig{}, r.clock, netback.NewReceiver(pms[len(pms)-1], storage.NewClock()))
						if err := w.Connect(ng.ID); err != nil {
							t.Fatal(err)
						}
						r.o.Attach(ng, w.Backend())
						wires = append(wires, w)
					}
				},
				reads: byHashPages,
				check: func(first *core.Image, pages int) {
					for i, w := range wires {
						img, err := w.Receiver().Latest(r.ng.ID)
						if err != nil || img.Epoch != first.Epoch {
							t.Fatalf("receiver %d holds %v (%v), want epoch %d", i, img, err, first.Epoch)
						}
						byHashHeapHolds(t, restoreOn(t, kernel.NewWith(storage.NewClock(), pms[i]), img, core.RestoreOpts{Lazy: true}), "restored from a fresh replica")
					}
				},
			}
		},
		"memory beside the store": func(t *testing.T, r *byHashRig) byHashCase {
			mb := core.NewMemoryBackend(r.k.Mem, 0)
			return byHashCase{
				attach: func(ng *core.Group) { r.o.Attach(ng, r.src); r.o.Attach(ng, mb) },
				check: func(first *core.Image, pages int) {
					img, _, err := mb.Load(r.ng.ID, first.Epoch)
					if err != nil {
						t.Fatal(err)
					}
					byHashHeapHolds(t, restoreOn(t, r.k, img, core.RestoreOpts{Lazy: true}), "restored from the memory backend")
				},
			}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			r := newByHashRig(t)
			c := mk(t, r)
			r.lineage(t, c)
			st := r.src.Store()
			reads, blocks := r.dev.Stats().Reads, st.Stats().BlockBytes
			if _, err := r.o.Checkpoint(r.ng, core.CheckpointOpts{SkipFlush: true}); err != nil {
				t.Fatal(err)
			}
			first := r.ng.LastImage()
			count, frames := first.PageCount(), 0
			for _, mi := range first.Memory {
				frames += len(mi.Pages)
			}
			if err := r.o.Sync(r.ng); err != nil {
				t.Fatal(err)
			}
			if n := r.dev.Stats().Reads - reads; n != c.reads {
				t.Fatalf("the first epoch's flush read the source device %d times, want %d", n, c.reads)
			}
			if got := st.Stats().BlockBytes; got != blocks {
				t.Fatalf("the source store's data blocks went %d → %d bytes", blocks, got)
			}
			if n := first.PagesHashed(); n != int64(frames) || count < byHashPages {
				t.Fatalf("the first epoch hashed %d of its %d pages; want its %d frames only", n, count, frames)
			}
			c.check(first, count)
		})
	}
}

// TestRetriedDeliveryReadsNothingAgain: a delivery that fails and is
// retried is handed the bytes the flush read for it again, and reads
// nothing itself. The second store lacks the pages rewritten since the
// epoch it holds, and the last write of its first attempt at the
// restored group's first epoch fails; the retry lands the epoch, the
// source device served each lacking page once, and the second store
// restores it bit for bit.
func TestRetriedDeliveryReadsNothingAgain(t *testing.T) {
	r := newByHashRig(t)
	clock := storage.NewClock()
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsFlashNVMe, clock), clock, storage.FaultConfig{})
	second := core.NewStoreBackend(objstore.Create(fd, clock), r.k.Mem, clock)
	r.lineage(t, byHashCase{
		early:  func(g *core.Group) core.Backend { r.o.Attach(g, second); return second },
		attach: func(ng *core.Group) { r.o.Attach(ng, second) },
	})
	if _, err := r.o.Checkpoint(r.ng, core.CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	first := r.ng.LastImage()
	reads, injected := r.dev.Stats().Reads, fd.InjectedCount()
	// An attempt writes each kernel object's record, each lacking page
	// and each VM object's record, in that order.
	last := fd.OpCount() + int64(len(first.Meta)+byHashChanged+len(first.Memory))
	fd.FailOps(storage.FaultWrite, last, last)
	if err := r.o.Sync(r.ng); err != nil {
		t.Fatal(err)
	}
	if fd.InjectedCount() != injected+1 || r.ng.Health()[0].Retries != 1 {
		t.Fatalf("%d faults injected, %d retries; want the first put attempt to fail and one retry",
			fd.InjectedCount()-injected, r.ng.Health()[0].Retries)
	}
	if n := r.dev.Stats().Reads - reads; n != byHashChanged {
		t.Fatalf("the flush and its retry read the source device %d times, want %d: each lacking page once", n, byHashChanged)
	}
	back, _, err := second.Load(r.ng.ID, first.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	byHashHeapHolds(t, restoreOn(t, r.k, back, core.RestoreOpts{}), "restored from the second store")
}

// TestNeedResendOfAnImageHeldByName: a replica link whose receiver
// restarted empty behind its back sends the pages the restored group's
// first epoch holds by name and its mirror says the receiver holds as
// refs, and draws a need. The resend goes every page literal: it reads,
// on the link's lane, what the flush did not (the one read of a page
// held by name left to a destination), and the new receiver's copy
// restores bit for bit.
func TestNeedResendOfAnImageHeldByName(t *testing.T) {
	r := newByHashRig(t)
	w := netback.NewWire(netback.LinkFaultConfig{}, r.clock, netback.NewReceiver(vm.NewPhysMem(0), storage.NewClock()))
	connect := func(g *core.Group) {
		if err := w.Connect(g.ID); err != nil {
			t.Fatal(err)
		}
		r.o.Attach(g, w.Backend())
	}
	r.lineage(t, byHashCase{
		early:  func(g *core.Group) core.Backend { connect(g); return w.Backend() },
		attach: connect,
	})
	rpm := vm.NewPhysMem(0)
	w.Restart(netback.NewReceiver(rpm, storage.NewClock()))
	reads := r.dev.Stats().Reads
	if _, err := r.o.Checkpoint(r.ng, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(r.ng); err != nil {
		t.Fatal(err)
	}
	if _, _, resends := w.Backend().DeltaStats(); resends != 1 {
		t.Fatalf("%d need resends, want 1", resends)
	}
	if n := r.dev.Stats().Reads - reads; n != byHashPages {
		t.Fatalf("the flush and the resend read the source device %d times, want %d: the %d pages the flush read and the rest once",
			n, byHashPages, byHashChanged)
	}
	img, err := w.Receiver().Latest(r.ng.ID)
	if err != nil || img.Epoch != r.ng.Epoch() {
		t.Fatalf("the restarted receiver holds %v (%v), want epoch %d", img, err, r.ng.Epoch())
	}
	byHashHeapHolds(t, restoreOn(t, kernel.NewWith(storage.NewClock(), rpm), img, core.RestoreOpts{}), "restored from the restarted receiver")
}
