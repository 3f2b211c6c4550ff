package netback

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// heatOracle records, per lineage and epoch, every persisted object's
// full counter list at the barrier — what a full barrier would have
// written — and checks what each holder of that epoch resolves against
// it.
type heatOracle struct {
	t    *testing.T
	want map[[2]uint64]map[uint64][]vm.PageHeat // (group, epoch) -> object -> heat
	pm   *vm.PhysMem                            // decoded copies of images land here
}

// record notes the heat of p's persisted objects at group's epoch.
func (h *heatOracle) record(p *kernel.Process, group, epoch uint64) {
	objs := make(map[uint64][]vm.PageHeat)
	for _, m := range p.Space.Mappings() {
		if m.NoPersist {
			continue
		}
		var heat []vm.PageHeat
		for pg := int64(0); pg < m.Obj.Size()/vm.PageSize; pg++ {
			if n := m.Obj.Heat(pg); n != 0 {
				heat = append(heat, vm.PageHeat{Page: pg, Count: n})
			}
		}
		objs[m.Obj.ID] = heat
	}
	h.want[[2]uint64{group, epoch}] = objs
}

// check compares the heat that heat resolves for every object of
// (group, epoch) with the barrier's.
func (h *heatOracle) check(where string, group, epoch uint64, heat func(id uint64) ([]vm.PageHeat, error)) {
	h.t.Helper()
	objs, ok := h.want[[2]uint64{group, epoch}]
	if !ok {
		h.t.Fatalf("%s: holds epoch %d of group %d, which no barrier took", where, epoch, group)
	}
	for id, want := range objs {
		got, err := heat(id)
		if err != nil {
			h.t.Fatalf("%s: epoch %d of group %d, object %d: %v", where, epoch, group, id, err)
		}
		if !slices.Equal(got, want) {
			h.t.Fatalf("%s: epoch %d of group %d, object %d resolves to heat %v, the barrier's is %v", where, epoch, group, id, got, want)
		}
	}
}

// checkImage checks an image's chain, whose frames come from pm, through
// the file Encode writes.
func (h *heatOracle) checkImage(where string, img *core.Image, pm *vm.PhysMem) {
	h.t.Helper()
	file, err := img.Encode(pm)
	if err != nil {
		h.t.Fatalf("%s: %v", where, err)
	}
	dec, err := core.DecodeImage(file, h.pm)
	if err != nil {
		h.t.Fatalf("%s: %v", where, err)
	}
	defer dec.Release(h.pm)
	h.check(where, img.Group, img.Epoch, func(id uint64) ([]vm.PageHeat, error) {
		mi, ok := dec.Memory[id]
		if !ok {
			return nil, fmt.Errorf("not in the image")
		}
		return mi.Heat, nil
	})
}

// checkStore checks every epoch a store holds of group, through the
// resolved page map and, unless the store is a reopened copy, the lazy
// restore's page view. An object with line entries has no page map of
// blocks (ResolvePages refuses it): its heat is the view's.
func (h *heatOracle) checkStore(where string, st *objstore.Store, group uint64, views bool) {
	h.t.Helper()
	for _, m := range st.Manifests(group) {
		h.check(where, group, m.Epoch, func(id uint64) ([]vm.PageHeat, error) {
			_, heat, err := st.ResolvePages(group, 1<<63|id, m.Epoch)
			if errors.Is(err, objstore.ErrLineEntry) {
				v, err := st.ResolveView(group, 1<<63|id, m.Epoch)
				if err != nil {
					return nil, err
				}
				return v.Heat(), nil
			}
			if err != nil || !views {
				return heat, err
			}
			v, err := st.ResolveView(group, 1<<63|id, m.Epoch)
			if err != nil {
				return nil, err
			}
			if vheat := v.Heat(); !slices.Equal(vheat, heat) {
				return nil, fmt.Errorf("the page view resolves heat %v, the page map %v", vheat, heat)
			}
			return heat, nil
		})
	}
}

// TestHeatOracle: an incremental barrier persists only the counters
// touched since the previous one, and every holder of an epoch resolves
// the deltas of its chain to the full counter list the object had at
// that barrier. A seeded schedule of 200 barriers — full ones among
// them, reads and writes between, one restore half way and one barrier
// on the restored group whose flush first fails — is checked after every
// Sync against
//   - the group's in-memory chain and a history-bounded memory backend
//     (which folds its oldest image forward, core.Fold);
//   - a store with a bounded history (TrimHistory's merge-forward), from
//     which an epoch in the middle is dropped now and then (DropEpoch),
//     through ResolvePages and the lazy restore's page view;
//   - a folding replica receiver (base and floor image);
//   - every fortieth epoch, the store persisted and reopened from its
//     device.
func TestHeatOracle(t *testing.T) {
	const barriers, heapPages, restoreAt = 200, 32, 100
	m := newMachine()
	defer m.o.Close()
	rng := rand.New(rand.NewPCG(28, 7))
	h := &heatOracle{t: t, want: make(map[[2]uint64]map[uint64][]vm.PageHeat), pm: vm.NewPhysMem(0)}
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, m.clock), m.clock, storage.FaultConfig{})
	st := objstore.Create(fd, m.clock)
	sb := core.NewStoreBackend(st, m.k.Mem, m.clock)
	sb.HistoryLimit = 5
	rpm := vm.NewPhysMem(0)
	recv := NewReceiver(rpm, storage.NewClock())

	var mb *core.MemoryBackend
	attach := func(g *core.Group) {
		w := NewWire(LinkFaultConfig{}, m.clock, recv)
		if err := w.Connect(g.ID); err != nil {
			t.Fatal(err)
		}
		mb = core.NewMemoryBackend(m.k.Mem, 4)
		m.o.Attach(g, sb)
		m.o.Attach(g, mb)
		m.o.Attach(g, w.Backend())
	}
	p, g := spawn(t, m)
	if _, err := p.Sbrk(heapPages * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	attach(g)

	// touch reads and writes a few heap pages, the low ones hotter.
	touch := func(p *kernel.Process) {
		buf := make([]byte, 16)
		for i, n := 0, rng.IntN(12); i < n; i++ {
			pg := rng.IntN(heapPages)
			if rng.IntN(2) == 0 {
				pg = rng.IntN(1 + pg)
			}
			at := p.HeapBase() + vm.Addr(pg*vm.PageSize+rng.IntN(vm.PageSize-len(buf)))
			var err error
			if rng.IntN(3) == 0 {
				buf[0] = byte(rng.Uint32())
				err = p.WriteMem(at, buf)
			} else {
				err = p.ReadMem(at, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	survived := false
	for b := 1; b <= barriers; b++ {
		if b == restoreAt {
			// Half way the lineage restores lazily from the store, prefetch
			// resolving its heat through the page view, and carries on as a
			// new group. Its first barrier is full and names the pages still
			// in the store; its flush reads them. With the device down the
			// barrier succeeds and the flush fails, typed, leaving the
			// epoch owed; with the device back Sync makes it durable, and
			// it restores to the heap the barrier saw.
			img, rt, err := sb.LoadLazy(g.ID, 0)
			if err != nil {
				t.Fatal(err)
			}
			ng, bd, err := m.o.RestoreImage(img, rt, core.RestoreOpts{Lazy: true, Prefetch: 4})
			if err != nil {
				t.Fatal(err)
			}
			if bd.Prefetched == 0 {
				t.Fatal("the restore prefetched nothing: the store resolved it no heat")
			}
			if p, err = m.k.Process(ng.PIDs()[0]); err != nil {
				t.Fatal(err)
			}
			g = ng
			attach(g)
			touch(p)
			fd.Down()
			ck, err := m.o.Checkpoint(g, core.CheckpointOpts{})
			if err != nil || !ck.Full {
				t.Fatalf("the full barrier over a dead restore source: full=%v, %v", ck.Full, err)
			}
			h.record(p, g.ID, g.Epoch())
			if err := m.o.Sync(g); !errors.Is(err, core.ErrBackendDown) || g.Durable() == g.Epoch() {
				t.Fatalf("Sync over a dead restore source = %v, durable %d of %d; want ErrBackendDown and the epoch owed",
					err, g.Durable(), g.Epoch())
			}
			fd.Up()
			if err := m.o.Sync(g); err != nil || g.Durable() != g.Epoch() {
				t.Fatalf("Sync with the device back = %v, durable %d of %d", err, g.Durable(), g.Epoch())
			}
			img, rt, err = sb.Load(g.ID, g.Epoch())
			if err != nil {
				t.Fatal(err)
			}
			rg, _, err := m.o.RestoreImage(img, rt, core.RestoreOpts{})
			if err != nil {
				t.Fatal(err)
			}
			rp, err := m.k.Process(rg.PIDs()[0])
			if err != nil {
				t.Fatal(err)
			}
			want, got := make([]byte, heapPages*vm.PageSize), make([]byte, heapPages*vm.PageSize)
			if err := p.ReadMem(p.HeapBase(), want); err != nil {
				t.Fatal(err)
			}
			if err := rp.ReadMem(rp.HeapBase(), got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("the epoch flushed after the device came back restores a different heap (%v)", err)
			}
			m.k.Exit(rp, 0)
			if err := m.k.Reap(rp); err != nil {
				t.Fatal(err)
			}
			m.o.Unpersist(rg)
			survived = true
		}
		touch(p)
		full := b%40 == 0
		if _, err := m.o.Checkpoint(g, core.CheckpointOpts{Full: full}); err != nil {
			t.Fatalf("barrier %d: %v", b, err)
		}
		h.record(p, g.ID, g.Epoch())
		if err := m.o.Sync(g); err != nil {
			t.Fatalf("barrier %d: %v", b, err)
		}
		where := func(holder string) string { return fmt.Sprintf("barrier %d (epoch %d), %s", b, g.Epoch(), holder) }

		h.checkImage(where("the group's chain"), g.LastImage(), m.k.Mem)
		for _, e := range mb.History(g.ID) {
			img, _, err := mb.Load(g.ID, e)
			if err != nil {
				t.Fatal(err)
			}
			h.checkImage(where("the memory backend"), img, m.k.Mem)
		}
		for _, e := range recv.ReplicaEpochs(g.ID) {
			img, err := recv.ImageAt(g.ID, e)
			if err != nil {
				t.Fatal(err)
			}
			h.checkImage(where("the replica"), img, rpm)
		}
		if ms := st.Manifests(g.ID); b%7 == 0 && len(ms) >= 3 {
			if err := st.DropEpoch(g.ID, ms[len(ms)-2].Epoch); err != nil {
				t.Fatal(err)
			}
		}
		h.checkStore(where("the store"), st, g.ID, true)
		if b%40 == 0 || b == barriers {
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			re, err := objstore.Open(fd, storage.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			h.checkStore(where("the reopened store"), re, g.ID, false)
		}
	}
	if !survived {
		t.Fatal("the schedule flushed no barrier over a dead restore source")
	}
	if h.pm.Resident() != 0 {
		t.Fatalf("the oracle's decoded images hold %d frames", h.pm.Resident())
	}
}
