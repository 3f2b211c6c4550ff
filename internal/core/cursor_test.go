package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestDetachReleasesOwedEpochs: the epochs a sick backend owes are
// pinned for its sake only. When it is detached (what the placer does
// to every dead wire), when the group is dissolved, and when a fenced
// group is demoted, their frames go back to the allocator and the
// group's readings stop counting the backend.
func TestDetachReleasesOwedEpochs(t *testing.T) {
	const owed = 50
	// sick returns a group on a healthy store beside a failing backend
	// that owes `owed` retired epochs, and the resident frame count from
	// before the fault.
	sick := func(t *testing.T) (*rig, *Group, int64) {
		r := newRig(t)
		g, err := r.o.Persist("app", spawnCounter(t, r))
		if err != nil {
			t.Fatal(err)
		}
		lb := &ledgerBackend{}
		r.o.Attach(g, r.store)
		r.o.Attach(g, lb)
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
		base := r.k.Mem.Resident()
		lb.setErr(errors.New("cable unplugged"))
		for i := 0; i < owed; i++ {
			r.k.Run(2)
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
			r.o.Drain(g)
		}
		if d := g.Durable(); d != owed+1 {
			t.Fatalf("durable = %d, want %d (the store carries the group)", d, owed+1)
		}
		if got := r.k.Mem.Resident(); got < base+owed-1 {
			t.Fatalf("resident = %d frames with %d epochs owed, want them pinned (before the fault: %d)", got, owed, base)
		}
		if got := g.Replicated(); got != 1 {
			t.Fatalf("replicated = %d while the backend owes everything after epoch 1", got)
		}
		return r, g, base
	}
	settled := func(t *testing.T, r *rig, g *Group, base int64) {
		t.Helper()
		if got := r.k.Mem.Resident(); got != base {
			t.Fatalf("resident = %d frames, want %d as before the fault", got, base)
		}
		if rep, d := g.Replicated(), g.Durable(); rep != d {
			t.Fatalf("replicated = %d, durable = %d: nobody owes anything any more", rep, d)
		}
	}

	t.Run("detach", func(t *testing.T) {
		r, g, base := sick(t)
		if err := r.o.Detach(g, "ledger"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			r.k.Run(2)
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
		settled(t, r, g, base)
		if infos := g.Health(); len(infos) != 1 || infos[0].Name != r.store.Name() {
			t.Fatalf("health after detach = %+v, want the store alone", infos)
		}
		g.healthMu.Lock()
		records := len(g.health)
		g.healthMu.Unlock()
		if records != 1 {
			t.Fatalf("%d health records after detach, want the store's alone", records)
		}
	})
	t.Run("unpersist", func(t *testing.T) {
		r, g, base := sick(t)
		r.o.Unpersist(g)
		if got := r.k.Mem.Resident(); got != base {
			t.Fatalf("resident = %d frames after Unpersist, want %d as before the fault", got, base)
		}
	})
	t.Run("demote", func(t *testing.T) {
		r, g, base := sick(t)
		g.markFenced(g.Generation()+1, g.Durable())
		if _, err := r.o.DemoteStale(g); err != nil {
			t.Fatal(err)
		}
		settled(t, r, g, base)
		for _, info := range g.Health() {
			if info.Pending != 0 {
				t.Fatalf("%s still owes %d epochs of the fenced line", info.Name, info.Pending)
			}
		}
	})
	t.Run("rollback", func(t *testing.T) {
		// A backend that has owed every epoch since the first leaves the
		// whole chain in memory, so a rollback picks the newest image
		// there — and dissolving the old group then releases it. The
		// rollback must read the epoch back from the store that holds it.
		r := newRig(t)
		p := spawnCounter(t, r)
		g, err := r.o.Persist("app", p)
		if err != nil {
			t.Fatal(err)
		}
		lb := &ledgerBackend{}
		lb.setErr(errors.New("cable unplugged"))
		r.o.Attach(g, r.store)
		r.o.Attach(g, lb)
		for i := 0; i < 3; i++ {
			r.k.Run(2)
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		want := counterValue(p)
		r.k.Run(3)
		ng, notice, err := r.api.Rollback(p)
		if err != nil {
			t.Fatalf("rollback with a backend owing the newest epoch: %v", err)
		}
		if notice.ToEpoch != 3 {
			t.Fatalf("rolled back to epoch %d, want 3", notice.ToEpoch)
		}
		np, err := r.k.Process(ng.PIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(np); got != want {
			t.Fatalf("counter after rollback = %d, want %d", got, want)
		}
	})
	t.Run("rollback with the store down", func(t *testing.T) {
		// The other way round: the store is down and owes every epoch,
		// which a backend that cannot load them (a replica serves none)
		// made durable. No backend serves the newest; the live chain the
		// store's debt keeps unreleased does, bit for bit.
		r := newCacheRig(0)
		p, g := r.spawn(t, r.sb)
		r.o.Attach(g, &ledgerBackend{})
		r.fd.Down()
		heap := heapPages(0, 8, 3)
		for i := 0; i < 2; i++ {
			writeHeap(t, p, 1, heap[:(i+1)*len(heap)/2])
			r.k.Run(2)
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
			r.o.Drain(g)
		}
		if d, e := g.Durable(), g.Epoch(); d != e {
			t.Fatalf("durable = %d, epoch = %d: the second backend should carry the group", d, e)
		}
		want := counterValue(p)
		writeHeap(t, p, 1, heapPages(0, 8, 4))
		r.k.Run(3)
		ng, notice, err := NewAPI(r.o).Rollback(p)
		if err != nil {
			t.Fatalf("rollback with the store owing the newest epoch: %v", err)
		}
		if notice.ToEpoch != 2 {
			t.Fatalf("rolled back to epoch %d, want 2", notice.ToEpoch)
		}
		np, err := r.k.Process(ng.PIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(np); got != want {
			t.Fatalf("counter after rollback = %d, want %d", got, want)
		}
		checkHeap(t, "the heap after the rollback", np, 1, heap)
	})
}

// TestFaultCursorLedger drives a store and three ledger backends
// through a seeded schedule of faults, heals, detaches, attaches and
// syncs, and checks after every epoch that what the group reports about
// who holds what agrees with what the backends themselves recorded:
// each accepted its epochs in order and without a gap from its attach
// point, Replicated() is the W-th highest accepted epoch (the minimum
// without a quorum), Health().Pending is what the backend was offered
// and has not accepted, and once everything has healed no frame is
// left pinned.
func TestFaultCursorLedger(t *testing.T) {
	for _, w := range []int{0, 2} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			const epochs = 200
			rng := rand.New(rand.NewSource(int64(19 + w)))
			r := newRig(t)
			g, err := r.o.Persist("app", spawnCounter(t, r))
			if err != nil {
				t.Fatal(err)
			}
			g.SetQuorum(QuorumPolicy{W: w})
			r.o.Attach(g, r.store)
			type member struct {
				lb       *ledgerBackend
				attached bool
				calls    int // len(lb.calls) when it was attached
				took     int // len(lb.epochs) when it was attached
			}
			members := make([]*member, 3)
			for i := range members {
				members[i] = &member{lb: &ledgerBackend{name: fmt.Sprintf("ledger%d", i)}, attached: true}
				r.o.Attach(g, members[i].lb)
			}
			injected := errors.New("cable unplugged")

			// check compares the group's readings with the ledgers. The
			// pipeline is idle: every queued epoch was attempted, and the
			// newest attempted one is the stalled head, if there is one.
			check := func(step int) {
				t.Helper()
				durable := g.Durable()
				attempted := durable
				if g.QueueDepth() > 0 {
					attempted++
				}
				floors := []uint64{durable} // the store is always caught up
				pending := map[string]int{r.store.Name(): 0}
				for _, m := range members {
					if !m.attached {
						continue
					}
					offered, took := m.lb.offered()[m.calls:], m.lb.accepted()[m.took:]
					floor := durable
					if len(offered) > 0 {
						cursor := offered[0] - 1 // the attach point
						for i, e := range took {
							if e != offered[0]+uint64(i) {
								t.Fatalf("step %d: %s accepted %v since its attach at %d: out of order or with a gap",
									step, m.lb.Name(), took, offered[0])
							}
							cursor = e
						}
						floor = min(floor, cursor)
						pending[m.lb.Name()] = int(attempted - min(attempted, cursor))
					}
					floors = append(floors, floor)
				}
				need := len(floors)
				if w > 0 {
					need = w
				}
				if got, want := g.Replicated(), QuorumFloor(floors, need); got != want {
					t.Fatalf("step %d: Replicated() = %d, want %d (floors %v, durable %d)", step, got, want, floors, durable)
				}
				infos := g.Health()
				if len(infos) != len(floors) {
					t.Fatalf("step %d: %d health rows for %d attached backends", step, len(infos), len(floors))
				}
				for _, info := range infos {
					if info.Pending != pending[info.Name] {
						t.Fatalf("step %d: %s Pending = %d, want %d (durable %d, attempted %d)",
							step, info.Name, info.Pending, pending[info.Name], durable, attempted)
					}
				}
			}

			var base int64
			for step := 1; step <= epochs; step++ {
				m := members[rng.Intn(len(members))]
				switch op := rng.Intn(10); {
				case step == 1:
					// A clean first epoch is the frame baseline.
				case op < 3:
					m.lb.setErr(injected)
				case op < 6:
					m.lb.setErr(nil)
				case op == 6 && m.attached:
					if err := r.o.Detach(g, m.lb.Name()); err != nil {
						t.Fatal(err)
					}
					m.attached = false
				case op == 7 && !m.attached:
					m.calls, m.took = len(m.lb.offered()), len(m.lb.accepted())
					m.attached = true
					r.o.Attach(g, m.lb)
				case op == 8:
					_ = r.o.Sync(g) // fails while a member is sick
				}
				r.k.Run(2)
				if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
					t.Fatal(err)
				}
				r.o.Drain(g)
				check(step)
				if step == 1 {
					base = r.k.Mem.Resident()
				}
			}

			for _, m := range members {
				m.lb.setErr(nil)
			}
			if err := r.o.Sync(g); err != nil {
				t.Fatalf("sync after healing everything: %v", err)
			}
			check(epochs + 1)
			if d := g.Durable(); d != epochs {
				t.Fatalf("durable = %d after the final sync, want %d", d, epochs)
			}
			if got := r.k.Mem.Resident(); got != base {
				t.Fatalf("resident = %d frames after heal and sync, want %d as before the first fault", got, base)
			}
		})
	}
}
