package core

import (
	"testing"

	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// forkPages is how many heap pages the fork tests write and compare.
const forkPages = 12

// fillHeap writes heap pages [from, to) of p whole, each page's bytes a
// function of tag, the page and the offset.
func fillHeap(t *testing.T, p *kernel.Process, from, to int, tag byte) {
	t.Helper()
	buf := make([]byte, vm.PageSize)
	for pg := from; pg < to; pg++ {
		for i := range buf {
			buf[i] = tag ^ byte(pg*31) ^ byte(i*13+i>>8)
		}
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			t.Fatal(err)
		}
	}
}

// pokeHeap writes one line into each of heap pages [from, to) of p: a
// write that leaves the rest of the page as it was.
func pokeHeap(t *testing.T, p *kernel.Process, from, to int, tag byte) {
	t.Helper()
	line := make([]byte, vm.LineSize)
	for pg := from; pg < to; pg++ {
		for i := range line {
			line[i] = tag + byte(pg+i)
		}
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize+3*vm.LineSize), line); err != nil {
			t.Fatal(err)
		}
	}
}

// restoredTree returns the processes of a restored group, parent first:
// one, or a parent and the child whose PPID names it.
func restoredTree(t *testing.T, r *rig, g *Group) []*kernel.Process {
	t.Helper()
	var procs []*kernel.Process
	for _, pid := range g.PIDs() {
		p, err := r.k.Process(pid)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	if len(procs) == 2 && procs[0].PPID == procs[1].PID {
		procs[0], procs[1] = procs[1], procs[0]
	}
	if len(procs) == 2 && procs[1].PPID != procs[0].PID {
		t.Fatalf("restored processes %d (ppid %d) and %d (ppid %d) are not a parent and its child",
			procs[0].PID, procs[0].PPID, procs[1].PID, procs[1].PPID)
	}
	return procs
}

// TestForkedTreeRestoresBitIdentical: a forked process tree checkpoints
// and restores with every private heap page as its live twin holds it —
// the pages written before the fork, which the two processes share until
// one of them writes, as well as each side's writes after it. The fork
// comes before the first checkpoint, between two incremental ones, or
// with the child reaped before the next; the restore is eager or lazy,
// from memory or from the store.
func TestForkedTreeRestoresBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		// run builds the tree on a persisted, attached group and returns
		// it with its live processes, parent first.
		run func(t *testing.T, r *rig, b Backend) (*Group, []*kernel.Process)
	}{
		{"fork-before-first-checkpoint", func(t *testing.T, r *rig, b Backend) (*Group, []*kernel.Process) {
			parent := spawnCounter(t, r)
			fillHeap(t, parent, 0, forkPages, 1)
			child, _ := r.k.Fork(parent)
			pokeHeap(t, parent, 0, 4, 2)
			pokeHeap(t, child, 2, 6, 3)
			g, _ := r.o.Persist("tree", parent)
			r.o.Attach(g, b)
			checkpoint(t, r, g)
			pokeHeap(t, parent, 6, 8, 4)
			pokeHeap(t, child, 7, 10, 5)
			checkpoint(t, r, g)
			return g, []*kernel.Process{parent, child}
		}},
		{"fork-between-incrementals", func(t *testing.T, r *rig, b Backend) (*Group, []*kernel.Process) {
			parent := spawnCounter(t, r)
			fillHeap(t, parent, 0, forkPages, 1)
			g, _ := r.o.Persist("tree", parent)
			r.o.Attach(g, b)
			checkpoint(t, r, g)
			pokeHeap(t, parent, 0, 3, 2)
			checkpoint(t, r, g)
			child, _ := r.k.Fork(parent)
			r.o.AddProcess(g, child)
			pokeHeap(t, parent, 2, 5, 3)
			pokeHeap(t, child, 4, 8, 4)
			checkpoint(t, r, g)
			return g, []*kernel.Process{parent, child}
		}},
		{"child-reaped-before-checkpoint", func(t *testing.T, r *rig, b Backend) (*Group, []*kernel.Process) {
			parent := spawnCounter(t, r)
			fillHeap(t, parent, 0, forkPages, 1)
			g, _ := r.o.Persist("tree", parent)
			r.o.Attach(g, b)
			checkpoint(t, r, g)
			child, _ := r.k.Fork(parent)
			r.o.AddProcess(g, child)
			pokeHeap(t, child, 0, 6, 2)
			pokeHeap(t, parent, 3, 9, 3)
			r.k.Exit(child, 0)
			if err := r.k.Reap(child); err != nil {
				t.Fatal(err)
			}
			checkpoint(t, r, g)
			return g, []*kernel.Process{parent}
		}},
	}
	for _, c := range cases {
		for _, backend := range []string{"memory", "store"} {
			for _, lazy := range []bool{false, true} {
				name := c.name + "/" + backend + "/eager"
				if lazy {
					name = c.name + "/" + backend + "/lazy"
				}
				t.Run(name, func(t *testing.T) {
					r := newRig(t)
					t.Cleanup(r.o.Close)
					var b Backend = r.mem
					if backend == "store" {
						b = r.store
					}
					g, live := c.run(t, r, b)
					if err := r.o.Sync(g); err != nil {
						t.Fatal(err)
					}
					ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: lazy})
					if err != nil {
						t.Fatal(err)
					}
					restored := restoredTree(t, r, ng)
					if len(restored) != len(live) {
						t.Fatalf("restored %d processes, want %d", len(restored), len(live))
					}
					for i, p := range live {
						sameHeap(t, p, restored[i], forkPages)
					}
				})
			}
		}
	}
}

func checkpoint(t *testing.T, r *rig, g *Group) {
	t.Helper()
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestForkOfLazilyRestoredProcess: a lazily restored process pages from
// the store; a fork of it must page the same bytes in on both sides,
// keep each side's writes its own, and checkpoint — the child's first
// capture inside an incremental barrier — into a chain that restores
// both as they are.
func TestForkOfLazilyRestoredProcess(t *testing.T) {
	r := newRig(t)
	t.Cleanup(r.o.Close)
	orig := spawnCounter(t, r)
	fillHeap(t, orig, 0, forkPages, 1)
	g, _ := r.o.Persist("app", orig)
	r.o.Attach(g, r.store)
	checkpoint(t, r, g)
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	parent := restoredTree(t, r, ng)[0]
	pokeHeap(t, parent, 0, 1, 2) // one page faulted in before the fork
	checkpoint(t, r, ng)
	child, err := r.k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	// Pages 1.. were never faulted in: both sides read them from the store.
	want := spawnCounter(t, r)
	fillHeap(t, want, 0, forkPages, 1)
	pokeHeap(t, want, 0, 1, 2)
	sameHeap(t, want, child, forkPages)
	sameHeap(t, want, parent, forkPages)

	r.o.AddProcess(ng, child)
	pokeHeap(t, child, 3, 6, 3)
	pokeHeap(t, parent, 5, 8, 4)
	checkpoint(t, r, ng)
	pokeHeap(t, want, 5, 8, 4)
	sameHeap(t, want, parent, forkPages)
	if err := r.o.Sync(ng); err != nil {
		t.Fatal(err)
	}
	for _, lazy := range []bool{false, true} {
		again, _, err := r.o.Restore(ng, 0, RestoreOpts{Lazy: lazy})
		if err != nil {
			t.Fatal(err)
		}
		restored := restoredTree(t, r, again)
		if len(restored) != 2 {
			t.Fatalf("lazy=%v: restored %d processes, want 2", lazy, len(restored))
		}
		sameHeap(t, parent, restored[0], forkPages)
		sameHeap(t, child, restored[1], forkPages)
	}
}

// TestForkKeepsMctlHints: a fork child's mappings carry the sls_mctl
// hints of the parent's — a region excluded from checkpoints and
// restored eagerly stays both — so the child's group never persists a
// scratch region its parent excludes.
func TestForkKeepsMctlHints(t *testing.T) {
	const scratchPages = 4
	r := newRig(t)
	parent := spawnCounter(t, r)
	fillHeap(t, parent, 0, 2, 1)
	g, _ := r.o.Persist("parent", parent)
	r.o.Attach(g, r.store)
	m, err := parent.Space.MapAnon(scratchPages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false, "scratch")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.api.Mctl(parent, m.Start, false); err != nil {
		t.Fatal(err)
	}
	if err := r.api.MctlPolicy(parent, m.Start, vm.RestoreEager); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < scratchPages; pg++ {
		if err := parent.WriteMem(m.Start+vm.Addr(pg*vm.PageSize), []byte("scratch")); err != nil {
			t.Fatal(err)
		}
	}
	child, err := r.k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	cm := child.Space.Find(m.Start)
	if cm == nil || !cm.NoPersist || cm.Restore != vm.RestoreEager {
		t.Fatalf("the child's scratch mapping is %+v; want NoPersist and RestoreEager, as the parent's", cm)
	}
	cg, _ := r.o.Persist("child", child)
	r.o.Attach(cg, r.store)
	checkpoint(t, r, cg)
	img := cg.LastImage()
	if mi, ok := img.Memory[cm.Obj.ID]; ok {
		t.Fatalf("the child's checkpoint holds %d pages of the scratch region its parent excludes", mi.PageCount())
	}
	if len(img.Memory) == 0 {
		t.Fatal("the child's checkpoint holds no memory at all")
	}
}
