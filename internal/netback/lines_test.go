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

// lineRun is the line-delta safety property's lineage: a parent and a
// forked child sharing one SysV segment, restored lazily from a full
// checkpoint and replicated to three members at W=2.
type lineRun struct {
	t     *testing.T
	g     *core.Group
	procs []*kernel.Process // parent, child
	shm   vm.Addr
	rng   *rand.Rand
	fresh int // next heap page no write has touched
	wires []*Wire
	pms   []*vm.PhysMem
	rs    *ReplicaSet
}

const (
	lineHeapPages = 32 // heap pages written before the restore; the rest of the heap is fresh
	lineShmPages  = 4
)

func (r *lineRun) write(p *kernel.Process, addr vm.Addr, data []byte) {
	r.t.Helper()
	if err := p.WriteMem(addr, data); err != nil {
		r.t.Fatal(err)
	}
}

func (r *lineRun) random(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.rng.Uint32())
	}
	return out
}

// mutate applies one seeded operation of the write mix.
func (r *lineRun) mutate() {
	p := r.procs[r.rng.IntN(len(r.procs))]
	page := vm.Addr(r.rng.IntN(lineHeapPages)) * vm.PageSize
	switch r.rng.IntN(7) {
	case 0: // one byte
		r.write(p, p.HeapBase()+page+vm.Addr(r.rng.IntN(vm.PageSize)), r.random(1))
	case 1: // across a line boundary
		k := 1 + r.rng.IntN(8)
		line := vm.Addr(1+r.rng.IntN(vm.PageSize/vm.LineSize-1)) * vm.LineSize
		r.write(p, p.HeapBase()+page+line-vm.Addr(k), r.random(2*k))
	case 2: // across a page boundary
		k := 1 + r.rng.IntN(100)
		r.write(p, p.HeapBase()+page+vm.PageSize-vm.Addr(k), r.random(2*k))
	case 3: // the whole page
		r.write(p, p.HeapBase()+page, r.random(vm.PageSize))
	case 4: // a page no write has touched: a zero-fill
		r.write(p, p.HeapBase()+vm.Addr(r.fresh)*vm.PageSize+vm.Addr(r.rng.IntN(vm.PageSize)), r.random(1))
		r.fresh++
	case 5: // one shm page, written by both processes
		at := r.shm + vm.Addr(r.rng.IntN(lineShmPages))*vm.PageSize
		r.write(r.procs[0], at+vm.Addr(r.rng.IntN(vm.PageSize/2)), r.random(3))
		r.write(r.procs[1], at+vm.PageSize/2+vm.Addr(r.rng.IntN(vm.PageSize/2-3)), r.random(3))
	case 6: // read first, so the write finds the page resident
		buf := make([]byte, 8)
		if err := p.ReadMem(p.HeapBase()+page, buf); err != nil {
			r.t.Fatal(err)
		}
		r.write(p, p.HeapBase()+page+vm.Addr(r.rng.IntN(vm.PageSize)), r.random(1))
	}
}

// memory reads what the oracle compares: each process's heap up to the
// fresh frontier, then the shared segment.
func memory(t *testing.T, procs []*kernel.Process, heapPages int, shm vm.Addr) []byte {
	t.Helper()
	var out []byte
	for _, p := range procs {
		buf := make([]byte, heapPages*vm.PageSize)
		if err := p.ReadMem(p.HeapBase(), buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf...)
	}
	buf := make([]byte, lineShmPages*vm.PageSize)
	if err := procs[0].ReadMem(shm, buf); err != nil {
		t.Fatal(err)
	}
	return append(out, buf...)
}

// groupProcs returns a group's processes, parent first.
func groupProcs(t *testing.T, k *kernel.Kernel, g *core.Group) []*kernel.Process {
	t.Helper()
	var procs []*kernel.Process
	for _, pid := range g.PIDs() {
		p, err := k.Process(pid)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	slices.SortFunc(procs, func(a, b *kernel.Process) int {
		if a.PPID == 0 {
			return -1
		}
		if b.PPID == 0 {
			return 1
		}
		return 0
	})
	if len(procs) != 2 {
		t.Fatalf("group holds %d processes, want 2", len(procs))
	}
	return procs
}

// checkMembers restores every member's newest image on a machine of its
// own and compares it with live memory, bit for bit.
func (r *lineRun) checkMembers(live []byte) {
	r.t.Helper()
	for i, w := range r.wires {
		img, err := w.Receiver().Latest(r.g.ID)
		if err != nil || img.Epoch != r.g.Epoch() {
			r.t.Fatalf("epoch %d: member %d holds %v (err %v)", r.g.Epoch(), i, img, err)
		}
		k := kernel.NewWith(storage.NewClock(), r.pms[i])
		o := core.NewOrchestrator(k)
		ng, _, err := o.RestoreImage(img, 0, core.RestoreOpts{Lazy: true})
		if err != nil {
			r.t.Fatalf("epoch %d: restoring member %d: %v", r.g.Epoch(), i, err)
		}
		procs := groupProcs(r.t, k, ng)
		if got := memory(r.t, procs, r.fresh, r.shm); !bytes.Equal(got, live) {
			at := 0
			for at < len(live) && got[at] == live[at] {
				at++
			}
			r.t.Fatalf("epoch %d: member %d differs from live memory at byte %d", r.g.Epoch(), i, at)
		}
		for _, p := range procs {
			k.Exit(p, 0)
			if err := k.Reap(p); err != nil {
				r.t.Fatal(err)
			}
		}
		o.Unpersist(ng)
		o.Close()
	}
}

// TestLineDeltaSafety is the sub-page delta's safety property: under a
// seeded mix of one-byte, line-straddling, page-straddling and
// whole-page writes, zero-fills, writes after a lazy restore and a shm
// page written by two processes, 100 epochs over three links at W=2 —
// one receiver restarted empty half way, behind the sender's back —
// leave every member holding a full base and the floor image, restoring
// bit-identical to live memory, after every Sync. Line entries must carry pages on every link, each rebuilt by
// its receiver, and the restarted member must have drawn exactly one
// full resend.
func TestLineDeltaSafety(t *testing.T) {
	const epochs, opsPerEpoch, restartAt = 100, 6, 50
	m := newMachine()
	p, g0 := spawn(t, m)
	child, err := m.k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	child.SetProgram(&counter{addr: child.HeapBase()})
	m.o.AddProcess(g0, child)
	seg, err := m.k.ShmGet(9, lineShmPages*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	shm, err := m.k.ShmAttach(p, seg)
	if err != nil {
		t.Fatal(err)
	}
	if at, err := m.k.ShmAttach(child, seg); err != nil || at != shm {
		t.Fatalf("shm attached at %#x and %#x (err %v)", shm, at, err)
	}
	r := &lineRun{t: t, shm: shm, rng: rand.New(rand.NewPCG(1, 26)), fresh: lineHeapPages}
	for _, q := range []*kernel.Process{p, child} {
		r.write(q, q.HeapBase(), r.random(lineHeapPages*vm.PageSize))
	}
	r.write(p, shm, r.random(lineShmPages*vm.PageSize))
	m.o.Attach(g0, core.NewMemoryBackend(m.k.Mem, 0))
	if _, err := m.o.Checkpoint(g0, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := m.o.Sync(g0); err != nil {
		t.Fatal(err)
	}
	// The replicated lineage is a lazy restore of that checkpoint: every
	// page starts in the restore source, and its first write pages it in.
	if r.g, _, err = m.o.RestoreImage(g0.LastImage(), 0, core.RestoreOpts{Lazy: true}); err != nil {
		t.Fatal(err)
	}
	r.procs = groupProcs(t, m.k, r.g)

	r.rs = NewReplicaSet(2)
	for i := 0; i < 3; i++ {
		pm := vm.NewPhysMem(0)
		w := NewWire(LinkFaultConfig{}, m.clock, NewReceiver(pm, storage.NewClock()))
		if err := w.Connect(r.g.ID); err != nil {
			t.Fatal(err)
		}
		r.rs.Add(string(rune('a'+i)), w.Backend(), w.Receiver())
		r.wires, r.pms = append(r.wires, w), append(r.pms, pm)
	}
	r.rs.AttachAll(m.o, r.g)

	for e := 1; e <= epochs; e++ {
		full := e == 1
		if e == restartAt {
			// Member 1 comes back empty; its sender still believes it
			// holds everything acked. The checkpoint after a restart is
			// full, as the demotion doctrine has it.
			r.pms[1] = vm.NewPhysMem(0)
			r.wires[1].Restart(NewReceiver(r.pms[1], storage.NewClock()))
			r.rs.Links()[1].Recv = r.wires[1].Receiver()
			full = true
		}
		for i := 0; i < opsPerEpoch; i++ {
			r.mutate()
		}
		if _, err := m.o.Checkpoint(r.g, core.CheckpointOpts{Full: full}); err != nil {
			t.Fatal(err)
		}
		if err := m.o.Sync(r.g); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		for i, w := range r.wires {
			checkChain(t, w.Receiver(), r.g.ID, r.g.Epoch(), fmt.Sprintf("epoch %d member %d", e, i))
		}
		r.checkMembers(memory(t, r.procs, r.fresh, r.shm))
	}

	for i, w := range r.wires {
		lines, patched := w.Backend().LinesSent(), w.Receiver().BlockStats().Patched
		_, _, resends := w.Backend().DeltaStats()
		want := int64(0)
		if i == 1 {
			want = 1 // the refs of the full epoch that found the receiver empty
		}
		// A restarted receiver counts from its restart; the others patch
		// every page their sender sent as lines.
		if resends != want || lines < epochs || patched == 0 || patched > lines || i != 1 && patched != lines {
			t.Errorf("member %d: %d full resends (want %d), %d pages sent as lines, %d patched",
				i, resends, want, lines, patched)
		}
	}
}

// rewrite returns epoch's image of the one-object lineage prev starts:
// prev's pages, each changed in one byte of line idx%64, with the masks
// a barrier would record — except that forged, when set, also changes
// a byte of line 40 of page 3 without saying so.
func rewrite(t testing.TB, pm *vm.PhysMem, prev *core.Image, epoch uint64, forged bool) *core.Image {
	t.Helper()
	img := &core.Image{Group: prev.Group, Epoch: epoch, Name: prev.Name,
		Memory: map[uint64]*core.MemImage{1: {ObjID: 1, Name: "heap", Size: 1 << 30}}}
	mi := img.Memory[1]
	for _, p := range prev.Memory[1].Pages {
		cp, err := pm.AllocCopy(p.Frame)
		if err != nil {
			t.Fatal(err)
		}
		line := p.Idx % 64
		cp.Data[line*vm.LineSize+1]++
		mi.Pages = append(mi.Pages, vm.Page{Idx: p.Idx, Frame: cp, Lines: 1 << line})
	}
	if forged {
		mi.Pages[3].Frame.Data[40*vm.LineSize]++ // prev's pages are 0, 1, ...
	}
	return img
}

// heldAsSent checks that the receiver holds the sender's bytes for
// every page of img.
func heldAsSent(t *testing.T, recv *Receiver, img *core.Image) {
	t.Helper()
	held, err := recv.ImageAt(img.Group, img.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range img.Memory[1].Pages {
		if idx := p.Idx; !bytes.Equal(held.ResolvePage(1, idx), p.Frame.Data) {
			t.Fatalf("epoch %d page %d: the receiver does not hold the sender's bytes", img.Epoch, idx)
		}
	}
}

// TestForgedLineEntryDrawsNeed: a line entry whose lines do not rebuild
// the page its hash names — here the mask leaves out a line the page
// was written in — is never installed: the receiver asks for the epoch
// in full and ends up holding the sender's bytes. An honest epoch after
// it goes as lines again and is rebuilt from the resent one.
func TestForgedLineEntryDrawsNeed(t *testing.T) {
	src, pm := vm.NewPhysMem(0), vm.NewPhysMem(0)
	w := NewWire(LinkFaultConfig{}, storage.NewClock(), NewReceiver(pm, nil))
	if err := w.Connect(1); err != nil {
		t.Fatal(err)
	}
	rb, recv := w.Backend(), w.Receiver()
	e1 := pageImage(t, src, 1, true, pages(0, 8, 100))
	e2 := rewrite(t, src, e1, 2, true)
	e3 := rewrite(t, src, e2, 3, false)
	for _, img := range []*core.Image{e1, e2} {
		if _, err := rb.Flush(img, nil); err != nil {
			t.Fatal(err)
		}
		heldAsSent(t, recv, img)
	}
	if _, _, resends := rb.DeltaStats(); resends != 1 || recv.NeedsSent() != 1 || rb.LinesSent() != 0 || recv.BlockStats().Patched != 0 {
		t.Fatalf("forged epoch: %d resends, %d needs, %d pages sent as lines, %d patched; want 1, 1, 0, 0",
			resends, recv.NeedsSent(), rb.LinesSent(), recv.BlockStats().Patched)
	}
	if _, err := rb.Flush(e3, nil); err != nil {
		t.Fatal(err)
	}
	heldAsSent(t, recv, e3)
	if rb.LinesSent() != 8 || recv.BlockStats().Patched != 8 {
		t.Fatalf("honest epoch: %d pages sent as lines, %d patched, want 8", rb.LinesSent(), recv.BlockStats().Patched)
	}
}

// TestSentBytesCountsUnackedFrames: SentBytes counts what was placed on
// the wire — a delta whose ack is lost, and the full resend a need drew,
// though the flushes that sent them failed.
func TestSentBytesCountsUnackedFrames(t *testing.T) {
	src := vm.NewPhysMem(0)
	w := NewWire(LinkFaultConfig{}, storage.NewClock(), NewReceiver(vm.NewPhysMem(0), nil))
	if err := w.Connect(1); err != nil { // reply 1: the hello ack
		t.Fatal(err)
	}
	rb := w.Backend()
	e1 := pageImage(t, src, 1, true, pages(0, 4, 1))
	e2 := pageImage(t, src, 2, false, pages(0, 4, 1))
	e3 := pageImage(t, src, 3, false, pages(0, 4, 50))
	if _, err := rb.Flush(e1, nil); err != nil { // reply 2: its ack
		t.Fatal(err)
	}
	want, _, _ := e1.EncodeDeltaCompact(nil)
	sent := int64(len(want))

	// The receiver comes back empty behind the sender's back: epoch 2's
	// refs draw a need (reply 3) and a full resend, whose ack (reply 4)
	// is lost.
	w.Restart(NewReceiver(vm.NewPhysMem(0), nil))
	w.Link().DropFrames(BtoA, 4, 4)
	if _, err := rb.Flush(e2, nil); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("flush with its ack lost: err = %v, want ErrDisconnected", err)
	}
	refs, _, _ := e2.EncodeDeltaCompact(func(objstore.Hash) bool { return true })
	sent += int64(len(refs) + len(e2.EncodeDelta()))
	if rb.SentBytes() != sent {
		t.Fatalf("after a need and a lost ack: SentBytes = %d, want %d", rb.SentBytes(), sent)
	}

	// Reconnected (reply 5), epoch 3 loses its ack (reply 6) too.
	if err := w.Reset(1); err != nil {
		t.Fatal(err)
	}
	w.Link().DropFrames(BtoA, 6, 6)
	if _, err := rb.Flush(e3, nil); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("flush with its ack lost: err = %v, want ErrDisconnected", err)
	}
	literal, _, _ := e3.EncodeDeltaCompact(nil)
	if sent += int64(len(literal)); rb.SentBytes() != sent {
		t.Fatalf("after a lost ack: SentBytes = %d, want %d", rb.SentBytes(), sent)
	}
}

// TestForkMidChainGoesWhole: a child forked between two epochs of a
// replicated lineage writes a line of each page it shares with its
// parent. Its object has no page at the epoch the receiver acked, so
// its first capture goes whole, never as line entries the receiver could
// not rebuild: no need is drawn, only the parent's pages go as lines,
// and the member restores both heaps as they are live.
func TestForkMidChainGoesWhole(t *testing.T) {
	const heapPages = 8
	m := newMachine()
	defer m.o.Close()
	p, g := spawn(t, m)
	pm := vm.NewPhysMem(0)
	w := NewWire(LinkFaultConfig{}, m.clock, NewReceiver(pm, storage.NewClock()))
	if err := w.Connect(g.ID); err != nil {
		t.Fatal(err)
	}
	m.o.Attach(g, w.Backend())
	rng := rand.New(rand.NewPCG(39, 1))
	random := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Uint32())
		}
		return out
	}
	write := func(p *kernel.Process, addr vm.Addr, data []byte) {
		t.Helper()
		if err := p.WriteMem(addr, data); err != nil {
			t.Fatal(err)
		}
	}
	// poke writes one line of each heap page of p.
	poke := func(p *kernel.Process) {
		for pg := 0; pg < heapPages; pg++ {
			write(p, p.HeapBase()+vm.Addr(pg*vm.PageSize+5*vm.LineSize), random(vm.LineSize))
		}
	}
	checkpoint := func() {
		t.Helper()
		if _, err := m.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := m.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	write(p, p.HeapBase(), random(heapPages*vm.PageSize))
	checkpoint()
	poke(p)
	checkpoint()
	child, err := m.k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	child.SetProgram(&counter{addr: child.HeapBase()})
	m.o.AddProcess(g, child)
	lines := w.Backend().LinesSent()
	poke(child)
	poke(p)
	checkpoint()

	if _, _, resends := w.Backend().DeltaStats(); resends != 0 {
		t.Fatalf("%d full resends: the receiver could not rebuild a page it was sent", resends)
	}
	if got := w.Backend().LinesSent() - lines; got != heapPages {
		t.Fatalf("%d pages went as lines in the fork's epoch, want the parent's %d", got, heapPages)
	}
	img, err := w.Receiver().Latest(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.NewWith(storage.NewClock(), pm)
	ng, _, err := core.NewOrchestrator(k).RestoreImage(img, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	live := groupProcs(t, m.k, g)
	for i, q := range groupProcs(t, k, ng) {
		want, got := make([]byte, heapPages*vm.PageSize), make([]byte, heapPages*vm.PageSize)
		if err := live[i].ReadMem(live[i].HeapBase(), want); err != nil {
			t.Fatal(err)
		}
		if err := q.ReadMem(q.HeapBase(), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored process %d: heap differs from its live twin", i)
		}
	}
}
