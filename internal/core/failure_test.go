package core

import (
	"strings"
	"testing"

	"aurora/internal/interp"
	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// --- failure injection ---

func TestRestoreCorruptImageFails(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.o.Checkpoint(g, CheckpointOpts{})

	img := g.LastImage()
	// Corrupt one metadata record.
	bad := &Image{
		Group: img.Group, Epoch: img.Epoch, Full: true,
		Memory: img.Memory, Roots: img.Roots,
	}
	for _, m := range img.Meta {
		mm := m
		if m.Kind == kernel.KindProcess {
			mm.Data = []byte{0xff} // truncated garbage
		}
		bad.Meta = append(bad.Meta, mm)
	}
	if _, _, err := r.o.RestoreImage(bad, 0, RestoreOpts{}); err == nil {
		t.Fatal("corrupt process record restored successfully")
	}
}

func TestRestoreMissingVMObjectFails(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.o.Checkpoint(g, CheckpointOpts{})

	img := g.LastImage()
	bad := &Image{
		Group: img.Group, Epoch: img.Epoch, Full: true,
		Meta:   img.Meta,
		Memory: map[uint64]*MemImage{}, // all VM objects missing
		Roots:  img.Roots,
	}
	_, _, err := r.o.RestoreImage(bad, 0, RestoreOpts{})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-object failure", err)
	}
}

func TestRestoreUnknownProgramFails(t *testing.T) {
	r := newRig(t)
	p, _ := r.k.Spawn(0, "mystery")
	p.SetProgram(&kernel.FuncProgram{Name: "never-registered",
		Fn: func(*kernel.Kernel, *kernel.Process, *kernel.Thread) error { return nil }})
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	_, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err == nil || !strings.Contains(err.Error(), "no program factory") {
		t.Fatalf("err = %v, want factory failure", err)
	}
}

func TestDecodeImageGarbage(t *testing.T) {
	if _, err := DecodeImage([]byte("not an image"), vm.NewPhysMem(0)); err == nil {
		t.Fatal("garbage image decoded")
	}
	if _, err := DecodeDelta([]byte{0xff, 0xff}, vm.NewPhysMem(0)); err == nil {
		t.Fatal("garbage delta decoded")
	}
}

func TestDecodeImageReleasesFramesOnError(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.k.Run(5)
	r.o.Checkpoint(g, CheckpointOpts{})
	payload := encoded(t, g.LastImage(), r.k.Mem)

	before := r.k.Mem.Resident()
	// Truncate mid-pages: the decoder must free what it allocated.
	if _, err := DecodeImage(payload[:len(payload)-10], r.k.Mem); err == nil {
		t.Fatal("truncated image decoded")
	}
	if r.k.Mem.Resident() != before {
		t.Fatalf("decoder leaked %d frames", r.k.Mem.Resident()-before)
	}
}

func TestCheckpointEmptyGroupFails(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.k.Exit(p, 0)
	r.k.Reap(p)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err == nil {
		t.Fatal("checkpointing a dead group should fail")
	}
}

func TestRestoreWithoutBackendFails(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	if _, _, err := r.o.Restore(g, 0, RestoreOpts{}); err != ErrNoBackend {
		t.Fatalf("err = %v, want ErrNoBackend", err)
	}
}

func TestGroupDissolutionReleasesGatedOutput(t *testing.T) {
	r := newRig(t)
	srv := spawnCounter(t, r)
	ext, _ := r.k.Spawn(0, "client")
	a, b, _ := r.k.NewSocketPair(srv)
	fdB, _ := srv.FDs.Get(b)
	extFD, _ := ext.FDs.Install(r.k, fdB.File, kernel.ORdWr)

	g, _ := r.o.Persist("srv", srv)
	r.o.Attach(g, r.mem)
	r.o.Checkpoint(g, CheckpointOpts{})
	r.k.Write(srv, a, []byte("held"))
	buf := make([]byte, 8)
	if _, err := r.k.Read(ext, extFD, buf); err != kernel.ErrWouldBlock {
		t.Fatalf("pre-dissolution read err = %v", err)
	}
	// Unpersisting the group ends the consistency obligation: there
	// is no longer a checkpoint that could roll the sender back.
	r.o.Unpersist(g)
	n, err := r.k.Read(ext, extFD, buf)
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("post-dissolution read = %q, %v", buf[:n], err)
	}
}

func TestMultiBackendFlushesBoth(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.o.Attach(g, r.store)
	r.k.Run(3)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	// Both backends can serve the restore independently.
	if _, _, err := r.mem.Load(g.ID, 0); err != nil {
		t.Fatalf("memory backend: %v", err)
	}
	if _, _, err := r.store.Load(g.ID, 0); err != nil {
		t.Fatalf("store backend: %v", err)
	}
}

func TestStoreBackendHistoryLimit(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.store.HistoryLimit = 3
	r.o.Attach(g, r.store)
	for i := 0; i < 6; i++ {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	ms := r.store.Store().Manifests(g.ID)
	if len(ms) != 3 {
		t.Fatalf("history length = %d, want 3", len(ms))
	}
	// The surviving history still restores (GC merged forward).
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != 12 {
		t.Fatalf("restored counter = %d, want 12", got)
	}
}

// --- CPU-state fidelity through the full stack ---

func TestInterpMidLoopCheckpointRestore(t *testing.T) {
	r := newRig(t)
	p, _ := r.k.Spawn(0, "summer")
	// sum 1..N with N big enough that we checkpoint mid-loop.
	var a interp.Asm
	a.Emit(interp.OpLi, 4, 0, 0)         // sum = 0
	a.Emit(interp.OpLi, 5, 0, 1)         // i = 1
	a.Emit(interp.OpLi, 6, 0, 1_000_001) // bound
	loop := a.Len()
	a.Emit(interp.OpAdd, 4, 4, 5)
	a.Emit(interp.OpAddi, 5, 5, 1)
	bne := a.Emit(interp.OpBne, 5, 6, 0)
	a.Patch(bne, uint32(0x0040_0000+loop))
	a.Emit(interp.OpLi, 7, 0, uint32(p.HeapBase()))
	a.Emit(interp.OpSt, 4, 7, 0)
	a.Emit(interp.OpHalt, 0, 0, 0)
	if _, err := interp.Load(r.k, p, a.Code()); err != nil {
		t.Fatal(err)
	}

	g, _ := r.o.Persist("summer", p)
	r.o.Attach(g, r.store)
	r.k.Run(500) // mid-loop
	iBefore := p.Threads[0].Regs.GPR[5]
	if iBefore <= 1 || iBefore >= 1_000_001 {
		t.Fatalf("not mid-loop: i = %d", iBefore)
	}
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	r.k.Run(200) // diverge past the checkpoint

	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	nt := np.Threads[0]
	if nt.Regs.GPR[5] != iBefore {
		t.Fatalf("restored i = %d, want %d (exact register state)", nt.Regs.GPR[5], iBefore)
	}
	if nt.Regs.GPR[4] != (iBefore-1)*iBefore/2 {
		t.Fatalf("restored sum inconsistent: %d", nt.Regs.GPR[4])
	}
	// Kill the original so only the restored instance runs to the end.
	r.k.Exit(p, 0)
	r.k.Reap(p)
	for i := 0; i < 40000 && np.State() == kernel.ProcRunning; i++ {
		r.k.Run(1000)
	}
	if np.State() != kernel.ProcZombie {
		t.Fatal("restored program did not finish")
	}
	var b [8]byte
	np.ReadMem(np.HeapBase(), b[:])
	got := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40
	const want = uint64(1_000_000) * 1_000_001 / 2
	if got != want {
		t.Fatalf("final sum = %d, want %d — execution diverged after restore", got, want)
	}
}
