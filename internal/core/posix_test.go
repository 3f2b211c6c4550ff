package core

import (
	"bytes"
	"testing"

	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// These tests cover the paper's claim that Aurora handles "nearly all
// POSIX primitives" as first-class objects end to end: checkpoint a
// process using each primitive, restore, and exercise the primitive on
// the restored incarnation.

func TestMsgQueueSurvivesCheckpointRestore(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	q := r.k.MsgGet(42)
	q.Send(1, []byte("queued before checkpoint"))
	q.Send(2, []byte("second message"))

	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil { // loading the store directly below
		t.Fatal(err)
	}
	// Drain the live queue to prove the restore is not aliasing it.
	q.Recv(0)
	q.Recv(0)

	// Restore into a fresh kernel (true crash semantics).
	r2 := newRig(t)
	img, readTime, err := r.store.Load(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := DecodeImage(encoded(t, img, r.k.Mem), r2.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.o.RestoreImage(img2, readTime, RestoreOpts{}); err != nil {
		t.Fatal(err)
	}
	q2 := r2.k.MsgGet(42)
	if q2.Len() != 2 {
		t.Fatalf("restored queue has %d messages, want 2", q2.Len())
	}
	m, err := q2.Recv(2)
	if err != nil || string(m.Data) != "second message" {
		t.Fatalf("restored msg = %q, %v", m.Data, err)
	}
}

func TestShmContentsSurviveFreshKernelRestore(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	seg, _ := r.k.ShmGet(7, 8*vm.PageSize)
	addr, _ := r.k.ShmAttach(p, seg)
	payload := make([]byte, 8*vm.PageSize)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	p.WriteMem(addr, payload)

	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil { // loading the store directly below
		t.Fatal(err)
	}

	r2 := newRig(t)
	img, readTime, _ := r.store.Load(g.ID, 0)
	img2, err := DecodeImage(encoded(t, img, r.k.Mem), r2.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := r2.o.RestoreImage(img2, readTime, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r2.k.Process(ng.PIDs()[0])
	got := make([]byte, len(payload))
	if err := np.ReadMem(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("shm contents lost across kernels")
	}
	// The restored segment is re-registered under its key: a new
	// attach shares the same memory.
	seg2, err := r2.k.ShmGet(7, 8*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := r2.k.Spawn(0, "other")
	addr2, err := r2.k.ShmAttach(p2, seg2)
	if err != nil {
		t.Fatal(err)
	}
	np.WriteMem(addr, []byte("cross"))
	got2 := make([]byte, 5)
	p2.ReadMem(addr2, got2)
	if string(got2) != "cross" {
		t.Fatalf("restored shm not shared: %q", got2)
	}
}

func TestPipelineOfProcessesSurvivesRestore(t *testing.T) {
	// A classic shell-style pipeline: parent | child over a pipe, with
	// in-flight data at checkpoint time.
	r := newRig(t)
	parent := spawnCounter(t, r)
	rfd, wfd, _ := r.k.NewPipe(parent)
	child, _ := r.k.Fork(parent)
	child.SetProgram(&counter{addr: child.HeapBase()})

	// Parent writes; nobody has read yet: the bytes are in flight.
	if _, err := r.k.Write(parent, wfd, []byte("in-flight-data")); err != nil {
		t.Fatal(err)
	}

	g, _ := r.o.Persist("pipeline", parent)
	r.o.Attach(g, r.store)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}

	ng, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pids := ng.PIDs()
	if len(pids) != 2 {
		t.Fatalf("restored %d processes", len(pids))
	}
	// The restored child reads what the pre-checkpoint parent wrote,
	// through the restored shared descriptor table.
	var nchild *kernel.Process
	for _, pid := range pids {
		q, _ := r.k.Process(pid)
		if q.PPID != 0 {
			nchild = q
		}
	}
	buf := make([]byte, 32)
	n, err := r.k.Read(nchild, rfd, buf)
	if err != nil || string(buf[:n]) != "in-flight-data" {
		t.Fatalf("restored pipe read = %q, %v", buf[:n], err)
	}
}

func TestDupDescriptorsRestoredAsShared(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	_, wfd, _ := r.k.NewPipe(p)
	w2, _ := p.FDs.Dup(wfd)

	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	r.o.Checkpoint(g, CheckpointOpts{})

	ng, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	fd1, err := np.FDs.Get(wfd)
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := np.FDs.Get(w2)
	if err != nil {
		t.Fatal(err)
	}
	if fd1 != fd2 {
		t.Fatal("dup'd descriptors restored as separate descriptions")
	}
}

func TestMctlRestorePolicyHints(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	api := r.api
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)

	// Two extra regions: one hinted eager, one hinted lazy.
	hot, err := p.Space.MapAnon(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false, "hot-index")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Space.MapAnon(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false, "cold-bulk")
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(hot.Start, make([]byte, 8*vm.PageSize))
	p.WriteMem(cold.Start, make([]byte, 8*vm.PageSize))
	if err := api.MctlPolicy(p, hot.Start, vm.RestoreEager); err != nil {
		t.Fatal(err)
	}
	if err := api.MctlPolicy(p, cold.Start, vm.RestoreLazy); err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}

	// Restore with the orchestrator default set to lazy: the eager
	// hint must override for the hot region only.
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	var hotObj, coldObj *vm.Object
	for _, m := range np.Space.Mappings() {
		switch m.Name {
		case "hot-index":
			hotObj = m.Obj
		case "cold-bulk":
			coldObj = m.Obj
		}
	}
	if hotObj == nil || coldObj == nil {
		t.Fatal("hinted mappings not restored")
	}
	if hotObj.ResidentCount() != 8 {
		t.Fatalf("eager-hinted region resident=%d, want 8", hotObj.ResidentCount())
	}
	if coldObj.ResidentCount() != 0 {
		t.Fatalf("lazy-hinted region resident=%d, want 0 (faults on demand)", coldObj.ResidentCount())
	}
	// The lazy region's data still reads correctly through the source.
	buf := make([]byte, vm.PageSize)
	if err := np.ReadMem(np.HeapBase(), buf[:8]); err != nil {
		t.Fatal(err)
	}
}
