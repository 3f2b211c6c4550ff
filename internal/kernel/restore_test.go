package kernel

import (
	"testing"

	"aurora/internal/vm"
)

// Tests for the kernel's restore glue, exercised directly (the
// orchestrator drives these paths in production).

func TestRestoreProcessRebuildSkeleton(t *testing.T) {
	k := New()
	src, _ := k.Spawn(0, "original", "arg")
	src.WriteMem(src.HeapBase(), []byte("heap-bytes"))
	e := NewEncoder()
	src.EncodeTo(e)
	pi, err := DecodeProcess(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild in a second kernel with substitute VM objects.
	k2 := New()
	objs := make(map[uint64]*vm.Object)
	lookup := func(id uint64) *vm.Object {
		if o, ok := objs[id]; ok {
			return o
		}
		o := k2.Mem.NewObject("sub", 1<<20)
		objs[id] = o
		return o
	}
	p, err := k2.RestoreProcess(pi, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != src.PID || p.Name != "original" || len(p.Args) != 1 {
		t.Fatalf("restored identity: %+v", p)
	}
	if len(p.Space.Mappings()) != len(src.Space.Mappings()) {
		t.Fatal("mapping count mismatch")
	}
	// The restored process starts stopped until explicitly resumed.
	if p.State() != ProcStopped {
		t.Fatalf("state = %v, want stopped", p.State())
	}
	if err := k2.ResumeRestored(p, "", nil); err != nil {
		t.Fatal(err)
	}
	if p.State() != ProcRunning {
		t.Fatal("resume failed")
	}
}

func TestRestoreProcessMissingObjectFails(t *testing.T) {
	k := New()
	src, _ := k.Spawn(0, "x")
	e := NewEncoder()
	src.EncodeTo(e)
	pi, _ := DecodeProcess(e.Bytes())
	k2 := New()
	if _, err := k2.RestoreProcess(pi, func(uint64) *vm.Object { return nil }); err == nil {
		t.Fatal("restore with missing VM objects should fail")
	}
}

func TestRestoreProcessPIDCollision(t *testing.T) {
	k := New()
	src, _ := k.Spawn(0, "twin")
	e := NewEncoder()
	src.EncodeTo(e)
	pi, _ := DecodeProcess(e.Bytes())
	// Restoring into the same kernel: pid 1 is taken, the clone gets a
	// fresh pid.
	p, err := k.RestoreProcess(pi, func(uint64) *vm.Object { return k.Mem.NewObject("sub", 1<<20) })
	if err != nil {
		t.Fatal(err)
	}
	if p.PID == src.PID {
		t.Fatal("restored clone stole the live process's pid")
	}
}

func TestResumeRestoredUnknownProgram(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "x")
	if err := k.ResumeRestored(p, "no-such-program", nil); err == nil {
		t.Fatal("unknown program factory should fail")
	}
}

func TestAttachThreadSchedulesRunnable(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "host")
	ran := 0
	p.SetProgram(&FuncProgram{Name: "w", Fn: func(*Kernel, *Process, *Thread) error {
		ran++
		return nil
	}})
	// A restored runnable thread joins the scheduler.
	t2 := &Thread{oid: k.NextOID(), TID: 900, State: ThreadRunnable}
	k.AttachThread(p, t2)
	if len(p.Threads) != 2 {
		t.Fatalf("threads = %d", len(p.Threads))
	}
	k.Run(10)
	if ran != 10 {
		t.Fatalf("ran = %d (both threads step the program)", ran)
	}
	// A blocked thread must not be scheduled.
	t3 := &Thread{oid: k.NextOID(), TID: 901, State: ThreadBlocked}
	k.AttachThread(p, t3)
	k.Run(4)
	if ran != 14 {
		t.Fatalf("blocked thread was scheduled: ran = %d", ran)
	}
}

func TestBuildFileDescErrors(t *testing.T) {
	k := New()
	if _, err := k.BuildFileDesc(&FDImage{OID: 5, FileOID: 999}); err == nil {
		t.Fatal("dangling file reference should fail")
	}
	// A non-file object behind the reference also fails.
	p, _ := k.Spawn(0, "x")
	if _, err := k.BuildFileDesc(&FDImage{OID: 5, FileOID: p.OID()}); err == nil {
		t.Fatal("non-file OID should fail")
	}
	// A nil file (FileOID 0) is allowed: placeholder descriptors.
	fd, err := k.BuildFileDesc(&FDImage{OID: 6})
	if err != nil || fd.File != nil {
		t.Fatalf("placeholder descriptor: %v, %v", fd, err)
	}
}

func TestPatchUnixBacklogErrors(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "srv")
	lfd, _ := k.Listen(p, "/x")
	fd, _ := p.FDs.Get(lfd)
	u := fd.File.(*UnixSocket)
	if err := k.PatchUnixBacklog(u, []uint64{12345}); err == nil {
		t.Fatal("missing backlog OID should fail")
	}
	// A non-socketpair OID also fails.
	if err := k.PatchUnixBacklog(u, []uint64{p.OID()}); err == nil {
		t.Fatal("wrong-kind backlog OID should fail")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	k := New()
	c := k.NewContainer("web")
	e := NewEncoder()
	c.EncodeTo(e)

	k2 := New()
	c2, err := k2.RestoreContainer(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID != c.ID || c2.Name != "web" {
		t.Fatalf("restored container = %+v", c2)
	}
	// Spawning into the restored container works.
	if _, err := k2.Spawn(c2.ID, "inside"); err != nil {
		t.Fatal(err)
	}
	// Restoring the same container twice is idempotent.
	c3, err := k2.RestoreContainer(e.Bytes())
	if err != nil || c3 != c2 {
		t.Fatalf("second restore = %v, %v", c3, err)
	}
}

func TestCreateThread(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "mt")
	steps := 0
	p.SetProgram(&FuncProgram{Name: "mt", Fn: func(*Kernel, *Process, *Thread) error {
		steps++
		return nil
	}})
	t2 := k.CreateThread(p, Regs{PC: 0x1000})
	if t2.TID == p.Threads[0].TID {
		t.Fatal("thread ids collide")
	}
	k.Run(8)
	if steps != 8 {
		t.Fatalf("steps = %d (round robin over 2 threads)", steps)
	}
}

func TestFDCtlBadDescriptor(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "x")
	if err := k.FDCtl(p, 99, false); err != ErrBadFD {
		t.Fatalf("err = %v", err)
	}
}

func TestReadWriteBadDescriptor(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "x")
	if _, err := k.Read(p, 7, make([]byte, 4)); err != ErrBadFD {
		t.Fatalf("read err = %v", err)
	}
	if _, err := k.Write(p, 7, []byte("x")); err != ErrBadFD {
		t.Fatalf("write err = %v", err)
	}
}

func TestForkOfZombieFails(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "x")
	k.Exit(p, 0)
	if _, err := k.Fork(p); err != ErrNotRunning {
		t.Fatalf("fork of zombie err = %v", err)
	}
}

func TestConnectToClosedListener(t *testing.T) {
	k := New()
	srv, _ := k.Spawn(0, "srv")
	cli, _ := k.Spawn(0, "cli")
	lfd, _ := k.Listen(srv, "/gone")
	if err := srv.FDs.Close(lfd); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Connect(cli, "/gone"); err == nil {
		t.Fatal("connect to closed listener should fail")
	}
}

func TestAcceptOnNonListener(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "x")
	r, _, _ := k.NewPipe(p)
	if _, err := k.Accept(p, r); err != ErrBadFD {
		t.Fatalf("accept on pipe err = %v", err)
	}
}
