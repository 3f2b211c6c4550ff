package kernel

import (
	"bytes"
	"testing"
	"testing/quick"

	"aurora/internal/storage"
	"aurora/internal/vm"
)

func TestSpawnBasics(t *testing.T) {
	k := New()
	p, err := k.Spawn(0, "init", "arg1")
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != 1 {
		t.Fatalf("first pid = %d", p.PID)
	}
	if len(p.Threads) != 1 {
		t.Fatalf("threads = %d", len(p.Threads))
	}
	if p.State() != ProcRunning {
		t.Fatalf("state = %v", p.State())
	}
	if got, err := k.Process(1); err != nil || got != p {
		t.Fatalf("Process(1) = %v, %v", got, err)
	}
	if _, err := k.Process(99); err != ErrNoSuchProcess {
		t.Fatalf("Process(99) err = %v", err)
	}
}

func TestSpawnBadContainer(t *testing.T) {
	k := New()
	if _, err := k.Spawn(42, "x"); err == nil {
		t.Fatal("spawn into missing container should fail")
	}
}

func TestProcessMemory(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	data := []byte("persistent state")
	if err := p.WriteMem(p.HeapBase(), data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.ReadMem(p.HeapBase(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("heap read %q", got)
	}
}

func TestSbrk(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	old, err := p.Sbrk(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if old != p.HeapBase() {
		t.Fatalf("initial brk = %#x, want heap base %#x", old, p.HeapBase())
	}
	// Memory in the grown region is usable.
	addr := p.HeapBase() + vm.Addr(3<<20)
	if err := p.WriteMem(addr, []byte("grown")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sbrk(-(100 << 20)); err == nil {
		t.Fatal("shrinking below heap base should fail")
	}
}

func TestForkSemantics(t *testing.T) {
	k := New()
	parent, _ := k.Spawn(0, "app")
	parent.WriteMem(parent.HeapBase(), []byte("shared-before-fork"))

	child, err := k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	if child.PPID != parent.PID {
		t.Fatalf("child ppid = %d", child.PPID)
	}
	// Child sees pre-fork data.
	got := make([]byte, 18)
	child.ReadMem(child.HeapBase(), got)
	if string(got) != "shared-before-fork" {
		t.Fatalf("child heap = %q", got)
	}
	// Writes are private in both directions.
	child.WriteMem(child.HeapBase(), []byte("child-write-here  "))
	parent.ReadMem(parent.HeapBase(), got)
	if string(got) != "shared-before-fork" {
		t.Fatalf("parent sees child write: %q", got)
	}
	parent.WriteMem(parent.HeapBase(), []byte("parent-write-here "))
	child.ReadMem(child.HeapBase(), got)
	if string(got) != "child-write-here  " {
		t.Fatalf("child sees parent write: %q", got)
	}
	// Process tree includes the child.
	tree := k.ProcessTree(parent)
	if len(tree) != 2 {
		t.Fatalf("tree size = %d", len(tree))
	}
}

func TestExitReap(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	k.Exit(p, 3)
	if p.State() != ProcZombie || p.ExitCode != 3 {
		t.Fatalf("state=%v code=%d", p.State(), p.ExitCode)
	}
	if err := k.Reap(p); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Process(p.PID); err != ErrNoSuchProcess {
		t.Fatal("reaped process still in table")
	}
	if err := k.Reap(p); err != ErrNotRunning {
		t.Fatalf("double reap err = %v", err)
	}
}

// TestReapFreesWhatTheProcessHeld: under process churn that never runs
// the scheduler, Reap alone must bring the run queue, the frame count
// and the pager's tables back to where they started — and must leave a
// forked sibling's view of shared and shadowed memory intact.
func TestReapFreesWhatTheProcessHeld(t *testing.T) {
	clock := storage.NewClock()
	k := NewWith(clock, vm.NewPhysMem(64))
	k.AttachSwap(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock))
	keeper, _ := k.Spawn(0, "keeper")
	keeper.WriteMem(keeper.HeapBase(), []byte("kept"))
	seg, _ := k.ShmGet(7, vm.PageSize)
	keeperShm, _ := k.ShmAttach(keeper, seg)
	keeper.WriteMem(keeperShm, []byte("shared"))
	resident, queued := k.Mem.Resident(), len(k.runQueue)

	for round := 0; round < 200; round++ {
		p, err := k.Spawn(0, "churn")
		if err != nil {
			t.Fatalf("round %d: spawn: %v", round, err)
		}
		k.CreateThread(p, Regs{})
		child, _ := k.Fork(p)
		addr, _ := k.ShmAttach(p, seg)
		for pg := 0; pg < 8; pg++ {
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), []byte{byte(round)}); err != nil {
				t.Fatalf("round %d: write: %v", round, err)
			}
		}
		p.WriteMem(addr+8, []byte{byte(round)})
		for _, q := range []*Process{p, child} {
			k.Exit(q, 0)
			var b [1]byte
			if err := q.ReadMem(q.HeapBase(), b[:]); err != nil {
				t.Fatalf("round %d: a zombie's memory must stay readable until it is reaped: %v", round, err)
			}
			if err := k.Reap(q); err != nil {
				t.Fatalf("round %d: reap: %v", round, err)
			}
		}
		if got := k.Mem.Resident(); got != resident {
			t.Fatalf("round %d: %d frames resident after reap, started at %d", round, got, resident)
		}
		if got := len(k.runQueue); got != queued {
			t.Fatalf("round %d: run queue holds %d threads after reap, started at %d", round, got, queued)
		}
	}
	got := make([]byte, 9)
	keeper.ReadMem(keeperShm, got)
	if string(got[:6]) != "shared" || got[8] != 199 {
		t.Fatalf("shared segment after the churn = %q", got)
	}
	keeper.ReadMem(keeper.HeapBase(), got[:4])
	if string(got[:4]) != "kept" {
		t.Fatalf("survivor's heap = %q", got[:4])
	}
	if ran, err := k.Run(1); err != nil || ran != 1 {
		t.Fatalf("the survivor's thread fell off the run queue: ran %d quanta, err %v", ran, err)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	r, w, err := k.NewPipe(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, w, []byte("through the pipe")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := k.Read(p, r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "through the pipe" {
		t.Fatalf("read %q", buf[:n])
	}
	// Empty pipe would block.
	if _, err := k.Read(p, r, buf); err != ErrWouldBlock {
		t.Fatalf("empty read err = %v", err)
	}
	// Role enforcement.
	if _, err := k.Read(p, w, buf); err != ErrBadFD {
		t.Fatalf("read from write end err = %v", err)
	}
	if _, err := k.Write(p, r, []byte("x")); err != ErrBadFD {
		t.Fatalf("write to read end err = %v", err)
	}
}

func TestPipeEOFAfterClose(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	r, w, _ := k.NewPipe(p)
	k.Write(p, w, []byte("tail"))
	p.FDs.Close(w)
	fd, _ := p.FDs.Get(r)
	pipe := fd.File.(*Pipe)
	pipe.q.close()

	buf := make([]byte, 16)
	n, err := k.Read(p, r, buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain = %q, %v", buf[:n], err)
	}
	if _, err := k.Read(p, r, buf); !IsEOF(err) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestSocketPair(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	a, b, err := k.NewSocketPair(p)
	if err != nil {
		t.Fatal(err)
	}
	k.Write(p, a, []byte("ping"))
	buf := make([]byte, 8)
	n, _ := k.Read(p, b, buf)
	if string(buf[:n]) != "ping" {
		t.Fatalf("b read %q", buf[:n])
	}
	k.Write(p, b, []byte("pong"))
	n, _ = k.Read(p, a, buf)
	if string(buf[:n]) != "pong" {
		t.Fatalf("a read %q", buf[:n])
	}
}

func TestUnixSocketListenConnectAccept(t *testing.T) {
	k := New()
	srv, _ := k.Spawn(0, "server")
	cli, _ := k.Spawn(0, "client")

	lfd, err := k.Listen(srv, "/tmp/app.sock")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Listen(srv, "/tmp/app.sock"); err != ErrExists {
		t.Fatalf("double bind err = %v", err)
	}
	if _, err := k.Accept(srv, lfd); err != ErrWouldBlock {
		t.Fatalf("accept with no backlog err = %v", err)
	}

	cfd, err := k.Connect(cli, "/tmp/app.sock")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := k.Accept(srv, lfd)
	if err != nil {
		t.Fatal(err)
	}

	k.Write(cli, cfd, []byte("hello server"))
	buf := make([]byte, 32)
	n, _ := k.Read(srv, sfd, buf)
	if string(buf[:n]) != "hello server" {
		t.Fatalf("server read %q", buf[:n])
	}

	if _, err := k.Connect(cli, "/nope"); err != ErrNoSuchObject {
		t.Fatalf("connect to unbound err = %v", err)
	}
}

func TestDupSharesDescription(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	r, w, _ := k.NewPipe(p)
	w2, err := p.FDs.Dup(w)
	if err != nil {
		t.Fatal(err)
	}
	k.Write(p, w2, []byte("via dup"))
	buf := make([]byte, 16)
	n, _ := k.Read(p, r, buf)
	if string(buf[:n]) != "via dup" {
		t.Fatalf("read %q", buf[:n])
	}
	// Closing one of two dup'd descriptors keeps the file open.
	if err := p.FDs.Close(w); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, w2, []byte("still open")); err != nil {
		t.Fatalf("write after sibling close: %v", err)
	}
}

func TestFDTableCloneAcrossFork(t *testing.T) {
	k := New()
	parent, _ := k.Spawn(0, "app")
	r, w, _ := k.NewPipe(parent)
	child, _ := k.Fork(parent)
	// Child writes; parent reads: descriptors survived the fork.
	if _, err := k.Write(child, w, []byte("from child")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := k.Read(parent, r, buf)
	if string(buf[:n]) != "from child" {
		t.Fatalf("parent read %q", buf[:n])
	}
}

func TestSysVShmSharing(t *testing.T) {
	k := New()
	p1, _ := k.Spawn(0, "a")
	p2, _ := k.Spawn(0, "b")
	seg, err := k.ShmGet(1234, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := k.ShmGet(1234, 1); again != seg {
		t.Fatal("ShmGet with same key returned a different segment")
	}
	a1, err := k.ShmAttach(p1, seg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := k.ShmAttach(p2, seg)
	if err != nil {
		t.Fatal(err)
	}
	p1.WriteMem(a1+100, []byte("cross-process"))
	got := make([]byte, 13)
	p2.ReadMem(a2+100, got)
	if string(got) != "cross-process" {
		t.Fatalf("p2 read %q", got)
	}
	if err := k.ShmDetach(p1, a1, seg); err != nil {
		t.Fatal(err)
	}
	if err := k.ShmRemove(1234); err != nil {
		t.Fatal(err)
	}
	if err := k.ShmRemove(1234); err != ErrNoSuchObject {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestSysVMsgQueue(t *testing.T) {
	k := New()
	q := k.MsgGet(7)
	q.Send(1, []byte("first"))
	q.Send(2, []byte("second"))
	q.Send(1, []byte("third"))

	m, err := q.Recv(2)
	if err != nil || string(m.Data) != "second" {
		t.Fatalf("typed recv = %q, %v", m.Data, err)
	}
	m, _ = q.Recv(0)
	if string(m.Data) != "first" {
		t.Fatalf("any recv = %q", m.Data)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Recv(0)
	if _, err := q.Recv(0); err != ErrWouldBlock {
		t.Fatalf("empty recv err = %v", err)
	}
}

func TestContainerIsolationOfProcesses(t *testing.T) {
	k := New()
	c := k.NewContainer("web")
	k.Spawn(0, "hostproc")
	k.Spawn(c.ID, "webproc1")
	k.Spawn(c.ID, "webproc2")
	if got := len(k.ContainerProcesses(c.ID)); got != 2 {
		t.Fatalf("container procs = %d", got)
	}
	if got := len(k.ContainerProcesses(0)); got != 1 {
		t.Fatalf("host procs = %d", got)
	}
}

// --- scheduler ---

func TestSchedulerRoundRobin(t *testing.T) {
	k := New()
	counts := map[int]int{}
	for i := 0; i < 3; i++ {
		p, _ := k.Spawn(0, "worker")
		pid := p.PID
		p.SetProgram(&FuncProgram{Name: "worker", Fn: func(k *Kernel, p *Process, t *Thread) error {
			counts[pid]++
			return nil
		}})
	}
	if _, err := k.Run(30); err != nil {
		t.Fatal(err)
	}
	for pid, c := range counts {
		if c != 10 {
			t.Fatalf("pid %d ran %d quanta, want 10", pid, c)
		}
	}
}

func TestSchedulerSkipsStopped(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "w")
	runs := 0
	p.SetProgram(&FuncProgram{Name: "w", Fn: func(*Kernel, *Process, *Thread) error {
		runs++
		return nil
	}})
	k.StopProcess(p)
	if n, _ := k.Run(5); n != 0 {
		t.Fatalf("ran %d quanta while stopped", n)
	}
	k.ResumeProcess(p)
	k.Run(5)
	if runs != 5 {
		t.Fatalf("runs after resume = %d", runs)
	}
}

func TestThreadExitZombifiesProcess(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "oneshot")
	p.SetProgram(&FuncProgram{Name: "oneshot", Fn: func(*Kernel, *Process, *Thread) error {
		return ErrThreadExit
	}})
	k.Run(10)
	if p.State() != ProcZombie {
		t.Fatalf("state = %v, want zombie", p.State())
	}
}

func TestStopCountTracking(t *testing.T) {
	k := New()
	p1, _ := k.Spawn(0, "a")
	p2, _ := k.Spawn(0, "b")
	k.StopProcess(p1)
	k.StopProcess(p2)
	k.StopProcess(p2) // idempotent
	if k.StoppedCount() != 2 {
		t.Fatalf("stopped = %d", k.StoppedCount())
	}
	k.ResumeProcess(p1)
	k.ResumeProcess(p2)
	if k.StoppedCount() != 0 {
		t.Fatalf("stopped after resume = %d", k.StoppedCount())
	}
}

// --- external consistency ---

// stubResolver simulates the orchestrator's group bookkeeping.
type stubResolver struct {
	groups   map[int]uint64
	epochs   map[uint64]uint64
	released map[[2]uint64]bool
}

func (r *stubResolver) GroupOf(pid int) uint64 { return r.groups[pid] }
func (r *stubResolver) EpochOf(g uint64) uint64 {
	return r.epochs[g]
}
func (r *stubResolver) Released(g, e uint64) bool { return r.released[[2]uint64{g, e}] }

func TestExternalConsistencyGatesOutput(t *testing.T) {
	k := New()
	srv, _ := k.Spawn(0, "persisted")
	ext, _ := k.Spawn(0, "external")
	a, b, _ := k.NewSocketPair(srv)
	// Move descriptor b to the external process.
	fd, _ := srv.FDs.Get(b)
	extFD, _ := ext.FDs.Install(k, fd.File, ORdWr)
	srv.FDs.Close(b)

	res := &stubResolver{
		groups:   map[int]uint64{srv.PID: 1},
		epochs:   map[uint64]uint64{1: 5},
		released: map[[2]uint64]bool{},
	}
	k.SetResolver(res)

	// Persisted process writes; the external reader must not see the
	// data until epoch 5 is durable.
	if _, err := k.Write(srv, a, []byte("unstable state")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if _, err := k.Read(ext, extFD, buf); err != ErrWouldBlock {
		t.Fatalf("gated read err = %v, want would-block", err)
	}

	// Once durable, the data flows.
	res.released[[2]uint64{1, 5}] = true
	n, err := k.Read(ext, extFD, buf)
	if err != nil || string(buf[:n]) != "unstable state" {
		t.Fatalf("post-release read = %q, %v", buf[:n], err)
	}
}

func TestExternalConsistencyIntraGroupUnaffected(t *testing.T) {
	k := New()
	p1, _ := k.Spawn(0, "a")
	p2, _ := k.Spawn(0, "b")
	a, b, _ := k.NewSocketPair(p1)
	fd, _ := p1.FDs.Get(b)
	p2FD, _ := p2.FDs.Install(k, fd.File, ORdWr)
	p1.FDs.Close(b)

	// Both processes are in group 1; nothing is durable yet.
	res := &stubResolver{
		groups:   map[int]uint64{p1.PID: 1, p2.PID: 1},
		epochs:   map[uint64]uint64{1: 9},
		released: map[[2]uint64]bool{},
	}
	k.SetResolver(res)
	k.Write(p1, a, []byte("intra"))
	buf := make([]byte, 8)
	n, err := k.Read(p2, p2FD, buf)
	if err != nil || string(buf[:n]) != "intra" {
		t.Fatalf("intra-group read = %q, %v (must not be gated)", buf[:n], err)
	}
}

func TestFDCtlDisablesGating(t *testing.T) {
	k := New()
	srv, _ := k.Spawn(0, "persisted")
	ext, _ := k.Spawn(0, "external")
	a, b, _ := k.NewSocketPair(srv)
	fd, _ := srv.FDs.Get(b)
	extFD, _ := ext.FDs.Install(k, fd.File, ORdWr)
	srv.FDs.Close(b)

	res := &stubResolver{
		groups:   map[int]uint64{srv.PID: 1},
		epochs:   map[uint64]uint64{1: 2},
		released: map[[2]uint64]bool{},
	}
	k.SetResolver(res)

	// sls_fdctl(fd, off): the developer accepts the risk for latency.
	if err := k.FDCtl(srv, a, false); err != nil {
		t.Fatal(err)
	}
	k.Write(srv, a, []byte("fast path"))
	buf := make([]byte, 16)
	n, err := k.Read(ext, extFD, buf)
	if err != nil || string(buf[:n]) != "fast path" {
		t.Fatalf("ungated read = %q, %v", buf[:n], err)
	}
}

// --- serialization ---

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U64(12345678901234)
	e.I64(-42)
	e.U32(7)
	e.U16(65535)
	e.U8(9)
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	e.Bytes2([]byte{1, 2, 3})
	e.StrSlice([]string{"a", "bb"})
	e.U64Slice([]uint64{5, 6, 7})

	d := NewDecoder(e.Bytes())
	if d.U64() != 12345678901234 || d.I64() != -42 || d.U32() != 7 ||
		d.U16() != 65535 || d.U8() != 9 || !d.Bool() || d.Bool() {
		t.Fatal("scalar round trip failed")
	}
	if d.Str() != "hello" || !bytes.Equal(d.Bytes2(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
	ss := d.StrSlice()
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "bb" {
		t.Fatal("string slice round trip failed")
	}
	us := d.U64Slice()
	if len(us) != 3 || us[2] != 7 {
		t.Fatal("u64 slice round trip failed")
	}
	if d.Remaining() != 0 || d.Err() != nil {
		t.Fatalf("remaining=%d err=%v", d.Remaining(), d.Err())
	}
}

func TestDecoderCorruption(t *testing.T) {
	d := NewDecoder([]byte{0xff}) // truncated varint
	d.U64()
	if d.Err() == nil {
		t.Fatal("truncated varint not detected")
	}
	if err := d.Finish("thing"); err == nil {
		t.Fatal("Finish should report the error")
	}
	// Oversized length prefix.
	e := NewEncoder()
	e.U64(1 << 40)
	d2 := NewDecoder(e.Bytes())
	if d2.Bytes2() != nil || d2.Err() == nil {
		t.Fatal("oversized length not detected")
	}
}

func TestQuickEncoderRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, s string, p []byte, ss []string) bool {
		e := NewEncoder()
		e.U64(a)
		e.I64(b)
		e.Str(s)
		e.Bytes2(p)
		e.StrSlice(ss)
		d := NewDecoder(e.Bytes())
		if d.U64() != a || d.I64() != b || d.Str() != s {
			return false
		}
		if !bytes.Equal(d.Bytes2(), p) {
			return false
		}
		got := d.StrSlice()
		if len(got) != len(ss) {
			return false
		}
		for i := range ss {
			if got[i] != ss[i] {
				return false
			}
		}
		return d.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessSerializationRoundTrip(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "redis-server", "--port", "6379")
	p.Env = []string{"HOME=/"}
	p.WriteMem(p.HeapBase(), []byte("heapdata"))
	p.Threads[0].Regs.PC = 0xdeadbeef
	p.Threads[0].Regs.GPR[5] = 42

	e := NewEncoder()
	p.EncodeTo(e)
	pi, err := DecodeProcess(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pi.PID != p.PID || pi.Name != "redis-server" || len(pi.Args) != 2 {
		t.Fatalf("image = %+v", pi)
	}
	if len(pi.Mappings) != 2 {
		t.Fatalf("mappings = %d, want 2 (stack+heap)", len(pi.Mappings))
	}

	te := NewEncoder()
	p.Threads[0].EncodeTo(te)
	th, err := DecodeThreadImage(te.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if th.Regs.PC != 0xdeadbeef || th.Regs.GPR[5] != 42 {
		t.Fatalf("thread regs = %+v", th.Regs)
	}
}

func TestPipeSerializationPreservesBufferedData(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	_, w, _ := k.NewPipe(p)
	k.Write(p, w, []byte("in flight"))

	fd, _ := p.FDs.Get(w)
	pipe := fd.File.(*Pipe)
	e := NewEncoder()
	pipe.EncodeTo(e)

	k2 := New()
	restored, err := k2.RestorePipe(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := k2.Spawn(0, "app")
	rfd, _ := p2.FDs.Install(k2, restored, ORdOnly)
	buf := make([]byte, 16)
	n, err := k2.Read(p2, rfd, buf)
	if err != nil || string(buf[:n]) != "in flight" {
		t.Fatalf("restored pipe read = %q, %v", buf[:n], err)
	}
}

func TestSocketPairSerializationBothDirections(t *testing.T) {
	k := New()
	p, _ := k.Spawn(0, "app")
	a, b, _ := k.NewSocketPair(p)
	k.Write(p, a, []byte("a->b"))
	k.Write(p, b, []byte("b->a"))

	fdA, _ := p.FDs.Get(a)
	sp := fdA.File.(*SockEnd).parent.(*SocketPair)
	e := NewEncoder()
	sp.EncodeTo(e)

	k2 := New()
	sp2, err := k2.RestoreSocketPair(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := k2.Spawn(0, "app")
	fa, _ := p2.FDs.Install(k2, sp2.Ends()[0], ORdWr)
	fb, _ := p2.FDs.Install(k2, sp2.Ends()[1], ORdWr)
	buf := make([]byte, 8)
	n, _ := k2.Read(p2, fb, buf)
	if string(buf[:n]) != "a->b" {
		t.Fatalf("direction ab = %q", buf[:n])
	}
	n, _ = k2.Read(p2, fa, buf)
	if string(buf[:n]) != "b->a" {
		t.Fatalf("direction ba = %q", buf[:n])
	}
}

func TestMsgQueueSerialization(t *testing.T) {
	k := New()
	q := k.MsgGet(11)
	q.Send(4, []byte("msg-a"))
	q.Send(5, []byte("msg-b"))
	e := NewEncoder()
	q.EncodeTo(e)

	k2 := New()
	q2, err := k2.RestoreMsgQueue(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 2 || q2.Key != 11 {
		t.Fatalf("restored queue len=%d key=%d", q2.Len(), q2.Key)
	}
	m, _ := q2.Recv(5)
	if string(m.Data) != "msg-b" {
		t.Fatalf("restored msg = %q", m.Data)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindProcess, KindThread, KindVMObject, KindPipe,
		KindSocketPair, KindUnixSocket, KindSysVShm, KindSysVMsgQueue,
		KindFDTable, KindFileDesc, KindContainer, KindVMSpace,
		KindPGroup, KindSession, KindNTLog, Kind(200)}
	for _, kd := range kinds {
		if kd.String() == "" {
			t.Fatalf("kind %d has empty name", kd)
		}
	}
}

func TestSwapIntegrationUnderMemoryPressure(t *testing.T) {
	clock := storage.NewClock()
	k := NewWith(clock, vm.NewPhysMem(0))
	k.AttachSwap(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock))
	p, _ := k.Spawn(0, "bigapp")
	p.Sbrk(1 << 20)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := p.WriteMem(p.HeapBase(), payload); err != nil {
		t.Fatal(err)
	}
	// Evict half the heap.
	n, err := k.Pager.Reclaim(128)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing reclaimed")
	}
	// ReadMem services the swap faults transparently.
	got := make([]byte, 1<<20)
	if err := p.ReadMem(p.HeapBase(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted through swap")
	}
}

func TestSetpgidSetsid(t *testing.T) {
	k := New()
	leader, _ := k.Spawn(0, "leader")
	child, _ := k.Fork(leader)
	if child.PGID != leader.PGID {
		t.Fatal("fork did not inherit the process group")
	}
	child.Setpgid(0)
	if child.PGID != child.PID {
		t.Fatalf("setpgid(0) pgid = %d", child.PGID)
	}
	sid := child.Setsid()
	if sid != child.PID || child.SID != child.PID {
		t.Fatalf("setsid = %d, sid = %d", sid, child.SID)
	}
	// Session/group identity round-trips through serialization.
	e := NewEncoder()
	child.EncodeTo(e)
	pi, err := DecodeProcess(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pi.PGID != child.PID || pi.SID != child.PID {
		t.Fatalf("serialized pgid/sid = %d/%d", pi.PGID, pi.SID)
	}
}
