package kernel

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"aurora/internal/vm"
)

// ProcState is the scheduling state of a process.
type ProcState uint8

// Process states.
const (
	ProcRunning  ProcState = iota
	ProcStopped            // paused by a serialization barrier
	ProcSleeping           // blocked in a simulated syscall
	ProcZombie             // exited, not yet reaped
)

// String names the state the way ps does.
func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "R"
	case ProcStopped:
		return "T"
	case ProcSleeping:
		return "S"
	case ProcZombie:
		return "Z"
	default:
		return "?"
	}
}

// Process is a simulated POSIX process: a first-class kernel object
// owning an address space, a descriptor table, and one or more
// threads.
type Process struct {
	oid uint64

	mu        sync.Mutex
	PID       int
	PPID      int
	PGID      int
	SID       int
	Container int
	Name      string
	Args      []string
	Env       []string
	CWD       string
	ExitCode  int
	state     ProcState

	Space   *vm.AddressSpace
	FDs     *FDTable
	Threads []*Thread

	children []*Process
	program  Program
	brk      vm.Addr // end of the heap mapping, for Sbrk
	heap     *vm.Mapping
	kernel   *Kernel
}

// OID implements Object.
func (p *Process) OID() uint64 { return p.oid }

// Kind implements Object.
func (p *Process) Kind() Kind { return KindProcess }

// State returns the scheduling state.
func (p *Process) State() ProcState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// setState transitions the scheduling state.
func (p *Process) setState(s ProcState) {
	p.mu.Lock()
	p.state = s
	p.mu.Unlock()
}

// Program returns the driver program attached to the process.
func (p *Process) Program() Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.program
}

// SetProgram attaches a driver program.
func (p *Process) SetProgram(prog Program) {
	p.mu.Lock()
	p.program = prog
	p.mu.Unlock()
}

// Kernel returns the kernel this process runs on.
func (p *Process) Kernel() *Kernel { return p.kernel }

// Children returns a snapshot of the process's children.
func (p *Process) Children() []*Process {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Process, len(p.children))
	copy(out, p.children)
	return out
}

// Spawn creates a new process running the named program in the given
// container. A fresh address space with a standard layout (stack +
// heap) is built and a main thread is created.
func (k *Kernel) Spawn(container int, name string, args ...string) (*Process, error) {
	if _, ok := k.Container(container); !ok {
		return nil, fmt.Errorf("kernel: no container %d", container)
	}
	k.mu.Lock()
	k.pids++
	pid := k.pids
	k.mu.Unlock()

	space := vm.NewAddressSpace(k.Mem, k.Meter)
	p := &Process{
		oid:       k.NextOID(),
		PID:       pid,
		PGID:      pid,
		SID:       pid,
		Container: container,
		Name:      name,
		Args:      args,
		CWD:       "/",
		Space:     space,
		kernel:    k,
		state:     ProcRunning,
	}
	p.FDs = NewFDTable(k.NextOID())

	// Standard layout: 1 MiB stack high, heap above the mmap base.
	if _, err := space.MapAnonAt(0x7fff_f000_0000, 1<<20, vm.ProtRead|vm.ProtWrite, false, "stack"); err != nil {
		return nil, err
	}
	heap, err := space.MapAnonAt(0x1000_0000, 1<<20, vm.ProtRead|vm.ProtWrite, false, "heap")
	if err != nil {
		return nil, err
	}
	p.heap = heap
	p.brk = heap.Start

	t := &Thread{
		oid:  k.NextOID(),
		TID:  pid, // main thread shares the pid number
		Proc: p,
		Regs: Regs{SP: 0x7fff_f010_0000 - 16},
	}
	p.Threads = []*Thread{t}

	k.mu.Lock()
	k.procs[pid] = p
	k.objects[p.oid] = p
	k.objects[t.oid] = t
	k.objects[p.FDs.oid] = p.FDs
	k.enqueueLocked(t)
	k.mu.Unlock()

	k.Clock.Advance(k.Costs.Syscall)
	return p, nil
}

// Fork clones the calling process with fork semantics: COW address
// space, duplicated descriptor table sharing open file objects, a new
// single thread. It returns the child.
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	if parent.State() == ProcZombie {
		return nil, ErrNotRunning
	}
	k.mu.Lock()
	k.pids++
	pid := k.pids
	k.mu.Unlock()

	child := &Process{
		oid:       k.NextOID(),
		PID:       pid,
		PPID:      parent.PID,
		PGID:      parent.PGID,
		SID:       parent.SID,
		Container: parent.Container,
		Name:      parent.Name,
		Args:      append([]string(nil), parent.Args...),
		Env:       append([]string(nil), parent.Env...),
		CWD:       parent.CWD,
		Space:     parent.Space.Fork(),
		kernel:    k,
		state:     ProcRunning,
	}
	child.FDs = parent.FDs.Clone(k.NextOID())
	// The child's heap is the mapping at the parent's heap addresses.
	child.heap, child.brk = child.Space.Find(parent.heap.Start), parent.brk

	t := &Thread{oid: k.NextOID(), TID: pid, Proc: child}
	if len(parent.Threads) > 0 {
		t.Regs = parent.Threads[0].Regs
		t.Regs.GPR[0] = 0 // fork returns 0 in the child
	}
	child.Threads = []*Thread{t}

	parent.mu.Lock()
	parent.children = append(parent.children, child)
	parent.mu.Unlock()

	k.mu.Lock()
	k.procs[pid] = child
	k.objects[child.oid] = child
	k.objects[t.oid] = t
	k.objects[child.FDs.oid] = child.FDs
	k.enqueueLocked(t)
	k.mu.Unlock()

	k.Clock.Advance(k.Costs.Syscall + k.Costs.CtxSwitch)
	return child, nil
}

// Exit terminates a process, closing its descriptors and zombifying it.
func (k *Kernel) Exit(p *Process, code int) {
	p.mu.Lock()
	if p.state == ProcZombie {
		p.mu.Unlock()
		return
	}
	p.state = ProcZombie
	p.ExitCode = code
	fds := p.FDs
	p.mu.Unlock()

	fds.CloseAll()
	k.Clock.Advance(k.Costs.Syscall)
}

// Reap removes a zombie from the process table and gives back what it
// held: its threads leave the run queue, its address space is unmapped
// (objects shared with a live process survive through their reference
// count; the rest return their frames to the allocator), and the pager
// no longer sweeps it. Until Reap a zombie's memory stays readable.
func (k *Kernel) Reap(p *Process) error {
	if p.State() != ProcZombie {
		return ErrNotRunning
	}
	k.mu.Lock()
	if k.procs[p.PID] != p {
		k.mu.Unlock()
		return ErrNotRunning
	}
	delete(k.procs, p.PID)
	delete(k.objects, p.oid)
	for _, t := range p.Threads {
		delete(k.objects, t.oid)
	}
	delete(k.objects, p.FDs.oid)
	k.runQueue = slices.DeleteFunc(k.runQueue, func(t *Thread) bool {
		if t.Proc == p {
			t.queued = false
		}
		return t.Proc == p
	})
	k.mu.Unlock()

	p.Space.UnmapAll()
	return nil
}

// ProcessTree returns p and all its descendants (the granularity at
// which Aurora persists applications).
func (k *Kernel) ProcessTree(p *Process) []*Process {
	var out []*Process
	var walk func(*Process)
	walk = func(q *Process) {
		out = append(out, q)
		for _, c := range q.Children() {
			walk(c)
		}
	}
	walk(p)
	return out
}

// ContainerProcesses returns every live process in a container.
func (k *Kernel) ContainerProcesses(id int) []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []*Process
	for _, p := range k.procs {
		if p.Container == id {
			out = append(out, p)
		}
	}
	return out
}

// Sbrk grows (or shrinks, with negative delta) the heap and returns
// the previous break address, like the classic syscall.
func (p *Process) Sbrk(delta int64) (vm.Addr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.brk
	nb := vm.Addr(int64(p.brk) + delta)
	if nb < p.heap.Start {
		return 0, vm.ErrBadRange
	}
	if nb > p.heap.End {
		// Grow the backing object; the mapping's object window widens.
		need := int64(nb - p.heap.Start)
		p.heap.Obj.Grow(p.heap.Off + vm.RoundUpPage(need))
		p.heap.End = p.heap.Start + vm.Addr(vm.RoundUpPage(need))
	}
	p.brk = nb
	return old, nil
}

// HeapBase returns the start of the heap mapping.
func (p *Process) HeapBase() vm.Addr { return p.heap.Start }

// faultRetryBudget bounds how many times an access retries one page
// that found physical memory full, each time after a reclaim that freed
// something, before a typed error wrapping vm.ErrOutOfMemory reaches the
// faulting thread instead of the access spinning on reclaim→fault
// forever (another thread may take the frames a reclaim freed).
const faultRetryBudget = 64

// reclaimBatch is how many pages one reclaim asks the clock for.
const reclaimBatch = 64

// accessMem runs one memory access. An access that finds physical memory
// full goes on page by page from the start, and a page that finds it
// full reclaims (Kernel.Reclaim) and retries, up to faultRetryBudget
// times; a reclaim that frees nothing fails the access at once with the
// typed error. Nothing reclaims while holding an object lock: the
// access has returned and released them all.
func (p *Process) accessMem(write bool, addr vm.Addr, buf []byte) error {
	err := p.Space.Access(addr, buf, write)
	if !errors.Is(err, vm.ErrOutOfMemory) {
		return err
	}
	for n := 0; n < len(buf); {
		at := addr + vm.Addr(n)
		span := min(vm.PageSize-int(at.PageOffset()), len(buf)-n)
		for tries := 0; ; tries++ {
			err := p.Space.Access(at, buf[n:n+span], write)
			if err == nil {
				break
			}
			if !errors.Is(err, vm.ErrOutOfMemory) {
				return err
			}
			if tries == faultRetryBudget || p.kernel.Reclaim(reclaimBatch) == 0 {
				return fmt.Errorf("kernel: access at %#x (write %v) after %d reclaims: %w", at, write, tries, err)
			}
		}
		n += span
	}
	return nil
}

// ReadMem reads process memory, reclaiming memory when it is full.
func (p *Process) ReadMem(addr vm.Addr, buf []byte) error {
	return p.accessMem(false, addr, buf)
}

// WriteMem writes process memory, reclaiming memory when it is full.
func (p *Process) WriteMem(addr vm.Addr, buf []byte) error {
	return p.accessMem(true, addr, buf)
}

// EncodeTo implements Object. Thread and fd-table OIDs are references;
// those objects serialize themselves.
func (p *Process) EncodeTo(e *Encoder) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.U64(p.oid)
	e.I64(int64(p.PID))
	e.I64(int64(p.PPID))
	e.I64(int64(p.PGID))
	e.I64(int64(p.SID))
	e.I64(int64(p.Container))
	e.Str(p.Name)
	e.StrSlice(p.Args)
	e.StrSlice(p.Env)
	e.Str(p.CWD)
	e.I64(int64(p.ExitCode))
	e.U8(uint8(p.state))
	e.U64(uint64(p.brk))
	// Thread references.
	tids := make([]uint64, len(p.Threads))
	for i, t := range p.Threads {
		tids[i] = t.oid
	}
	e.U64Slice(tids)
	e.U64(p.FDs.oid)
	// Program identity: name + driver snapshot for reattachment.
	if p.program != nil {
		e.Str(p.program.ProgName())
		e.Bytes2(p.program.Snapshot())
	} else {
		e.Str("")
		e.Bytes2(nil)
	}
	// Address-space layout: mappings with object references.
	maps := p.Space.Mappings()
	e.U64(uint64(len(maps)))
	for _, m := range maps {
		e.U64(uint64(m.Start))
		e.U64(uint64(m.End))
		e.U64(m.Obj.ID)
		e.I64(m.Off)
		e.U8(uint8(m.Prot))
		e.Bool(m.Shared)
		e.Str(m.Name)
		e.U8(uint8(m.Restore))
	}
}

// procImage is the decoded form of a process record, used by restore.
type procImage struct {
	OID       uint64
	PID       int
	PPID      int
	PGID      int
	SID       int
	Container int
	Name      string
	Args      []string
	Env       []string
	CWD       string
	ExitCode  int
	State     ProcState
	Brk       uint64
	ThreadOID []uint64
	FDTabOID  uint64
	ProgName  string
	ProgState []byte
	Mappings  []mapImage
}

type mapImage struct {
	Start, End uint64
	ObjID      uint64
	Off        int64
	Prot       uint8
	Shared     bool
	Name       string
	Restore    uint8
}

// decodeProcImage parses a serialized process.
func decodeProcImage(d *Decoder) (*procImage, error) {
	pi := &procImage{
		OID:       d.U64(),
		PID:       int(d.I64()),
		PPID:      int(d.I64()),
		PGID:      int(d.I64()),
		SID:       int(d.I64()),
		Container: int(d.I64()),
		Name:      d.Str(),
		Args:      d.StrSlice(),
		Env:       d.StrSlice(),
		CWD:       d.Str(),
		ExitCode:  int(d.I64()),
		State:     ProcState(d.U8()),
		Brk:       d.U64(),
		ThreadOID: d.U64Slice(),
		FDTabOID:  d.U64(),
		ProgName:  d.Str(),
		ProgState: d.Bytes2(),
	}
	n := d.U64()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		pi.Mappings = append(pi.Mappings, mapImage{
			Start: d.U64(), End: d.U64(), ObjID: d.U64(),
			Off: d.I64(), Prot: d.U8(), Shared: d.Bool(), Name: d.Str(),
			Restore: d.U8(),
		})
	}
	if err := d.Finish("process"); err != nil {
		return nil, err
	}
	return pi, nil
}

// String formats the process like a ps line.
func (p *Process) String() string {
	return fmt.Sprintf("pid=%d %s %s", p.PID, p.State(), p.Name)
}

// Setpgid moves the process into the given process group (0 = its own
// pid), like setpgid(2). Group identity is checkpointed with the
// process record.
func (p *Process) Setpgid(pgid int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pgid == 0 {
		pgid = p.PID
	}
	p.PGID = pgid
}

// Setsid makes the process a session (and process-group) leader, like
// setsid(2).
func (p *Process) Setsid() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.SID = p.PID
	p.PGID = p.PID
	return p.SID
}
