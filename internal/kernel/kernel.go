// Package kernel implements the simulated POSIX operating system that
// Aurora checkpoints: processes, threads, file descriptors, pipes,
// Unix-domain sockets and socket pairs, System V shared memory and
// message queues, process groups and containers, and a cooperative
// scheduler.
//
// The package follows the paper's central design rule: every POSIX
// primitive is a first-class kernel object with a stable object ID
// (OID), its own serialization code, and a registered restore
// function. The SLS orchestrator (internal/core) checkpoints a
// persistence group by snapshotting the object graph reachable from
// its processes, never by scraping state through a syscall boundary —
// that scraping approach is what internal/criu implements as the
// comparison baseline.
package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Errors returned by kernel operations.
var (
	ErrNoSuchProcess = errors.New("kernel: no such process")
	ErrBadFD         = errors.New("kernel: bad file descriptor")
	ErrNotRunning    = errors.New("kernel: process not running")
	ErrWouldBlock    = errors.New("kernel: operation would block")
	ErrClosedPipe    = errors.New("kernel: broken pipe")
	ErrNoSuchObject  = errors.New("kernel: no such object")
	ErrExists        = errors.New("kernel: object already exists")
)

// Kind identifies the type of a kernel object in serialized images.
type Kind uint16

// Object kinds. These values are part of the checkpoint format.
const (
	KindProcess Kind = iota + 1
	KindThread
	KindVMSpace
	KindVMObject
	KindFDTable
	KindPipe
	KindSocketPair
	KindUnixSocket
	KindSysVShm
	KindSysVMsgQueue
	KindFileDesc
	KindContainer
	KindPGroup
	KindSession
	KindNTLog
	KindSockEnd
)

// String names the kind for diagnostics and the ps command.
func (k Kind) String() string {
	switch k {
	case KindProcess:
		return "proc"
	case KindThread:
		return "thread"
	case KindVMSpace:
		return "vmspace"
	case KindVMObject:
		return "vmobject"
	case KindFDTable:
		return "fdtable"
	case KindPipe:
		return "pipe"
	case KindSocketPair:
		return "socketpair"
	case KindUnixSocket:
		return "unixsock"
	case KindSysVShm:
		return "sysvshm"
	case KindSysVMsgQueue:
		return "sysvmsgq"
	case KindFileDesc:
		return "filedesc"
	case KindContainer:
		return "container"
	case KindPGroup:
		return "pgroup"
	case KindSession:
		return "session"
	case KindNTLog:
		return "ntlog"
	case KindSockEnd:
		return "sockend"
	default:
		return fmt.Sprintf("kind%d", uint16(k))
	}
}

// Object is the interface every first-class kernel object implements:
// a stable identity plus self-serialization. Restores go through the
// per-kind functions the orchestrator registers.
type Object interface {
	OID() uint64
	Kind() Kind
	// EncodeTo appends the object's full metadata (not bulk memory
	// contents — those travel as data pages) to the encoder.
	EncodeTo(e *Encoder)
}

// GroupResolver lets the kernel ask which persistence group a process
// belongs to, and which checkpoint epoch that group is currently in.
// It is implemented by the SLS orchestrator; a nil resolver means no
// process is persisted.
type GroupResolver interface {
	// GroupOf returns the persistence group of pid (0 = none).
	GroupOf(pid int) uint64
	// EpochOf returns the group's current checkpoint epoch.
	EpochOf(group uint64) uint64
	// Released reports whether the given epoch of the group has been
	// made durable (external consistency can deliver its output).
	Released(group, epoch uint64) bool
	// Repoint makes each object of every group whose last barrier a
	// store has made durable page from that store's view of it, so
	// that its clean pages may leave memory (vm.Object.Repoint). It
	// reports whether it re-pointed any object. The kernel asks only
	// when memory is full and the clock found nothing to evict.
	Repoint() bool
}

// Kernel is one simulated machine: clock, memory, devices, process
// table, IPC registries.
type Kernel struct {
	Clock *storage.Clock
	Costs storage.CostModel
	Mem   *vm.PhysMem
	Meter *vm.Meter
	pager *vm.Pager

	mu        sync.Mutex
	oids      uint64
	pids      int
	procs     map[int]*Process
	objects   map[uint64]Object // all live first-class objects by OID
	shm       map[int]*SysVShm  // SysV shm by key
	msgq      map[int]*SysVMsgQueue
	uds       map[string]*UnixSocket // bound unix sockets by path
	fileRefs  map[uint64]int32       // open-file reference counts by OID
	conts     map[int]*Container
	contNext  int
	resolver  GroupResolver
	runQueue  []*Thread
	stopCount atomic.Int64 // processes currently stopped at a barrier
}

// New boots a simulated kernel with unbounded memory on a fresh clock.
func New() *Kernel {
	clock := storage.NewClock()
	return NewWith(clock, vm.NewPhysMem(0))
}

// NewWith boots a kernel on an existing clock and frame allocator.
func NewWith(clock *storage.Clock, mem *vm.PhysMem) *Kernel {
	k := &Kernel{
		Clock:    clock,
		Costs:    storage.DefaultCosts,
		Mem:      mem,
		procs:    make(map[int]*Process),
		objects:  make(map[uint64]Object),
		shm:      make(map[int]*SysVShm),
		msgq:     make(map[int]*SysVMsgQueue),
		uds:      make(map[string]*UnixSocket),
		fileRefs: make(map[uint64]int32),
		conts:    make(map[int]*Container),
	}
	k.Meter = vm.NewMeter(clock)
	k.pager = vm.NewPager(mem, k.Meter)
	k.contNext = 1
	// Container 0 is the host.
	host := &Container{oid: k.NextOID(), ID: 0, Name: "host"}
	k.conts[0] = host
	k.objects[host.oid] = host
	return k
}

// Reclaim frees up to target frames for an access that found physical
// memory full: the clock sweeps the live address spaces and evicts
// clean pages whose objects page from a store (vm.Pager). When it finds
// none, the resolver re-points the groups whose last barrier is durable
// in a store, and the clock sweeps again. It returns the pages evicted;
// none means memory holds nothing the store would give back.
func (k *Kernel) Reclaim(target int) int {
	k.mu.Lock()
	spaces := make([]*vm.AddressSpace, 0, len(k.procs))
	for _, p := range k.procs {
		spaces = append(spaces, p.Space)
	}
	r := k.resolver
	k.mu.Unlock()
	slices.SortFunc(spaces, func(a, b *vm.AddressSpace) int { return cmp.Compare(a.ID, b.ID) })
	n := k.pager.Reclaim(spaces, target)
	if n == 0 && r != nil && r.Repoint() {
		n = k.pager.Reclaim(spaces, target)
	}
	return n
}

// SetResolver installs the orchestrator's group resolver.
func (k *Kernel) SetResolver(r GroupResolver) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.resolver = r
}

// NextOID allocates a fresh object ID.
func (k *Kernel) NextOID() uint64 { return atomic.AddUint64(&k.oids, 1) }

// register records a live object in the OID table.
func (k *Kernel) register(o Object) {
	k.mu.Lock()
	k.objects[o.OID()] = o
	k.mu.Unlock()
}

// unregister drops an object from the OID table.
func (k *Kernel) unregister(oid uint64) {
	k.mu.Lock()
	delete(k.objects, oid)
	k.mu.Unlock()
}

// refFile takes an open-file reference. Descriptions created by
// Install or restore hold one reference each; dup and fork share the
// description rather than taking new file references.
func (k *Kernel) refFile(f OpenFile) {
	if f == nil {
		return
	}
	k.mu.Lock()
	k.fileRefs[f.OID()]++
	k.mu.Unlock()
}

// releaseFile drops an open-file reference, closing the file when the
// last reference is gone.
func (k *Kernel) releaseFile(f OpenFile) error {
	if f == nil {
		return nil
	}
	k.mu.Lock()
	k.fileRefs[f.OID()]--
	n := k.fileRefs[f.OID()]
	if n <= 0 {
		delete(k.fileRefs, f.OID())
	}
	k.mu.Unlock()
	if n <= 0 {
		return f.CloseFile()
	}
	return nil
}

// Lookup finds a live object by OID.
func (k *Kernel) Lookup(oid uint64) (Object, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	o, ok := k.objects[oid]
	return o, ok
}

// Process returns the process with the given pid.
func (k *Kernel) Process(pid int) (*Process, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok {
		return nil, ErrNoSuchProcess
	}
	return p, nil
}

// Processes returns a snapshot of all live processes.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}

// resolverSnapshot returns the current resolver.
func (k *Kernel) resolverSnapshot() GroupResolver {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.resolver
}

// groupOf returns the persistence group of a process (0 = untracked).
func (k *Kernel) groupOf(p *Process) uint64 {
	r := k.resolverSnapshot()
	if r == nil || p == nil {
		return 0
	}
	return r.GroupOf(p.PID)
}

// epochOf returns the current checkpoint epoch of a group.
func (k *Kernel) epochOf(group uint64) uint64 {
	r := k.resolverSnapshot()
	if r == nil {
		return 0
	}
	return r.EpochOf(group)
}

// released reports whether (group, epoch) is durable.
func (k *Kernel) released(group, epoch uint64) bool {
	r := k.resolverSnapshot()
	if r == nil {
		return true
	}
	return r.Released(group, epoch)
}

// Container is an OS container: a named set of processes with its own
// persistence group, mirroring the paper's per-container persistence.
type Container struct {
	oid  uint64
	ID   int
	Name string
}

// OID implements Object.
func (c *Container) OID() uint64 { return c.oid }

// Kind implements Object.
func (c *Container) Kind() Kind { return KindContainer }

// EncodeTo implements Object.
func (c *Container) EncodeTo(e *Encoder) {
	e.U64(c.oid)
	e.I64(int64(c.ID))
	e.Str(c.Name)
}

// NewContainer creates a container.
func (k *Kernel) NewContainer(name string) *Container {
	k.mu.Lock()
	defer k.mu.Unlock()
	c := &Container{oid: k.nextOIDLocked(), ID: k.contNext, Name: name}
	k.contNext++
	k.conts[c.ID] = c
	k.objects[c.oid] = c
	return c
}

func (k *Kernel) nextOIDLocked() uint64 {
	k.oids++
	return k.oids
}

// Container returns a container by ID.
func (k *Kernel) Container(id int) (*Container, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.conts[id]
	return c, ok
}

// restoreContainer reinstates a container object from a checkpoint.
func (k *Kernel) restoreContainer(d *Decoder) (*Container, error) {
	c := &Container{oid: d.U64(), ID: int(d.I64()), Name: d.Str()}
	if err := d.Finish("container"); err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if existing, ok := k.conts[c.ID]; ok {
		return existing, nil
	}
	k.conts[c.ID] = c
	k.objects[c.oid] = c
	if c.ID >= k.contNext {
		k.contNext = c.ID + 1
	}
	return c, nil
}
