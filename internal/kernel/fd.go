package kernel

import (
	"sort"
	"sync"
	"sync/atomic"
)

// FD open flags (a subset of the POSIX set). A checkpointed descriptor
// records them, so each keeps its bit.
const (
	ORdOnly = 1 << 0
	OWrOnly = 1 << 1
	ORdWr   = 1 << 2
	OAppend = 1 << 5
)

// IOCtx carries the identity of the process performing an I/O and
// whether external consistency is enforced on the descriptor. Objects
// whose writes can cross a persistence-group boundary (pipes, sockets)
// use it to tag buffered data with the writer's checkpoint epoch.
type IOCtx struct {
	Proc *Process
	Ext  bool // external consistency enforced on this descriptor
	// Desc is the open-file description performing the I/O; positional
	// files (the Aurora file system) keep their offset there, exactly
	// where POSIX puts it.
	Desc *FileDesc
}

// OpenFile is the interface of every object a file descriptor can
// reference: pipes, socket endpoints, Aurora file-system files. All of
// them are first-class kernel objects.
type OpenFile interface {
	Object
	ReadFile(ctx IOCtx, p []byte) (int, error)
	WriteFile(ctx IOCtx, p []byte) (int, error)
	CloseFile() error
}

// FileDesc is a shared open-file description: descriptor table entries
// created by dup or inherited across fork point at the same FileDesc
// and therefore share the offset and flags, exactly as POSIX requires.
type FileDesc struct {
	oid   uint64
	Flags int
	File  OpenFile
	// Ext is the per-descriptor external-consistency switch that
	// sls_fdctl() toggles. It defaults to true: output that crosses a
	// persistence-group boundary is buffered until the covering
	// checkpoint is durable.
	Ext    bool
	Offset int64 // used by positional files (slsfs)
	refs   int32
	k      *Kernel
}

// OID implements Object.
func (fd *FileDesc) OID() uint64 { return fd.oid }

// Kind implements Object.
func (fd *FileDesc) Kind() Kind { return KindFileDesc }

// EncodeTo implements Object; the open file travels as a reference.
func (fd *FileDesc) EncodeTo(e *Encoder) {
	e.U64(fd.oid)
	e.I64(int64(fd.Flags))
	e.Bool(fd.Ext)
	e.I64(fd.Offset)
	if fd.File != nil {
		e.U64(fd.File.OID())
	} else {
		e.U64(0)
	}
}

// fdImage is a decoded FileDesc awaiting reference patching.
type fdImage struct {
	OID     uint64
	Flags   int
	Ext     bool
	Offset  int64
	FileOID uint64
}

func decodeFDImage(d *Decoder) (*fdImage, error) {
	fi := &fdImage{
		OID:    d.U64(),
		Flags:  int(d.I64()),
		Ext:    d.Bool(),
		Offset: d.I64(),
	}
	fi.FileOID = d.U64()
	if err := d.Finish("filedesc"); err != nil {
		return nil, err
	}
	return fi, nil
}

// FDTable maps descriptor numbers to open-file descriptions.
type FDTable struct {
	oid uint64
	mu  sync.Mutex
	fds map[int]*FileDesc
}

// NewFDTable creates an empty descriptor table.
func NewFDTable(oid uint64) *FDTable {
	return &FDTable{oid: oid, fds: make(map[int]*FileDesc)}
}

// OID implements Object.
func (t *FDTable) OID() uint64 { return t.oid }

// Kind implements Object.
func (t *FDTable) Kind() Kind { return KindFDTable }

// EncodeTo implements Object: descriptor numbers plus FileDesc OIDs.
// The FileDescs themselves serialize separately so dup'd descriptors
// restore as genuinely shared descriptions.
func (t *FDTable) EncodeTo(e *Encoder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.U64(t.oid)
	nums := make([]int, 0, len(t.fds))
	for n := range t.fds {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	e.U64(uint64(len(nums)))
	for _, n := range nums {
		e.I64(int64(n))
		e.U64(t.fds[n].oid)
	}
}

// fdTableImage is a decoded descriptor table awaiting patching.
type fdTableImage struct {
	OID     uint64
	Entries map[int]uint64 // fd number -> FileDesc OID
}

func decodeFDTableImage(d *Decoder) (*fdTableImage, error) {
	ti := &fdTableImage{OID: d.U64(), Entries: make(map[int]uint64)}
	n := d.U64()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		num := int(d.I64())
		ti.Entries[num] = d.U64()
	}
	if err := d.Finish("fdtable"); err != nil {
		return nil, err
	}
	return ti, nil
}

// Install places an open file at the lowest free descriptor number
// and returns it.
func (t *FDTable) Install(k *Kernel, f OpenFile, flags int) (int, *FileDesc) {
	desc := &FileDesc{oid: k.NextOID(), Flags: flags, File: f, Ext: true, refs: 1, k: k}
	k.register(desc)
	k.refFile(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for {
		if _, used := t.fds[n]; !used {
			break
		}
		n++
	}
	t.fds[n] = desc
	return n, desc
}

// Get returns the description behind descriptor n.
func (t *FDTable) Get(n int) (*FileDesc, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, ok := t.fds[n]
	if !ok {
		return nil, ErrBadFD
	}
	return fd, nil
}

// Dup duplicates descriptor n onto the lowest free number, sharing the
// description.
func (t *FDTable) Dup(n int) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, ok := t.fds[n]
	if !ok {
		return 0, ErrBadFD
	}
	atomic.AddInt32(&fd.refs, 1)
	m := 0
	for {
		if _, used := t.fds[m]; !used {
			break
		}
		m++
	}
	t.fds[m] = fd
	return m, nil
}

// Close removes descriptor n, closing the file when the last
// description reference drops.
func (t *FDTable) Close(n int) error {
	t.mu.Lock()
	fd, ok := t.fds[n]
	if !ok {
		t.mu.Unlock()
		return ErrBadFD
	}
	delete(t.fds, n)
	t.mu.Unlock()
	if atomic.AddInt32(&fd.refs, -1) == 0 && fd.k != nil {
		return fd.k.releaseFile(fd.File)
	}
	return nil
}

// CloseAll closes every descriptor (process exit).
func (t *FDTable) CloseAll() {
	t.mu.Lock()
	fds := t.fds
	t.fds = make(map[int]*FileDesc)
	t.mu.Unlock()
	for _, fd := range fds {
		if atomic.AddInt32(&fd.refs, -1) == 0 && fd.k != nil {
			fd.k.releaseFile(fd.File)
		}
	}
}

// Clone duplicates the table for fork: the child shares every open
// description with the parent.
func (t *FDTable) Clone(oid uint64) *FDTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt := NewFDTable(oid)
	for n, fd := range t.fds {
		atomic.AddInt32(&fd.refs, 1)
		nt.fds[n] = fd
	}
	return nt
}

// Numbers lists the open descriptor numbers in order.
func (t *FDTable) Numbers() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.fds))
	for n := range t.fds {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Descs returns the distinct FileDescs referenced by the table.
func (t *FDTable) Descs() []*FileDesc {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []*FileDesc
	for _, fd := range t.fds {
		if !seen[fd.oid] {
			seen[fd.oid] = true
			out = append(out, fd)
		}
	}
	return out
}

// restoreInstall places a restored description at an exact number.
func (t *FDTable) restoreInstall(n int, fd *FileDesc) {
	t.mu.Lock()
	t.fds[n] = fd
	t.mu.Unlock()
}

// Read reads from descriptor n on behalf of p.
func (k *Kernel) Read(p *Process, n int, buf []byte) (int, error) {
	fd, err := p.FDs.Get(n)
	if err != nil {
		return 0, err
	}
	if fd.Flags&OWrOnly != 0 {
		return 0, ErrBadFD
	}
	k.Clock.Advance(k.Costs.Syscall)
	return fd.File.ReadFile(IOCtx{Proc: p, Ext: fd.Ext, Desc: fd}, buf)
}

// Write writes to descriptor n on behalf of p.
func (k *Kernel) Write(p *Process, n int, buf []byte) (int, error) {
	fd, err := p.FDs.Get(n)
	if err != nil {
		return 0, err
	}
	if fd.Flags&ORdOnly != 0 {
		return 0, ErrBadFD
	}
	k.Clock.Advance(k.Costs.Syscall)
	return fd.File.WriteFile(IOCtx{Proc: p, Ext: fd.Ext, Desc: fd}, buf)
}

// FDCtl implements the descriptor half of sls_fdctl(): enabling or
// disabling external consistency on one descriptor.
func (k *Kernel) FDCtl(p *Process, n int, ext bool) error {
	fd, err := p.FDs.Get(n)
	if err != nil {
		return err
	}
	fd.Ext = ext
	return nil
}
