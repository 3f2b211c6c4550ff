package kernel

import (
	"fmt"

	"aurora/internal/vm"
)

// This file is the kernel half of restore: given decoded object
// images (produced by the orchestrator from a checkpoint), it rebuilds
// live kernel objects and patches the references between them. The
// orchestrator owns the ordering: VM objects first (with their pages),
// then IPC objects, then processes, threads and descriptor tables.

// DecodeProcess parses a serialized process record.
func DecodeProcess(payload []byte) (*ProcImage, error) {
	pi, err := decodeProcImage(NewDecoder(payload))
	if err != nil {
		return nil, err
	}
	return (*ProcImage)(pi), nil
}

// ProcImage is the exported decoded form of a process record.
type ProcImage procImage

// DecodeThreadImage parses a serialized thread record.
func DecodeThreadImage(payload []byte) (*Thread, error) {
	return decodeThread(NewDecoder(payload))
}

// DecodeFDTable parses a serialized descriptor table.
func DecodeFDTable(payload []byte) (*FDTableImage, error) {
	ti, err := decodeFDTableImage(NewDecoder(payload))
	if err != nil {
		return nil, err
	}
	return (*FDTableImage)(ti), nil
}

// FDTableImage is the exported decoded descriptor table.
type FDTableImage fdTableImage

// DecodeFileDesc parses a serialized open-file description.
func DecodeFileDesc(payload []byte) (*FDImage, error) {
	fi, err := decodeFDImage(NewDecoder(payload))
	if err != nil {
		return nil, err
	}
	return (*FDImage)(fi), nil
}

// FDImage is the exported decoded file description.
type FDImage fdImage

// RestorePipe rebuilds a pipe object.
func (k *Kernel) RestorePipe(payload []byte) (*Pipe, error) {
	return k.restorePipe(NewDecoder(payload))
}

// RestoreSocketPair rebuilds a socket pair and its endpoints.
func (k *Kernel) RestoreSocketPair(payload []byte) (*SocketPair, error) {
	return k.restoreSocketPair(NewDecoder(payload))
}

// RestoreUnixSocket rebuilds a bound unix socket; the returned OIDs
// are the backlog connections to patch once their pairs exist.
func (k *Kernel) RestoreUnixSocket(payload []byte) (*UnixSocket, []uint64, error) {
	return k.restoreUnixSocket(NewDecoder(payload))
}

// PatchUnixBacklog reattaches restored backlog connections.
func (k *Kernel) PatchUnixBacklog(u *UnixSocket, refs []uint64) error {
	for _, oid := range refs {
		o, ok := k.Lookup(oid)
		if !ok {
			return fmt.Errorf("kernel: backlog connection %d missing: %w", oid, ErrNoSuchObject)
		}
		sp, ok := o.(*SocketPair)
		if !ok {
			return fmt.Errorf("kernel: backlog OID %d is %s, not socketpair", oid, o.Kind())
		}
		u.mu.Lock()
		u.backlog = append(u.backlog, sp)
		u.mu.Unlock()
	}
	return nil
}

// RestoreShm rebuilds a SysV shared memory segment; lookupObj resolves
// the recorded VM object ID to the restored object.
func (k *Kernel) RestoreShm(payload []byte, lookupObj func(uint64) *vm.Object) (*SysVShm, error) {
	return k.restoreShm(NewDecoder(payload), lookupObj)
}

// RestoreMsgQueue rebuilds a SysV message queue.
func (k *Kernel) RestoreMsgQueue(payload []byte) (*SysVMsgQueue, error) {
	return k.restoreMsgQueue(NewDecoder(payload))
}

// RestoreContainer rebuilds a container record.
func (k *Kernel) RestoreContainer(payload []byte) (*Container, error) {
	return k.restoreContainer(NewDecoder(payload))
}

// RestoreProcess rebuilds a process from its image: a fresh Process
// object with the recorded identity, an address space reassembled
// from the recorded mappings over restored VM objects, and an empty
// descriptor table to be filled by PatchFDTable. Threads are attached
// separately with AttachThread.
//
// lookupObj resolves recorded VM object IDs; returning nil fails the
// restore (a checkpoint referencing a missing object is corrupt).
func (k *Kernel) RestoreProcess(pi *ProcImage, lookupObj func(uint64) *vm.Object) (*Process, error) {
	space := vm.NewAddressSpace(k.Mem, k.Meter)
	p := &Process{
		oid:       k.NextOID(),
		PID:       pi.PID,
		PPID:      pi.PPID,
		PGID:      pi.PGID,
		SID:       pi.SID,
		Container: pi.Container,
		Name:      pi.Name,
		Args:      pi.Args,
		Env:       pi.Env,
		CWD:       pi.CWD,
		ExitCode:  pi.ExitCode,
		state:     ProcStopped, // resumed explicitly after patching
		Space:     space,
		kernel:    k,
	}
	p.FDs = NewFDTable(k.NextOID())

	for _, mi := range pi.Mappings {
		obj := lookupObj(mi.ObjID)
		if obj == nil {
			return nil, fmt.Errorf("kernel: restore pid %d: VM object %d missing: %w",
				pi.PID, mi.ObjID, ErrNoSuchObject)
		}
		m, err := space.Map(vm.Addr(mi.Start), int64(mi.End-mi.Start), vm.Prot(mi.Prot),
			obj, mi.Off, mi.Shared, mi.Name)
		if err != nil {
			return nil, fmt.Errorf("kernel: restore pid %d mapping %s: %w", pi.PID, mi.Name, err)
		}
		m.Restore = vm.RestorePolicy(mi.Restore)
		if mi.Name == "heap" {
			p.heap = m
			p.brk = vm.Addr(pi.Brk)
		}
	}

	k.mu.Lock()
	if existing := k.procs[pi.PID]; existing != nil {
		// PID collision with a live process: give the restored process
		// a fresh PID, as Aurora does when cloning an application.
		k.pids++
		p.PID = k.pids
	} else if pi.PID > k.pids {
		k.pids = pi.PID
	}
	k.procs[p.PID] = p
	k.objects[p.oid] = p
	k.objects[p.FDs.oid] = p.FDs
	k.mu.Unlock()
	return p, nil
}

// AttachThread binds a restored thread to its process and schedules it.
func (k *Kernel) AttachThread(p *Process, t *Thread) {
	t.Proc = p
	p.mu.Lock()
	p.Threads = append(p.Threads, t)
	p.mu.Unlock()
	k.mu.Lock()
	k.objects[t.oid] = t
	k.mu.Unlock()
	if t.State == ThreadRunnable {
		k.AddRunnable(t)
	}
}

// PatchFDTable fills a restored process's descriptor table: entries
// maps descriptor numbers to restored FileDescs.
func (k *Kernel) PatchFDTable(p *Process, entries map[int]*FileDesc) {
	for n, fd := range entries {
		p.FDs.restoreInstall(n, fd)
	}
}

// BuildFileDesc materializes a FileDesc from its image, resolving the
// open-file reference among restored objects.
func (k *Kernel) BuildFileDesc(fi *FDImage) (*FileDesc, error) {
	fd := &FileDesc{oid: fi.OID, Flags: fi.Flags, Ext: fi.Ext, Offset: fi.Offset, refs: 1, k: k}
	if fi.FileOID != 0 {
		o, ok := k.Lookup(fi.FileOID)
		if !ok {
			return nil, fmt.Errorf("kernel: file %d for descriptor %d missing: %w",
				fi.FileOID, fi.OID, ErrNoSuchObject)
		}
		f, ok := o.(OpenFile)
		if !ok {
			return nil, fmt.Errorf("kernel: OID %d is %s, not an open file", fi.FileOID, o.Kind())
		}
		fd.File = f
	}
	k.register(fd)
	k.refFile(fd.File)
	return fd, nil
}

// ShareFileDesc bumps the reference count when several descriptor
// numbers restore onto one description.
func ShareFileDesc(fd *FileDesc) *FileDesc {
	fd.refs++
	return fd
}

// ResumeRestored attaches the program driver (via its registered
// factory) and resumes the process.
func (k *Kernel) ResumeRestored(p *Process, progName string, progState []byte) error {
	if progName != "" {
		factory, ok := LookupProgram(progName)
		if !ok {
			return fmt.Errorf("kernel: no program factory registered for %q", progName)
		}
		prog, err := factory(k, p, progState)
		if err != nil {
			return fmt.Errorf("kernel: reattaching program %q: %w", progName, err)
		}
		p.SetProgram(prog)
	}
	p.setState(ProcRunning)
	return nil
}

// BuildFileDescWith materializes a FileDesc around an externally
// resolved open file (e.g. an Aurora file system inode, which lives
// outside the kernel object table).
func (k *Kernel) BuildFileDescWith(fi *FDImage, f OpenFile) *FileDesc {
	fd := &FileDesc{oid: fi.OID, Flags: fi.Flags, Ext: fi.Ext, Offset: fi.Offset, refs: 1, k: k, File: f}
	k.register(fd)
	k.refFile(f)
	return fd
}
