package kernel

import (
	"sync"

	"aurora/internal/vm"
)

// SysVShm is a System V shared memory segment: a named VM object that
// any process may attach. Because the backing pages live in one object
// shared by all attachments, Aurora's checkpoint COW preserves sharing
// across a checkpoint — the scenario that breaks under fork-style COW.
type SysVShm struct {
	oid  uint64
	Key  int
	Size int64
	Obj  *vm.Object
}

// OID implements Object.
func (s *SysVShm) OID() uint64 { return s.oid }

// Kind implements Object.
func (s *SysVShm) Kind() Kind { return KindSysVShm }

// EncodeTo implements Object: metadata only; the pages travel as data.
func (s *SysVShm) EncodeTo(e *Encoder) {
	e.U64(s.oid)
	e.I64(int64(s.Key))
	e.I64(s.Size)
	e.U64(s.Obj.ID)
}

// ShmGet finds or creates the segment with the given key.
func (k *Kernel) ShmGet(key int, size int64) (*SysVShm, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if s, ok := k.shm[key]; ok {
		return s, nil
	}
	size = vm.RoundUpPage(size)
	s := &SysVShm{
		oid:  k.nextOIDLocked(),
		Key:  key,
		Size: size,
		Obj:  k.Mem.NewObject(shmName(key), size),
	}
	k.shm[key] = s
	k.objects[s.oid] = s
	return s, nil
}

func shmName(key int) string { return "shm:" + itoa(key) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// ShmAttach maps the segment into the process's address space as a
// shared mapping and returns the attachment address.
func (k *Kernel) ShmAttach(p *Process, s *SysVShm) (vm.Addr, error) {
	m, err := p.Space.Map(0, s.Size, vm.ProtRead|vm.ProtWrite, s.Obj, 0, true, s.Obj.Name)
	if err != nil {
		return 0, err
	}
	k.Clock.Advance(k.Costs.Syscall)
	return m.Start, nil
}

// ShmDetach unmaps the segment from the process.
func (k *Kernel) ShmDetach(p *Process, addr vm.Addr, s *SysVShm) error {
	k.Clock.Advance(k.Costs.Syscall)
	return p.Space.Unmap(addr, s.Size)
}

// ShmRemove deletes the segment key and drops the segment's own
// reference to its object: attached mappings keep the object alive until
// unmapped, as with IPC_RMID, and the last of them releases its pages
// and its page source.
func (k *Kernel) ShmRemove(key int) error {
	k.mu.Lock()
	s, ok := k.shm[key]
	if ok {
		delete(k.shm, key)
		delete(k.objects, s.oid)
	}
	k.mu.Unlock()
	if !ok {
		return ErrNoSuchObject
	}
	if s.Obj.Deref() {
		s.Obj.ReleaseAll(k.Mem)
	}
	return nil
}

// ShmSegments lists all live segments.
func (k *Kernel) ShmSegments() []*SysVShm {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*SysVShm, 0, len(k.shm))
	for _, s := range k.shm {
		out = append(out, s)
	}
	return out
}

// restoreShm reinstates a segment; the VM object is patched in by the
// restorer using the recorded object ID.
func (k *Kernel) restoreShm(d *Decoder, lookupObj func(uint64) *vm.Object) (*SysVShm, error) {
	s := &SysVShm{oid: d.U64(), Key: int(d.I64()), Size: d.I64()}
	objID := d.U64()
	if err := d.Finish("sysvshm"); err != nil {
		return nil, err
	}
	s.Obj = lookupObj(objID)
	if s.Obj == nil {
		return nil, ErrCorrupt
	}
	s.Obj.Ref() // the segment's own, as ShmGet's construction reference is
	k.mu.Lock()
	k.shm[s.Key] = s
	k.objects[s.oid] = s
	k.mu.Unlock()
	return s, nil
}

// Msg is one System V message.
type Msg struct {
	Type int64
	Data []byte
}

// SysVMsgQueue is a System V message queue.
type SysVMsgQueue struct {
	oid    uint64
	Key    int
	kernel *Kernel

	mu   sync.Mutex
	msgs []Msg
}

// OID implements Object.
func (q *SysVMsgQueue) OID() uint64 { return q.oid }

// Kind implements Object.
func (q *SysVMsgQueue) Kind() Kind { return KindSysVMsgQueue }

// EncodeTo implements Object: the queued messages are checkpoint state.
func (q *SysVMsgQueue) EncodeTo(e *Encoder) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e.U64(q.oid)
	e.I64(int64(q.Key))
	e.U64(uint64(len(q.msgs)))
	for _, m := range q.msgs {
		e.I64(m.Type)
		e.Bytes2(m.Data)
	}
}

// MsgGet finds or creates the queue with the given key.
func (k *Kernel) MsgGet(key int) *SysVMsgQueue {
	k.mu.Lock()
	defer k.mu.Unlock()
	if q, ok := k.msgq[key]; ok {
		return q
	}
	q := &SysVMsgQueue{oid: k.nextOIDLocked(), Key: key, kernel: k}
	k.msgq[key] = q
	k.objects[q.oid] = q
	return q
}

// Send enqueues a message.
func (q *SysVMsgQueue) Send(typ int64, data []byte) {
	q.mu.Lock()
	q.msgs = append(q.msgs, Msg{Type: typ, Data: append([]byte(nil), data...)})
	q.mu.Unlock()
	q.kernel.Clock.Advance(q.kernel.Costs.Syscall)
}

// Recv dequeues the first message of the given type (0 = any).
func (q *SysVMsgQueue) Recv(typ int64) (Msg, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, m := range q.msgs {
		if typ == 0 || m.Type == typ {
			q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
			q.kernel.Clock.Advance(q.kernel.Costs.Syscall)
			return m, nil
		}
	}
	return Msg{}, ErrWouldBlock
}

// Len returns the number of queued messages.
func (q *SysVMsgQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}

// MsgQueues lists all live queues.
func (k *Kernel) MsgQueues() []*SysVMsgQueue {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*SysVMsgQueue, 0, len(k.msgq))
	for _, q := range k.msgq {
		out = append(out, q)
	}
	return out
}

// restoreMsgQueue reinstates a message queue with its messages.
func (k *Kernel) restoreMsgQueue(d *Decoder) (*SysVMsgQueue, error) {
	q := &SysVMsgQueue{oid: d.U64(), Key: int(d.I64()), kernel: k}
	n := d.U64()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		q.msgs = append(q.msgs, Msg{Type: d.I64(), Data: d.Bytes2()})
	}
	if err := d.Finish("sysvmsgq"); err != nil {
		return nil, err
	}
	k.mu.Lock()
	k.msgq[q.Key] = q
	k.objects[q.oid] = q
	k.mu.Unlock()
	return q, nil
}
