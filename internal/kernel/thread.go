package kernel

// Regs is the simulated CPU register file of a thread. Checkpointing
// CPU state means saving exactly this structure; the interpreter
// programs in package interp execute against it, so a restored
// checkpoint resumes mid-loop with the same PC and registers.
type Regs struct {
	PC   uint64     // program counter
	SP   uint64     // stack pointer
	GPR  [16]uint64 // general purpose registers
	Flag uint64     // condition flags
}

// ThreadState is the scheduling state of one thread.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadDone
)

// Thread is a kernel thread: a register file bound to a process.
type Thread struct {
	oid   uint64
	TID   int
	Proc  *Process
	Regs  Regs
	State ThreadState
	// WaitChan names what a blocked thread is sleeping on, for ps.
	WaitChan string

	queued bool // on the kernel's run queue; guarded by Kernel.mu
}

// OID implements Object.
func (t *Thread) OID() uint64 { return t.oid }

// Kind implements Object.
func (t *Thread) Kind() Kind { return KindThread }

// EncodeTo implements Object: full register state plus scheduling
// state, which is what lets a restore resume execution exactly where
// the checkpoint stopped it.
func (t *Thread) EncodeTo(e *Encoder) {
	e.U64(t.oid)
	e.I64(int64(t.TID))
	e.U64(t.Regs.PC)
	e.U64(t.Regs.SP)
	for _, r := range t.Regs.GPR {
		e.U64(r)
	}
	e.U64(t.Regs.Flag)
	e.U8(uint8(t.State))
	e.Str(t.WaitChan)
}

// decodeThread parses a serialized thread (process linkage is patched
// by the restorer).
func decodeThread(d *Decoder) (*Thread, error) {
	t := &Thread{oid: d.U64(), TID: int(d.I64())}
	t.Regs.PC = d.U64()
	t.Regs.SP = d.U64()
	for i := range t.Regs.GPR {
		t.Regs.GPR[i] = d.U64()
	}
	t.Regs.Flag = d.U64()
	t.State = ThreadState(d.U8())
	t.WaitChan = d.Str()
	if err := d.Finish("thread"); err != nil {
		return nil, err
	}
	return t, nil
}

// CreateThread adds a thread to a process.
func (k *Kernel) CreateThread(p *Process, regs Regs) *Thread {
	t := &Thread{oid: k.NextOID(), Proc: p, Regs: regs}
	p.mu.Lock()
	t.TID = p.PID*100 + len(p.Threads)
	p.Threads = append(p.Threads, t)
	p.mu.Unlock()
	k.mu.Lock()
	k.objects[t.oid] = t
	k.enqueueLocked(t)
	k.mu.Unlock()
	return t
}
