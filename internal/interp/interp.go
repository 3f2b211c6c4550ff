// Package interp implements a small register-machine interpreter that
// runs entirely on simulated state: its code and data live in the
// simulated address space and its execution state is exactly the
// thread's register file. Checkpointing a process running an interp
// program therefore captures a genuine mid-execution CPU state, and a
// restore resumes at the same PC with the same registers — the
// property the paper's hello-world serverless workload relies on.
package interp

import (
	"encoding/binary"
	"fmt"

	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// ProgramName is the name interp programs are registered under.
const ProgramName = "interp"

// InstrSize is the size of one fixed-width instruction.
const InstrSize = 16

// Opcodes of the register machine.
const (
	OpNop uint32 = iota
	OpHalt
	OpLi   // r[a] = imm
	OpMov  // r[a] = r[b]
	OpAdd  // r[a] = r[b] + r[c]
	OpSub  // r[a] = r[b] - r[c]
	OpMul  // r[a] = r[b] * r[c]
	OpAddi // r[a] = r[b] + imm
	OpLd   // r[a] = mem64[r[b] + imm]
	OpSt   // mem64[r[b] + imm] = r[a]
	OpJmp  // pc = imm
	OpBeq  // if r[a] == r[b] pc = imm
	OpBne  // if r[a] != r[b] pc = imm
	OpBlt  // if r[a] < r[b] pc = imm
	OpSys  // syscall a: 1=write(r1 fd, r2 buf, r3 len) 2=exit(r1) 3=yield
	OpSt8  // mem8[r[b] + imm] = low byte of r[a]
	OpLd8  // r[a] = mem8[r[b] + imm]
)

// Syscall numbers for OpSys.
const (
	SysWrite = 1
	SysExit  = 2
	SysYield = 3
)

// Instr is one decoded instruction.
type Instr struct {
	Op   uint32
	A, B uint32
	Imm  uint32
}

// Encode packs the instruction into its 16-byte wire form.
func (i Instr) Encode() []byte {
	var b [InstrSize]byte
	binary.LittleEndian.PutUint32(b[0:], i.Op)
	binary.LittleEndian.PutUint32(b[4:], i.A)
	binary.LittleEndian.PutUint32(b[8:], i.B)
	binary.LittleEndian.PutUint32(b[12:], i.Imm)
	return b[:]
}

// Decode unpacks an instruction.
func Decode(b []byte) Instr {
	return Instr{
		Op:  binary.LittleEndian.Uint32(b[0:]),
		A:   binary.LittleEndian.Uint32(b[4:]),
		B:   binary.LittleEndian.Uint32(b[8:]),
		Imm: binary.LittleEndian.Uint32(b[12:]),
	}
}

// Asm is a tiny assembler for building programs in tests and examples.
type Asm struct {
	code []byte
}

// Emit appends an instruction and returns its byte offset.
func (a *Asm) Emit(op, ra, rb, imm uint32) int {
	off := len(a.code)
	a.code = append(a.code, Instr{Op: op, A: ra, B: rb, Imm: imm}.Encode()...)
	return off
}

// Len returns the current code size (the offset of the next Emit).
func (a *Asm) Len() int { return len(a.code) }

// Patch rewrites the immediate of the instruction at off.
func (a *Asm) Patch(off int, imm uint32) {
	binary.LittleEndian.PutUint32(a.code[off+12:], imm)
}

// Code returns the assembled bytes.
func (a *Asm) Code() []byte { return a.code }

// Program is the interp driver. It holds no state of its own: fetch,
// decode and execute all operate on the thread's registers and the
// process's simulated memory, so checkpoints need nothing from it.
type Program struct {
	// Quantum bounds instructions per scheduler step.
	Quantum int
}

// ProgName implements kernel.Program.
func (pr *Program) ProgName() string { return ProgramName }

// Snapshot implements kernel.Program: the driver is stateless.
func (pr *Program) Snapshot() []byte { return nil }

// Step implements kernel.Program: run up to Quantum instructions.
func (pr *Program) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	q := pr.Quantum
	if q <= 0 {
		q = 64
	}
	var ibuf [InstrSize]byte
	executed := 0
	defer func() { k.Meter.ChargeInstr(int64(executed)) }()
	for n := 0; n < q; n++ {
		executed++
		if err := p.ReadMem(vm.Addr(t.Regs.PC), ibuf[:]); err != nil {
			return fmt.Errorf("interp: fetch at %#x: %w", t.Regs.PC, err)
		}
		in := Decode(ibuf[:])
		nextPC := t.Regs.PC + InstrSize
		r := &t.Regs.GPR
		switch in.Op {
		case OpNop:
		case OpHalt:
			return kernel.ErrThreadExit
		case OpLi:
			r[in.A&15] = uint64(in.Imm)
		case OpMov:
			r[in.A&15] = r[in.B&15]
		case OpAdd:
			r[in.A&15] = r[in.B&15] + r[in.Imm&15]
		case OpSub:
			r[in.A&15] = r[in.B&15] - r[in.Imm&15]
		case OpMul:
			r[in.A&15] = r[in.B&15] * r[in.Imm&15]
		case OpAddi:
			r[in.A&15] = r[in.B&15] + uint64(in.Imm)
		case OpLd:
			var b [8]byte
			if err := p.ReadMem(vm.Addr(r[in.B&15]+uint64(in.Imm)), b[:]); err != nil {
				return fmt.Errorf("interp: load: %w", err)
			}
			r[in.A&15] = binary.LittleEndian.Uint64(b[:])
		case OpSt:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], r[in.A&15])
			if err := p.WriteMem(vm.Addr(r[in.B&15]+uint64(in.Imm)), b[:]); err != nil {
				return fmt.Errorf("interp: store: %w", err)
			}
		case OpLd8:
			var b [1]byte
			if err := p.ReadMem(vm.Addr(r[in.B&15]+uint64(in.Imm)), b[:]); err != nil {
				return fmt.Errorf("interp: load8: %w", err)
			}
			r[in.A&15] = uint64(b[0])
		case OpSt8:
			b := [1]byte{byte(r[in.A&15])}
			if err := p.WriteMem(vm.Addr(r[in.B&15]+uint64(in.Imm)), b[:]); err != nil {
				return fmt.Errorf("interp: store8: %w", err)
			}
		case OpJmp:
			nextPC = uint64(in.Imm)
		case OpBeq:
			if r[in.A&15] == r[in.B&15] {
				nextPC = uint64(in.Imm)
			}
		case OpBne:
			if r[in.A&15] != r[in.B&15] {
				nextPC = uint64(in.Imm)
			}
		case OpBlt:
			if r[in.A&15] < r[in.B&15] {
				nextPC = uint64(in.Imm)
			}
		case OpSys:
			switch in.A {
			case SysWrite:
				buf := make([]byte, r[3])
				if err := p.ReadMem(vm.Addr(r[2]), buf); err != nil {
					return fmt.Errorf("interp: sys write: %w", err)
				}
				if _, err := k.Write(p, int(r[1]), buf); err != nil && err != kernel.ErrWouldBlock {
					return fmt.Errorf("interp: sys write: %w", err)
				}
			case SysExit:
				return kernel.ErrThreadExit
			case SysYield:
				t.Regs.PC = nextPC
				return nil
			default:
				return fmt.Errorf("interp: bad syscall %d at %#x", in.A, t.Regs.PC)
			}
		default:
			return fmt.Errorf("interp: bad opcode %d at %#x", in.Op, t.Regs.PC)
		}
		t.Regs.PC = nextPC
	}
	return nil
}

// Load maps an assembled program at the text base, points the main
// thread's PC at it, and attaches the interp driver.
func Load(k *kernel.Kernel, p *kernel.Process, code []byte) (vm.Addr, error) {
	const textBase = vm.Addr(0x0040_0000)
	n := vm.RoundUpPage(int64(len(code)))
	if _, err := p.Space.MapAnonAt(textBase, n, vm.ProtRead|vm.ProtWrite|vm.ProtExec, false, "text"); err != nil {
		return 0, err
	}
	if err := p.WriteMem(textBase, code); err != nil {
		return 0, err
	}
	p.Threads[0].Regs.PC = uint64(textBase)
	p.SetProgram(&Program{})
	return textBase, nil
}

func init() {
	kernel.RegisterProgram(ProgramName, func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		return &Program{}, nil
	})
}
