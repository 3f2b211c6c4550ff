// Package faas implements the paper's serverless use case on Aurora:
// function warm starts by restore, scale-out by repeated restore, and
// high function density through the object store's deduplication.
//
// A function runtime is built once: a container whose process loads a
// simulated language runtime (pages of deterministic "library"
// content) and initializes — the expensive part of a cold start. The
// runtime container is checkpointed; every deployed function is then a
// small delta over that image (its own code and arguments), so the
// store holds the runtime pages once no matter how many functions are
// deployed. Invocation restores the function's checkpoint: the
// paper's sub-millisecond warm start.
package faas

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aurora/internal/core"
	"aurora/internal/interp"
	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// Errors.
var (
	ErrNoFunction = errors.New("faas: function not deployed")
	ErrNotReady   = errors.New("faas: function did not produce a result")
)

// Layout addresses inside a function instance.
const (
	// argAddr holds the invocation argument (u64).
	argAddr = vm.Addr(0x2000_0000)
	// resultAddr holds the result; resultFlag is set when done.
	resultAddr = vm.Addr(0x2000_0008)
	flagAddr   = vm.Addr(0x2000_0010)
	// runtimeBase maps the simulated language runtime.
	runtimeBase = vm.Addr(0x3000_0000)
)

// Runtime owns the base image and the deployed functions.
type Runtime struct {
	O     *core.Orchestrator
	Store *core.StoreBackend
	Mem   *core.MemoryBackend
	// RuntimePages sizes the simulated language runtime: pages of
	// deterministic content shared by every function.
	RuntimePages int
	// InitLoops is the cold-start initialization work (interp loop
	// iterations touching the runtime).
	InitLoops int

	baseGroup *core.Group
	functions map[string]*Function
}

// Function is one deployed function.
type Function struct {
	Name  string
	Group *core.Group
	// Code size in bytes of the function-specific delta.
	DeltaBytes int
}

// NewRuntime builds the runtime manager.
func NewRuntime(o *core.Orchestrator, store *core.StoreBackend, mem *core.MemoryBackend) *Runtime {
	return &Runtime{
		O:            o,
		Store:        store,
		Mem:          mem,
		RuntimePages: 160, // ~650 KB, sized to the paper's serverless image
		InitLoops:    5000,
		functions:    make(map[string]*Function),
	}
}

// functionProgram assembles the hello-world function body:
//
//	init:  loop InitLoops times reading runtime pages (cold start)
//	ready: spin until argAddr changes from 0 (warm instances park here)
//	body:  result = arg*2 + runtime[0]; flag = 1; jump ready
func (rt *Runtime) functionProgram() []byte {
	var a interp.Asm
	const textBase = uint32(0x0040_0000)

	// --- init: touch runtime pages to fault them in ---
	runtimeEnd := uint32(runtimeBase) + uint32(rt.RuntimePages)*uint32(vm.PageSize)
	a.Emit(interp.OpLi, 1, 0, uint32(runtimeBase)) // r1 = runtime cursor
	a.Emit(interp.OpLi, 2, 0, 0)                   // r2 = i
	a.Emit(interp.OpLi, 3, 0, uint32(rt.InitLoops))
	a.Emit(interp.OpLi, 15, 0, runtimeEnd) // r15 = wrap bound
	initLoop := a.Len()
	a.Emit(interp.OpLd8, 4, 1, 0)         // touch runtime
	a.Emit(interp.OpAddi, 1, 1, 64)       // stride through the pages
	blt := a.Emit(interp.OpBlt, 1, 15, 0) // in range: skip the reset
	a.Emit(interp.OpLi, 1, 0, uint32(runtimeBase))
	a.Patch(blt, textBase+uint32(a.Len()))
	a.Emit(interp.OpAddi, 2, 2, 1)
	bne := a.Emit(interp.OpBne, 2, 3, 0)
	a.Patch(bne, textBase+uint32(initLoop))

	// --- ready: park until an argument arrives ---
	ready := a.Len()
	a.Emit(interp.OpLi, 5, 0, uint32(argAddr))
	a.Emit(interp.OpLd, 6, 5, 0) // r6 = arg
	a.Emit(interp.OpLi, 7, 0, 0)
	spin := a.Emit(interp.OpBeq, 6, 7, 0) // if arg == 0 goto ready
	a.Patch(spin, textBase+uint32(ready))
	a.Emit(interp.OpSys, interp.SysYield, 0, 0)

	// --- body ---
	a.Emit(interp.OpAdd, 8, 6, 6) // result = arg*2
	a.Emit(interp.OpLi, 9, 0, uint32(runtimeBase))
	a.Emit(interp.OpLd8, 10, 9, 0)
	a.Emit(interp.OpAdd, 8, 8, 10) // + runtime[0]
	a.Emit(interp.OpLi, 11, 0, uint32(resultAddr))
	a.Emit(interp.OpSt, 8, 11, 0)
	a.Emit(interp.OpLi, 12, 0, 1)
	a.Emit(interp.OpLi, 13, 0, uint32(flagAddr))
	a.Emit(interp.OpSt, 12, 13, 0)
	// Clear the argument and park again.
	a.Emit(interp.OpLi, 14, 0, 0)
	a.Emit(interp.OpSt, 14, 5, 0)
	jmp := a.Emit(interp.OpJmp, 0, 0, 0)
	a.Patch(jmp, textBase+uint32(ready))
	return a.Code()
}

// boot spawns and initializes one runtime instance (a cold start),
// returning the process once it parks at ready.
func (rt *Runtime) boot(container int) (*kernel.Process, error) {
	k := rt.O.K
	p, err := k.Spawn(container, "faas-runtime")
	if err != nil {
		return nil, err
	}
	// Argument/result page.
	if _, err := p.Space.MapAnonAt(argAddr&^vm.Addr(vm.PageMask), vm.PageSize,
		vm.ProtRead|vm.ProtWrite, false, "mailbox"); err != nil {
		return nil, err
	}
	// Simulated language runtime: deterministic contents dedup across
	// every instance ever checkpointed.
	size := int64(rt.RuntimePages) * vm.PageSize
	if _, err := p.Space.MapAnonAt(runtimeBase, size, vm.ProtRead|vm.ProtWrite, false, "runtime"); err != nil {
		return nil, err
	}
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(37 + i%251)
	}
	if err := p.WriteMem(runtimeBase, content); err != nil {
		return nil, err
	}
	if _, err := interp.Load(k, p, rt.functionProgram()); err != nil {
		return nil, err
	}
	// Run the init loop to the parking point (the expensive cold
	// start). The yield after the body never fires during init; the
	// park spin keeps the process runnable.
	// Parked sibling instances spin and share the scheduler, so the
	// budget scales with the whole-system quantum demand.
	for i := 0; i < rt.InitLoops/16+1024; i++ {
		if _, err := k.Run(64); err != nil {
			return nil, err
		}
		if rt.parked(p) {
			break
		}
	}
	if !rt.parked(p) {
		return nil, fmt.Errorf("faas: runtime did not reach ready state")
	}
	return p, nil
}

// parked reports whether the instance is spinning at ready (init done:
// the loop counter register equals the loop bound).
func (rt *Runtime) parked(p *kernel.Process) bool {
	t := p.Threads[0]
	return t.Regs.GPR[2] == uint64(rt.InitLoops) && p.State() == kernel.ProcRunning
}

// BuildBase cold-boots the runtime container and checkpoints it: the
// image every function is a delta over.
func (rt *Runtime) BuildBase() (*core.Group, error) {
	c := rt.O.K.NewContainer("faas-runtime")
	p, err := rt.boot(c.ID)
	if err != nil {
		return nil, err
	}
	g, err := rt.O.PersistContainer("faas-base", c.ID)
	if err != nil {
		return nil, err
	}
	if rt.Store != nil {
		rt.O.Attach(g, rt.Store)
	}
	if rt.Mem != nil {
		rt.O.Attach(g, rt.Mem)
	}
	if _, err := rt.O.Checkpoint(g, core.CheckpointOpts{Name: "faas-base"}); err != nil {
		return nil, err
	}
	// Deployment is a durability point: later deploys restore from this
	// image, so wait out the background flush.
	if err := rt.O.Sync(g); err != nil {
		return nil, err
	}
	rt.baseGroup = g
	_ = p
	return g, nil
}

// Deploy creates a function: a restored runtime instance patched with
// the function's delta (its code/configuration bytes), checkpointed
// into its own group. Storage cost beyond the shared runtime is just
// the delta.
func (rt *Runtime) Deploy(name string, delta []byte) (*Function, error) {
	if rt.baseGroup == nil {
		if _, err := rt.BuildBase(); err != nil {
			return nil, err
		}
	}
	ng, _, err := rt.O.Restore(rt.baseGroup, 0, core.RestoreOpts{Lazy: true, Name: "fn-" + name})
	if err != nil {
		return nil, err
	}
	p, err := rt.O.K.Process(ng.PIDs()[0])
	if err != nil {
		return nil, err
	}
	// The function's own state: a small configuration blob placed in
	// the mailbox page (beyond the flag words).
	if len(delta) > 0 {
		if err := p.WriteMem(flagAddr+8, delta); err != nil {
			return nil, err
		}
	}
	if _, err := rt.O.Checkpoint(ng, core.CheckpointOpts{Name: "fn-" + name}); err != nil {
		return nil, err
	}
	if err := rt.O.Sync(ng); err != nil {
		return nil, err
	}
	fn := &Function{Name: name, Group: ng, DeltaBytes: len(delta)}
	rt.functions[name] = fn
	return fn, nil
}

// Function returns a deployed function.
func (rt *Runtime) Function(name string) (*Function, error) {
	fn, ok := rt.functions[name]
	if !ok {
		return nil, ErrNoFunction
	}
	return fn, nil
}

// Invoke warm-starts the function from its checkpoint, passes arg, and
// runs it to completion. It returns the result and the restore
// breakdown (the warm-start latency of Table 4).
func (rt *Runtime) Invoke(name string, arg uint64, opts core.RestoreOpts) (uint64, core.RestoreBreakdown, error) {
	fn, ok := rt.functions[name]
	if !ok {
		return 0, core.RestoreBreakdown{}, ErrNoFunction
	}
	opts.Name = "invoke-" + name
	ng, bd, err := rt.O.Restore(fn.Group, 0, opts)
	if err != nil {
		return 0, bd, err
	}
	p, err := rt.O.K.Process(ng.PIDs()[0])
	if err != nil {
		return 0, bd, err
	}
	result, err := rt.run(p, arg)
	if err != nil {
		return 0, bd, err
	}
	// Scale-in: the instance exits after one invocation.
	rt.O.K.Exit(p, 0)
	rt.O.K.Reap(p)
	rt.O.Unpersist(ng)
	return result, bd, nil
}

// ColdStart boots a fresh instance from scratch and runs one
// invocation — the baseline the paper's warm start is compared to.
func (rt *Runtime) ColdStart(arg uint64) (uint64, error) {
	c := rt.O.K.NewContainer("cold")
	p, err := rt.boot(c.ID)
	if err != nil {
		return 0, err
	}
	result, err := rt.run(p, arg)
	if err != nil {
		return 0, err
	}
	rt.O.K.Exit(p, 0)
	rt.O.K.Reap(p)
	return result, nil
}

// run delivers an argument and waits for the flag.
func (rt *Runtime) run(p *kernel.Process, arg uint64) (uint64, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], arg)
	if err := p.WriteMem(argAddr, b[:]); err != nil {
		return 0, err
	}
	for i := 0; i < 10000; i++ {
		if _, err := rt.O.K.Run(16); err != nil {
			return 0, err
		}
		if err := p.ReadMem(flagAddr, b[:]); err != nil {
			return 0, err
		}
		if binary.LittleEndian.Uint64(b[:]) == 1 {
			// Reset the flag for the next invocation.
			var zero [8]byte
			p.WriteMem(flagAddr, zero[:])
			if err := p.ReadMem(resultAddr, b[:]); err != nil {
				return 0, err
			}
			return binary.LittleEndian.Uint64(b[:]), nil
		}
	}
	return 0, ErrNotReady
}

// RunInstance delivers an argument to an already-running instance and
// waits for its result (used by scale-out tests that keep instances
// alive across invocations).
func (rt *Runtime) RunInstance(p *kernel.Process, arg uint64) (uint64, error) {
	return rt.run(p, arg)
}

// Expected computes the function's expected output for verification.
func (rt *Runtime) Expected(arg uint64) uint64 {
	return arg*2 + uint64(37) // runtime[0] = 37
}

// Functions lists deployed function names.
func (rt *Runtime) Functions() []string {
	out := make([]string, 0, len(rt.functions))
	for n := range rt.functions {
		out = append(out, n)
	}
	return out
}
