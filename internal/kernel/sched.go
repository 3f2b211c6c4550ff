package kernel

import (
	"errors"
	"fmt"
	"sync"
)

// Program is the driver of a simulated process. Two styles exist:
//
//   - interpreter programs (package interp) whose entire execution
//     state is CPU registers plus simulated memory, demonstrating
//     exact mid-execution checkpoint/restore; and
//   - native application drivers (mini-Redis, the LSM store) that keep
//     all durable state in simulated memory and return a small
//     Snapshot of driver-local control state.
//
// On restore, the orchestrator re-instantiates the driver through the
// factory registered for its name and reattaches it to the restored
// process, whose memory and registers already hold the application
// state.
type Program interface {
	// ProgName identifies the program in checkpoints; a factory must
	// be registered under this name for the process to be restorable.
	ProgName() string
	// Step runs one scheduling quantum on thread t. Returning
	// ErrThreadExit retires the thread; other errors are fatal to the
	// process.
	Step(k *Kernel, p *Process, t *Thread) error
	// Snapshot returns driver-local state to embed in the checkpoint.
	Snapshot() []byte
}

// ErrThreadExit is returned by Program.Step when the thread finishes.
var ErrThreadExit = errors.New("kernel: thread exit")

// ProgramFactory reconstructs a program driver during restore.
// The process's memory and registers are already restored when the
// factory runs.
type ProgramFactory func(k *Kernel, p *Process, state []byte) (Program, error)

var (
	progMu        sync.RWMutex
	progFactories = make(map[string]ProgramFactory)
)

// RegisterProgram registers a restore factory for a program name.
// Later registrations replace earlier ones, which keeps tests
// independent.
func RegisterProgram(name string, f ProgramFactory) {
	progMu.Lock()
	defer progMu.Unlock()
	progFactories[name] = f
}

// LookupProgram finds a registered factory.
func LookupProgram(name string) (ProgramFactory, bool) {
	progMu.RLock()
	defer progMu.RUnlock()
	f, ok := progFactories[name]
	return f, ok
}

// Step runs one quantum of one runnable thread, round-robin. It
// returns false when nothing is runnable.
func (k *Kernel) Step() (bool, error) {
	t := k.nextRunnable()
	if t == nil {
		return false, nil
	}
	p := t.Proc
	prog := p.Program()
	if prog == nil {
		t.State = ThreadBlocked
		t.WaitChan = "noprog"
		return true, nil
	}
	err := prog.Step(k, p, t)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrThreadExit):
		t.State = ThreadDone
		if k.liveThreads(p) == 0 {
			k.Exit(p, 0)
		}
		return true, nil
	default:
		k.Exit(p, 1)
		return true, fmt.Errorf("pid %d (%s): %w", p.PID, p.Name, err)
	}
}

// Run steps the scheduler up to n quanta, stopping early when the
// system goes idle. It returns the number of quanta executed and the
// first program error, if any.
func (k *Kernel) Run(n int) (int, error) {
	var firstErr error
	for i := 0; i < n; i++ {
		ran, err := k.Step()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !ran {
			return i, firstErr
		}
	}
	return n, firstErr
}

// nextRunnable rotates the run queue to the next runnable thread of a
// running process. Threads that retired for good — ThreadDone, or any
// thread of a zombie process — are dropped from the queue here rather
// than rotated: a fleet's worth of exited and reaped processes must
// not tax every future quantum with corpse entries.
func (k *Kernel) nextRunnable() *Thread {
	k.mu.Lock()
	defer k.mu.Unlock()
	for n := len(k.runQueue); n > 0; n-- {
		t := k.runQueue[0]
		k.runQueue = k.runQueue[1:]
		if t.State == ThreadDone || t.Proc.State() == ProcZombie {
			t.State = ThreadDone
			t.queued = false
			continue
		}
		k.runQueue = append(k.runQueue, t)
		if t.State == ThreadRunnable && t.Proc.State() == ProcRunning {
			return t
		}
	}
	return nil
}

// liveThreads counts a process's non-retired threads.
func (k *Kernel) liveThreads(p *Process) int {
	n := 0
	for _, t := range p.Threads {
		if t.State != ThreadDone {
			n++
		}
	}
	return n
}

// StopProcess pauses a process at a serialization barrier. The cost of
// the stop (one context switch) is charged to the clock; the caller
// (the orchestrator) accumulates these into the application stop time.
func (k *Kernel) StopProcess(p *Process) {
	if p.State() == ProcRunning {
		p.setState(ProcStopped)
		k.stopCount.Add(1)
		k.Clock.Advance(k.Costs.CtxSwitch)
	}
}

// ResumeProcess releases a process stopped at a barrier.
func (k *Kernel) ResumeProcess(p *Process) {
	if p.State() == ProcStopped {
		p.setState(ProcRunning)
		k.stopCount.Add(-1)
		k.Clock.Advance(k.Costs.CtxSwitch)
	}
}

// StoppedCount reports how many processes are currently held at
// barriers (used by tests and the ps command).
func (k *Kernel) StoppedCount() int64 { return k.stopCount.Load() }

// AddRunnable enqueues a restored thread into the scheduler.
func (k *Kernel) AddRunnable(t *Thread) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.enqueueLocked(t)
}

// enqueueLocked puts t on the run queue unless it is already there.
func (k *Kernel) enqueueLocked(t *Thread) {
	if !t.queued {
		t.queued = true
		k.runQueue = append(k.runQueue, t)
	}
}

// FuncProgram adapts a plain step function into a Program; it is the
// quickest way to write test workloads. Snapshots are empty, so a
// FuncProgram is restorable only if a factory is registered for its
// name.
type FuncProgram struct {
	Name string
	Fn   func(k *Kernel, p *Process, t *Thread) error
}

// ProgName implements Program.
func (f *FuncProgram) ProgName() string { return f.Name }

// Step implements Program.
func (f *FuncProgram) Step(k *Kernel, p *Process, t *Thread) error { return f.Fn(k, p, t) }

// Snapshot implements Program.
func (f *FuncProgram) Snapshot() []byte { return nil }
