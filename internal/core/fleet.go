package core

import (
	"sync"
	"sync/atomic"

	"aurora/internal/storage"
)

// This file implements the fleet runtime: the shared, sharded worker
// pool behind every group's flush pipeline. The paper's FaaS claim
// (Table 4) needs thousands of concurrent persistence groups; giving
// each group its own goroutine stack (the pre-fleet design) costs two
// idle goroutines and a channel per group and makes 10k groups 20k
// goroutines. The fleet replaces that with a fixed pool:
//
//   - groups are placed onto shards by group ID modulo the shard
//     count, which is fixed for the fleet's lifetime (IDs are handed
//     out sequentially, so placement is balanced by construction);
//   - each shard runs a small set of worker goroutines that pull
//     dispatchable flushers from an event-driven run queue (workers
//     sleep on a condition variable; an enqueue wakes exactly one);
//   - each worker owns a persistent clock lane — the shard's flush
//     lane — so back-to-back flushes on a busy worker model device
//     queueing in virtual time without inflating the foreground
//     timeline; and
//   - a bounded global memory budget caps the frame bytes pinned by
//     queued-but-unflushed images across the whole fleet, so a
//     checkpoint storm cannot hold an unbounded amount of captured
//     memory alive while the devices catch up.
//
// Per-group ordering is the flusher's (flusher.go): one epoch in flight
// per group, retired strictly in order, with Enqueue exerting
// backpressure through the admission window. Parallelism comes from
// having many groups, not from overlapping one group's epochs.

// Fleet sizing: total flush concurrency is shards × workers.
const (
	fleetShards  = 4
	shardWorkers = 2
)

// fleet is the orchestrator-wide shard runtime.
type fleet struct {
	o      *Orchestrator
	shards []*fleetShard
	wg     sync.WaitGroup

	dispatches atomic.Int64

	// Global memory budget over queued image frame bytes. Guarded by
	// budgetMu; budgetCond wakes Enqueue callers when bytes come back.
	budgetMu     sync.Mutex
	budgetCond   *sync.Cond
	memBudget    int64 // 0 = unbounded
	memInUse     int64
	memPeak      int64
	budgetStalls int64
	closed       bool
}

// fleetShard is one shard: a run queue of flushers with dispatchable
// work, drained by the shard's workers.
type fleetShard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	runq   []*flusher // flushers with onRun set, in wake order
	closed bool

	placements atomic.Int64 // flushers placed on this shard, cumulative
}

func newFleet(o *Orchestrator) *fleet {
	fl := &fleet{o: o, memBudget: o.FleetMemBudget}
	fl.budgetCond = sync.NewCond(&fl.budgetMu)
	for i := 0; i < fleetShards; i++ {
		fs := &fleetShard{}
		fs.cond = sync.NewCond(&fs.mu)
		fl.shards = append(fl.shards, fs)
		for j := 0; j < shardWorkers; j++ {
			fl.wg.Add(1)
			go fl.worker(fs)
		}
	}
	return fl
}

// place maps a group onto its shard.
func (fl *fleet) place(group uint64) *fleetShard {
	fs := fl.shards[group%uint64(len(fl.shards))]
	fs.placements.Add(1)
	return fs
}

// wake marks a flusher dispatchable on its shard. After shutdown the
// job runs inline on the caller — correctness over concurrency once
// the runtime is gone.
func (fs *fleetShard) wake(f *flusher) {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		f.dispatch(nil)
		return
	}
	if !f.onRun {
		f.onRun = true
		fs.runq = append(fs.runq, f)
		fs.cond.Signal()
	}
	fs.mu.Unlock()
}

// worker is one shard worker: it owns a persistent flush lane and
// drains the shard's run queue until shutdown.
func (fl *fleet) worker(fs *fleetShard) {
	defer fl.wg.Done()
	lane := fl.o.K.Clock.Lane()
	for {
		fs.mu.Lock()
		for len(fs.runq) == 0 && !fs.closed {
			fs.cond.Wait()
		}
		if len(fs.runq) == 0 {
			// Closed and drained.
			fs.mu.Unlock()
			return
		}
		f := fs.runq[0]
		fs.runq = fs.runq[1:]
		f.onRun = false
		fs.mu.Unlock()
		fl.dispatches.Add(1)
		f.dispatch(lane)
	}
}

// acquireBudget charges n bytes of captured frame memory against the
// global budget, blocking while the fleet is over budget. To guarantee
// progress an acquisition is always admitted when nothing else is
// charged, even if it alone exceeds the budget. It returns the bytes
// actually charged (0 when the budget is unbounded or n is 0), which
// the caller must hand back through releaseBudget.
func (fl *fleet) acquireBudget(n int64) int64 {
	if fl.memBudget <= 0 || n <= 0 {
		return 0
	}
	fl.budgetMu.Lock()
	defer fl.budgetMu.Unlock()
	for fl.memInUse > 0 && fl.memInUse+n > fl.memBudget && !fl.closed {
		fl.budgetStalls++
		fl.budgetCond.Wait()
	}
	fl.memInUse += n
	if fl.memInUse > fl.memPeak {
		fl.memPeak = fl.memInUse
	}
	return n
}

// releaseBudget returns charged bytes to the budget.
func (fl *fleet) releaseBudget(n int64) {
	if n <= 0 {
		return
	}
	fl.budgetMu.Lock()
	fl.memInUse -= n
	fl.budgetMu.Unlock()
	fl.budgetCond.Broadcast()
}

// shutdown stops the shard workers after they drain their run queues,
// and wakes anything blocked on the memory budget.
func (fl *fleet) shutdown() {
	for _, fs := range fl.shards {
		fs.mu.Lock()
		fs.closed = true
		fs.cond.Broadcast()
		fs.mu.Unlock()
	}
	fl.budgetMu.Lock()
	fl.closed = true
	fl.budgetMu.Unlock()
	fl.budgetCond.Broadcast()
	fl.wg.Wait()
}

// FleetStats is the externally visible state of the shard runtime
// (`sls fleet`, the fleet bench harness).
type FleetStats struct {
	Shards          int
	WorkersPerShard int
	Placements      []int // flushers placed per shard, cumulative
	Dispatches      int64 // jobs handed to shard workers
	MemBudget       int64 // configured budget (0 = unbounded)
	MemInUse        int64 // frame bytes currently charged
	MemPeak         int64 // high-water mark of charged bytes
	BudgetStalls    int64 // Enqueue waits caused by the budget
}

// FleetStats snapshots the shard runtime. All zero values when no
// group has checkpointed yet (the runtime starts lazily).
func (o *Orchestrator) FleetStats() FleetStats {
	o.fleetMu.Lock()
	fl := o.fleet
	o.fleetMu.Unlock()
	if fl == nil {
		return FleetStats{}
	}
	st := FleetStats{
		Shards:          fleetShards,
		WorkersPerShard: shardWorkers,
		Dispatches:      fl.dispatches.Load(),
	}
	for _, fs := range fl.shards {
		st.Placements = append(st.Placements, int(fs.placements.Load()))
	}
	fl.budgetMu.Lock()
	st.MemBudget = fl.memBudget
	st.MemInUse = fl.memInUse
	st.MemPeak = fl.memPeak
	st.BudgetStalls = fl.budgetStalls
	fl.budgetMu.Unlock()
	return st
}

// fleetOf returns the orchestrator's shard runtime, starting it on
// first use. fleetMu is a leaf lock: it is never taken with o.mu or
// any group lock held by this code.
func (o *Orchestrator) fleetOf() *fleet {
	o.fleetMu.Lock()
	defer o.fleetMu.Unlock()
	if o.fleet == nil {
		o.fleet = newFleet(o)
	}
	return o.fleet
}

// Close shuts the fleet runtime down: every group's pipeline is drained
// first (a stalled head and the epochs behind it stay queued, exactly
// as Unpersist leaves them), then the shard workers exit. Zero
// goroutines remain after Close returns. A closed orchestrator may keep
// serving checkpoints — flushes then run inline on the enqueuing
// goroutine — but the expected sequence is Unpersist/Close at teardown.
func (o *Orchestrator) Close() {
	for _, g := range o.Groups() {
		o.Drain(g)
	}
	o.fleetMu.Lock()
	fl := o.fleet
	o.fleet = nil
	o.fleetMu.Unlock()
	if fl != nil {
		fl.shutdown()
	}
}

// laneFor seeds a detached flush lane from base, or from the kernel
// clock when base is nil (foreground callers).
func (o *Orchestrator) laneFor(base *storage.Clock) *storage.Clock {
	if base == nil {
		base = o.K.Clock
	}
	return base.Lane()
}
