package core

import (
	"sync"
	"time"

	"aurora/internal/storage"
)

// This file implements the background flush pipeline. A serialization
// barrier (Checkpoint) hands its immutable image to the group's
// flusher and returns as soon as the group has resumed; a fleet shard
// worker (fleet.go) fans the image out to every attached backend.
// Durability — g.Durable(), and with it Released()/external
// consistency — is a prefix property, so the pipeline is one in-order
// queue: only its head may be in flight, and an epoch leaves the queue
// by flushing successfully, never by being overtaken. The head is
// therefore the only owner of its own retry.
//
// The flusher owns no goroutines. It is a per-group scheduling record
// that the shard workers pull from. That is what makes 10k groups
// cheap: a group that is not flushing costs a struct, not two parked
// goroutines and a channel.

// defaultFlushQueue is the number of epochs that may wait behind the
// one in flight before Checkpoint blocks (Orchestrator.FlushQueueDepth).
const defaultFlushQueue = 4

// flushJob tracks one epoch's trip through the pipeline.
type flushJob struct {
	img    *Image
	bdIdx  int   // index into g.ckpts whose FlushTime gets patched
	budget int64 // frame bytes still charged to the fleet memory budget

	// err, guarded by the flusher's mu, is the job's last failed
	// attempt. Non-nil on an idle head means the pipeline is stalled:
	// nobody is retrying the epoch until an Enqueue or Sync does.
	err error
}

// flusher is a per-group flush pipeline: an in-order, single-flight
// queue of un-retired epochs behind a bounded admission window
// (Enqueue blocks when full — backpressure on the checkpointing
// caller). Dispatch runs on the fleet's shard workers.
type flusher struct {
	o     *Orchestrator
	g     *Group
	fl    *fleet
	shard *fleetShard
	onRun bool // on the shard's run queue; guarded by shard.mu

	// syncMu serializes Sync callers.
	syncMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond  // broadcast whenever an attempt finishes, and on Close
	queue   []*flushJob // un-retired epochs, oldest first; queue[0] is the head
	running bool        // the head's flush is in flight (worker or Sync)
	waiting int         // Enqueue callers held out by the window (counted in depth)
	window  int         // max queued epochs: the one in flight + the queue depth
	closed  bool
}

func newFlusher(o *Orchestrator, g *Group, depth int) *flusher {
	if depth <= 0 {
		depth = defaultFlushQueue
	}
	f := &flusher{o: o, g: g, fl: o.fleetOf(), window: 1 + depth}
	f.cond = sync.NewCond(&f.mu)
	f.shard = f.fl.place(g.ID)
	return f
}

// stalledLocked reports whether the head's last attempt failed and
// nothing is retrying it. Caller holds f.mu.
func (f *flusher) stalledLocked() bool {
	return !f.running && len(f.queue) > 0 && f.queue[0].err != nil
}

// Enqueue hands an image to the pipeline. It blocks while the
// admission window is full, which is the backpressure that keeps a
// checkpoint storm from building an unbounded backlog of unflushed
// epochs; the fleet's global memory budget adds a second, cross-group
// bound on the frame bytes those backlogs pin. It never waits behind a
// stalled head — a dead backend must not hang the checkpointing
// goroutine — and a blocked Enqueue is woken, its job dropped
// unflushed, if the flusher closes underneath it (Unpersist during a
// storm). Every Enqueue is also the retry trigger for a stalled head:
// the new epoch cannot flush until the old one has.
func (f *flusher) Enqueue(img *Image, bdIdx int) {
	job := &flushJob{img: img, bdIdx: bdIdx}
	job.budget = f.fl.acquireBudget(img.FootprintBytes())
	f.mu.Lock()
	f.waiting++
	for len(f.queue) >= f.window && !f.stalledLocked() && !f.closed {
		f.cond.Wait()
	}
	f.waiting--
	if f.closed {
		f.mu.Unlock()
		f.fl.releaseBudget(job.budget)
		return
	}
	f.queue = append(f.queue, job)
	wake := !f.running
	if wake {
		f.queue[0].err = nil // re-arm a stalled head: a dispatch is now pending
	}
	f.mu.Unlock()
	if wake {
		f.shard.wake(f)
	}
}

// depth reports the number of epochs not yet retired (in flight,
// queued, stalled behind a failure, or held out by the window).
func (f *flusher) depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue) + f.waiting
}

// dispatch runs the head's flush on the calling shard worker's flush
// lane, unless an attempt is already in flight. The lane advances by
// the flush's modeled duration so back-to-back jobs on a busy worker
// queue in virtual time; with a nil lane (fleet shut down, inline
// fallback) the job charges a fresh lane off the kernel clock.
func (f *flusher) dispatch(lane *storage.Clock) {
	f.mu.Lock()
	if f.running || len(f.queue) == 0 {
		f.mu.Unlock()
		return
	}
	job := f.queue[0]
	f.running = true
	f.mu.Unlock()

	if lane == nil {
		lane = f.o.K.Clock.Lane()
	} else {
		// The device cannot start work before the flush was issued.
		lane.AdvanceTo(f.o.K.Clock.Now())
	}
	start := lane.Now()
	dur, err := f.o.flushImage(f.g, job.img, true, lane)
	lane.AdvanceTo(start + dur)
	f.finish(job, dur, err)
}

// finish ends the head's attempt, which the caller started by setting
// f.running. Success retires the epoch, pops it and hands the queue
// back to a shard worker; failure records the error and leaves the
// epoch at the head — its successors are not woken, so nothing ever
// flushes past it.
func (f *flusher) finish(job *flushJob, dur time.Duration, err error) {
	if err == nil {
		// Still marked running, so retirements are serial and in order.
		f.retire(job, dur)
	}
	f.mu.Lock()
	f.running = false
	job.err = err
	free := job.budget
	job.budget = 0
	if err == nil {
		f.queue[0] = nil
		f.queue = f.queue[1:]
	} else {
		// A stalled queue pins no budget: the fleet-wide bound must not
		// turn one dead backend into every group's backpressure.
		for _, j := range f.queue {
			free += j.budget
			j.budget = 0
		}
	}
	more := err == nil && len(f.queue) > 0
	f.cond.Broadcast()
	f.mu.Unlock()
	f.fl.releaseBudget(free)
	if more {
		f.shard.wake(f)
	}
}

// retire marks one epoch durable and lets backends release history.
func (f *flusher) retire(job *flushJob, dur time.Duration) {
	g := f.g
	g.mu.Lock()
	if job.img.Epoch > g.durable {
		g.durable = job.img.Epoch
	}
	if job.bdIdx >= 0 && job.bdIdx < len(g.ckpts) {
		g.ckpts[job.bdIdx].FlushTime = dur
	}
	g.mu.Unlock()
	g.trimBackends()
}

// trimBackends lets backends fold history forward. It is deferred to
// retirement: trimming merges old images forward in place, which must
// never race with a flush still reading them.
func (g *Group) trimBackends() {
	for _, b := range g.Backends() {
		if t, ok := b.(trimmer); ok {
			t.Trim(g.ID)
		}
	}
}

// drain waits until the pipeline is idle: nothing in flight, and the
// queue empty or stalled on a failed head. It does not retry failures.
func (f *flusher) drain() {
	f.mu.Lock()
	for len(f.queue) > 0 && !f.stalledLocked() {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Sync waits the pipeline out and retries a stalled head inline, in the
// foreground (so a down backend is probed unconditionally). It returns
// nil only when every epoch handed to the pipeline has retired;
// otherwise it surfaces the head's failure, leaving the durable
// frontier where it was.
func (f *flusher) Sync() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.Lock()
	for len(f.queue) > 0 {
		if !f.stalledLocked() {
			// In flight, or a dispatch is pending on the shard.
			f.cond.Wait()
			continue
		}
		head := f.queue[0]
		f.running = true
		f.mu.Unlock()
		dur, err := f.o.flushImage(f.g, head.img, false, nil)
		f.finish(head, dur, err)
		if err != nil {
			return err
		}
		f.mu.Lock()
	}
	f.mu.Unlock()
	return nil
}

// Close fails any Enqueue still waiting for admission, then drains the
// pipeline. A stalled head and the epochs behind it are abandoned
// un-retried (the group is going away). There are no per-group workers
// to stop — dispatch capacity belongs to the fleet, which outlives the
// group.
func (f *flusher) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.drain()
}

// trimmer is implemented by backends that defer history trimming to
// epoch retirement (see MemoryBackend.Trim).
type trimmer interface {
	Trim(group uint64)
}
