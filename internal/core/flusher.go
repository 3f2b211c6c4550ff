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
// The same queue is the group's window of images: a retired epoch's job
// stays at its front until every attached backend's cursor (health.go)
// has passed it, so an epoch has one home from its barrier until the
// last backend holds it. Nothing bounds the window but the slowest
// attached backend: a sick one pins every epoch it owes until it heals
// or is detached.
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
// queue of epochs behind a bounded admission window (Enqueue blocks
// when full — backpressure on the checkpointing caller). Dispatch runs
// on the fleet's shard workers.
type flusher struct {
	o     *Orchestrator
	g     *Group
	fl    *fleet
	shard *fleetShard
	onRun bool // on the shard's run queue; guarded by shard.mu

	// syncMu serializes Sync callers.
	syncMu sync.Mutex

	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever an attempt finishes, and on Close
	// queue is the window, oldest epoch first. queue[:retired] have
	// retired and wait only for the backends that still owe them (no
	// budget, no place in the admission window); queue[retired] is the
	// head.
	queue   []*flushJob
	retired int
	running bool // the head's flush is in flight (worker or Sync)
	readers int  // that flush, and Resyncs: nothing is popped while one reads the window
	waiting int  // Enqueue callers held out by the window (counted in depth)
	window  int  // max un-retired epochs: the one in flight + the queue depth
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

// unretiredLocked counts the epochs that have not retired yet. Caller
// holds f.mu.
func (f *flusher) unretiredLocked() int { return len(f.queue) - f.retired }

// stalledLocked reports whether the head's last attempt failed and
// nothing is retrying it. Caller holds f.mu.
func (f *flusher) stalledLocked() bool {
	return !f.running && f.unretiredLocked() > 0 && f.queue[f.retired].err != nil
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
	for f.unretiredLocked() >= f.window && !f.stalledLocked() && !f.closed {
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
		f.queue[f.retired].err = nil // re-arm a stalled head: a dispatch is now pending
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
	return f.unretiredLocked() + f.waiting
}

// dispatch runs the head's flush on the calling shard worker's flush
// lane, unless an attempt is already in flight. The lane advances by
// the flush's modeled duration so back-to-back jobs on a busy worker
// queue in virtual time; with a nil lane (fleet shut down, inline
// fallback) the job charges a fresh lane off the kernel clock.
func (f *flusher) dispatch(lane *storage.Clock) {
	f.mu.Lock()
	if f.running || f.unretiredLocked() == 0 {
		f.mu.Unlock()
		return
	}
	owed, job := f.queue[:f.retired], f.queue[f.retired]
	f.running = true
	f.readers++
	f.mu.Unlock()

	if lane == nil {
		lane = f.o.K.Clock.Lane()
	} else {
		// The device cannot start work before the flush was issued.
		lane.AdvanceTo(f.o.K.Clock.Now())
	}
	start := lane.Now()
	dur, err := f.o.flushImage(f.g, owed, job.img, lane)
	lane.AdvanceTo(start + dur)
	f.finish(job, dur, err)
}

// read returns the whole window for a Resync to deliver from, beside
// whatever flush is in flight. Like the retired jobs a flush takes with
// its head, it stays valid outside f.mu until the caller's finish:
// nothing is popped under a reader.
func (f *flusher) read() []*flushJob {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readers++
	return f.queue
}

// finish ends a reader's turn. A head (job != nil) that succeeded
// retires and hands the queue back to a shard worker; one that failed
// records the error and stays the head — its successors are not woken,
// so nothing ever flushes past it. The last reader out pops the retired
// jobs every attached backend has passed (Group.passed) off the
// window's front and, when nobody else retains the images, releases
// their frames: the one place a flushed epoch's frames go back to the
// allocator.
func (f *flusher) finish(job *flushJob, dur time.Duration, err error) {
	if job != nil && err == nil {
		// Still marked running, so retirements are serial and in order.
		f.retire(job, dur)
	}
	f.mu.Lock()
	var budget int64
	if job != nil {
		f.running = false
		job.err = err
		budget, job.budget = job.budget, 0
		if err == nil {
			f.retired++
		} else {
			// A stalled queue pins no budget: the fleet-wide bound must not
			// turn one dead backend into every group's backpressure.
			for _, j := range f.queue[f.retired:] {
				budget += j.budget
				j.budget = 0
			}
		}
	}
	if f.readers--; f.readers == 0 {
		// Read here, under f.mu (which thus orders before g.mu and
		// healthMu): a cursor vector read before a concurrent attempt
		// made a backend owe the epoch it then retired would let that
		// epoch go.
		passed, free := f.g.passed()
		n := 0
		for ; n < f.retired && f.queue[n].img.Epoch <= passed; n++ {
			if free {
				f.queue[n].img.Release(f.o.K.Mem)
			}
			f.queue[n] = nil
		}
		f.queue = f.queue[n:]
		f.retired -= n
	}
	more := job != nil && err == nil && f.unretiredLocked() > 0
	f.cond.Broadcast()
	f.mu.Unlock()
	f.fl.releaseBudget(budget)
	if more {
		f.shard.wake(f)
	}
}

// trim lets the window go of what every backend has passed after a
// change to who is attached or owed (Detach, DemoteStale, Close): a
// reader that delivers nothing, so the last one out still does it.
func (f *flusher) trim() {
	f.read()
	f.finish(nil, 0, nil)
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
	// Trimming merges old images forward in place, which must never race
	// with a flush still reading them: it waits for retirement.
	for _, b := range g.Backends() {
		if t, ok := b.(trimmer); ok {
			t.Trim(g.ID)
		}
	}
}

// drain waits until the pipeline is idle: nothing in flight, and every
// epoch retired or the queue stalled on a failed head. It does not
// retry failures.
func (f *flusher) drain() {
	f.mu.Lock()
	for f.unretiredLocked() > 0 && !f.stalledLocked() {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Sync waits the pipeline out and retries a stalled head inline, in the
// foreground (so a down backend is probed unconditionally). A non-nil
// tail — an image checkpointed with SkipFlush, never queued — then
// joins the queue and is flushed the same way. It returns nil only when
// every epoch handed to the pipeline has retired; otherwise it surfaces
// the head's failure, leaving the durable frontier where it was.
func (f *flusher) Sync(tail *Image) error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.mu.Lock()
	for {
		if f.unretiredLocked() > 0 && !f.stalledLocked() {
			// In flight, or a dispatch is pending on the shard.
			f.cond.Wait()
			continue
		}
		if f.unretiredLocked() == 0 {
			if tail == nil {
				f.mu.Unlock()
				return nil
			}
			f.queue = append(f.queue, &flushJob{img: tail, bdIdx: -1})
			tail = nil
		}
		owed, head := f.queue[:f.retired], f.queue[f.retired]
		f.running = true
		f.readers++
		f.mu.Unlock()
		dur, err := f.o.flushImage(f.g, owed, head.img, nil)
		f.finish(head, dur, err)
		if err != nil {
			return err
		}
		f.mu.Lock()
	}
}

// Close fails any Enqueue still waiting for admission, drains the
// pipeline, and lets go of every retired epoch some backend still owed:
// the group is going away, and its cursors with it. A stalled head and
// the epochs behind it are abandoned un-retried, frames and all — a
// rollback may be about to restore from them. There are no per-group
// workers to stop: dispatch capacity belongs to the fleet, which
// outlives the group.
func (f *flusher) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.drain()
	f.g.healthMu.Lock()
	f.g.health = nil
	f.g.healthMu.Unlock()
	f.trim()
}

// trimmer is implemented by backends that defer history trimming to
// epoch retirement (see MemoryBackend.Trim).
type trimmer interface {
	Trim(group uint64)
}
