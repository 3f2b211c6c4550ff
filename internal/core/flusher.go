package core

import (
	"errors"
	"sync"
	"time"

	"aurora/internal/storage"
)

// This file implements the background flush pipeline. A serialization
// barrier (Checkpoint) hands its immutable image to the group's
// flusher and returns as soon as the group has resumed; the fleet's
// shard workers (fleet.go) fan the image out to every attached backend
// concurrently. Durability — g.Durable(), and with it Released()/
// external consistency — advances only when an epoch *retires*: all of
// its backend flushes finished AND every earlier epoch retired first,
// so the durable frontier never skips an epoch whose flush failed or
// is still in flight.
//
// The flusher owns no goroutines. It is a per-group scheduling record
// — pending jobs, in-flight credits, the admission window — that the
// shard workers pull from. That is what makes 10k groups cheap: a
// group that is not flushing costs a struct, not two parked
// goroutines and a channel.

// Pipeline defaults, overridable per Orchestrator.
const (
	defaultFlushWorkers = 2
	defaultFlushQueue   = 4
)

// errFlusherClosed fails jobs caught in Enqueue when the group is
// unpersisted out from under a checkpoint storm.
var errFlusherClosed = errors.New("core: flusher closed")

// flushJob tracks one epoch's trip through the pipeline.
type flushJob struct {
	img    *Image
	bdIdx  int           // index into g.ckpts whose FlushTime gets patched
	done   chan struct{} // closed when the flush attempt finishes
	budget int64         // frame bytes charged to the fleet memory budget

	// Guarded by the flusher's mu.
	completed bool
	dur       time.Duration
	err       error
}

// flusher is a per-group flush pipeline: a bounded admission window
// (enqueue blocks when full — backpressure on the checkpointing
// caller), a credit count bounding per-group flush concurrency, and
// in-order epoch retirement. Dispatch runs on the fleet's shard
// workers.
type flusher struct {
	o     *Orchestrator
	g     *Group
	shard *fleetShard

	// syncMu serializes Sync callers so a failed epoch is never
	// retried by two foreground flushers at once.
	syncMu sync.Mutex

	mu       sync.Mutex
	cond     *sync.Cond // wakes Enqueue when the window drains, and Close
	credits  int        // max concurrently running flushes for this group
	window   int        // max admitted-but-unfinished jobs (credits + queue)
	admitted int        // jobs admitted and not yet completed
	inflight int        // jobs currently running on shard workers
	closed   bool
	pending  []*flushJob // admitted, waiting for a credit; oldest first
	order    []uint64    // epochs in enqueue (== epoch) order, oldest first
	byEpoch  map[uint64]*flushJob
}

func newFlusher(o *Orchestrator, g *Group, workers, depth int) *flusher {
	if workers <= 0 {
		workers = defaultFlushWorkers
	}
	if depth <= 0 {
		depth = defaultFlushQueue
	}
	f := &flusher{
		o:       o,
		g:       g,
		credits: workers,
		window:  workers + depth,
		byEpoch: make(map[uint64]*flushJob),
	}
	f.cond = sync.NewCond(&f.mu)
	f.shard = o.fleetOf().place(g.ID)
	return f
}

// Enqueue hands an image to the pipeline. It blocks while the
// admission window is full, which is the backpressure that keeps a
// checkpoint storm from building an unbounded backlog of unflushed
// epochs; the fleet's global memory budget adds a second, cross-group
// bound on the frame bytes those backlogs pin. A blocked Enqueue is
// woken — and its job failed — if the flusher closes underneath it
// (Unpersist during a storm), so the checkpointing goroutine can
// never be stranded.
func (f *flusher) Enqueue(img *Image, bdIdx int) {
	job := &flushJob{img: img, bdIdx: bdIdx, done: make(chan struct{})}
	job.budget = f.o.fleetOf().acquireBudget(img.FootprintBytes())
	// Register before waiting for admission so Sync/drain/depth always
	// see the job even while backpressure holds it out of the window.
	f.mu.Lock()
	f.order = append(f.order, img.Epoch)
	f.byEpoch[img.Epoch] = job
	for f.admitted >= f.window && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		job.completed = true
		job.err = errFlusherClosed
		f.mu.Unlock()
		if job.budget > 0 {
			f.o.fleetOf().releaseBudget(job.budget)
		}
		close(job.done)
		return
	}
	f.admitted++
	f.pending = append(f.pending, job)
	ready := f.inflight < f.credits
	f.mu.Unlock()
	if ready {
		f.shard.wake(f)
	}
}

// depth reports the number of epochs not yet retired (queued, in
// flight, or stalled behind a failure).
func (f *flusher) depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.order)
}

// dispatch runs at most one pending job on the calling shard worker's
// flush lane. If more work remains runnable it re-queues the flusher
// before running the job, so a second worker can pick it up while this
// one is busy — per-group concurrency up to the credit count.
func (f *flusher) dispatch(lane *storage.Clock) {
	f.mu.Lock()
	if len(f.pending) == 0 || f.inflight >= f.credits {
		f.mu.Unlock()
		return
	}
	job := f.pending[0]
	f.pending = f.pending[1:]
	f.inflight++
	more := len(f.pending) > 0 && f.inflight < f.credits
	f.mu.Unlock()
	if more {
		f.shard.wake(f)
	}
	f.run(job, lane)
}

// run executes one flush attempt on the given worker lane and retires
// whatever became eligible. The lane advances by the flush's modeled
// duration so back-to-back jobs on a busy worker queue in virtual
// time; with a nil lane (fleet shut down, inline fallback) the job
// charges a fresh lane off the kernel clock.
func (f *flusher) run(job *flushJob, lane *storage.Clock) {
	base := lane
	if base == nil {
		base = f.o.K.Clock.Lane()
	} else {
		// The device cannot start work before the flush was issued.
		base.AdvanceTo(f.o.K.Clock.Now())
	}
	start := base.Now()
	dur, err := f.o.flushImageOn(f.g, job.img, true, base)
	base.AdvanceTo(start + dur)
	f.mu.Lock()
	job.dur, job.err, job.completed = dur, err, true
	f.inflight--
	f.admitted--
	f.retireLocked()
	more := len(f.pending) > 0 && f.inflight < f.credits
	f.cond.Broadcast()
	f.mu.Unlock()
	if job.budget > 0 {
		f.o.fleetOf().releaseBudget(job.budget)
	}
	if more {
		f.shard.wake(f)
	}
	close(job.done)
}

// retireLocked advances the durable frontier over every leading epoch
// that flushed successfully. A failed epoch stalls retirement: later
// epochs may finish out of order but stay unretired, so durability
// never claims a history with a hole in it. Caller holds f.mu.
func (f *flusher) retireLocked() {
	for len(f.order) > 0 {
		epoch := f.order[0]
		job := f.byEpoch[epoch]
		if job == nil || !job.completed || job.err != nil {
			return
		}
		f.order = f.order[1:]
		delete(f.byEpoch, epoch)
		f.retire(epoch, job)
	}
}

// retire marks one epoch durable and lets backends release history.
func (f *flusher) retire(epoch uint64, job *flushJob) {
	g := f.g
	g.mu.Lock()
	if epoch > g.durable {
		g.durable = epoch
	}
	if job.bdIdx >= 0 && job.bdIdx < len(g.ckpts) {
		g.ckpts[job.bdIdx].FlushTime = job.dur
	}
	g.mu.Unlock()
	// History trimming is deferred to retirement: it merges old images
	// forward in place, which must never race with a flush still
	// reading them.
	for _, b := range g.Backends() {
		if t, ok := b.(trimmer); ok {
			t.Trim(g.ID)
		}
	}
}

// drain waits until every enqueued epoch has completed its flush
// attempt. It does not retry failures — failed epochs stay stalled.
func (f *flusher) drain() {
	for {
		f.mu.Lock()
		var wait *flushJob
		for _, j := range f.byEpoch {
			if !j.completed {
				wait = j
				break
			}
		}
		f.mu.Unlock()
		if wait == nil {
			return
		}
		<-wait.done
	}
}

// Sync drains the pipeline and then retries any stalled (failed)
// epochs inline, oldest first. It returns nil only when every epoch
// handed to the pipeline has retired; otherwise it surfaces the first
// failure, leaving the durable frontier where it was.
func (f *flusher) Sync() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	for {
		f.mu.Lock()
		var wait *flushJob
		for _, j := range f.byEpoch {
			if !j.completed {
				wait = j
				break
			}
		}
		if wait != nil {
			f.mu.Unlock()
			<-wait.done
			continue
		}
		if len(f.order) == 0 {
			f.mu.Unlock()
			return nil
		}
		// Everything completed but the head did not retire: it failed.
		head := f.byEpoch[f.order[0]]
		if head.err == nil {
			// Retired concurrently between checks; re-examine.
			f.retireLocked()
			f.mu.Unlock()
			continue
		}
		f.mu.Unlock()

		dur, err := f.o.flushImage(f.g, head.img, false)
		f.mu.Lock()
		if err != nil {
			head.err = err
			f.mu.Unlock()
			return err
		}
		head.dur, head.err = dur, nil
		f.retireLocked()
		f.mu.Unlock()
	}
}

// Close fails any Enqueue still waiting for admission, then drains the
// pipeline. Failed epochs are abandoned un-retried (the group is going
// away). There are no per-group workers to stop — dispatch capacity
// belongs to the fleet, which outlives the group.
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
