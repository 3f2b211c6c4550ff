// Package storage provides the simulated storage substrate for Aurora:
// a deterministic virtual clock, parameterized block-device models
// (Optane-class NVMe, NVDIMM, SATA SSD, HDD, DRAM), striped device
// arrays, and the accounting primitives used to produce the modeled
// microsecond figures reported by the experiment harness.
//
// All device models move real bytes (reads and writes land in and come
// from actual buffers); only the *cost* of each operation is virtual.
// Costs are charged to a Clock, which the SLS orchestrator samples to
// produce stop-time and restore-time breakdowns comparable in shape to
// the paper's Tables 3 and 4.
package storage

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a deterministic virtual clock. It counts virtual nanoseconds
// and is advanced explicitly by device models and by the kernel's cost
// accounting. A Clock is safe for concurrent use.
type Clock struct {
	now atomic.Int64 // virtual nanoseconds since boot
}

// NewClock returns a clock starting at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d and returns the new time.
// Negative advances are ignored so cost formulas can never move the
// clock backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(c.now.Add(int64(d)))
}

// Set forces the clock to an absolute time. It is intended for tests
// and for restoring a checkpointed clock; t must not be negative.
func (c *Clock) Set(t time.Duration) {
	if t < 0 {
		t = 0
	}
	c.now.Store(int64(t))
}

// AdvanceTo moves the clock forward to absolute time t if t is in the
// future, and leaves it alone otherwise. This is the merge point for
// work that ran on a detached lane: the foreground timeline absorbs the
// lane's finish time without ever moving backwards.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return time.Duration(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// Drain returns the time charged to c since the last Drain and resets
// it: how a scratch clock is read. A consumer bills a device view to a
// clock of its own (Redirect) and after each operation takes what the
// device charged — to pass it on to a lane as it stands, or to hold it
// back and charge a group of overlapped operations with Batch. What is
// charged is taken exactly once, also under concurrent Drains.
func (c *Clock) Drain() time.Duration {
	if c.now.Load() == 0 {
		return 0 // nothing to take: leave the cache line shared
	}
	return time.Duration(c.now.Swap(0))
}

// Lane returns a new clock seeded at c's current time. Lanes model
// device time that overlaps the foreground timeline: a background
// flusher charges its I/O to a lane so the application's virtual clock
// keeps running during the flush, then (if a caller wants synchronous
// semantics) merges the lane back with AdvanceTo.
func (c *Clock) Lane() *Clock {
	l := NewClock()
	l.Set(c.Now())
	return l
}

// Stopwatch measures an interval of virtual time.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// Watch starts a stopwatch at the current virtual time.
func (c *Clock) Watch() Stopwatch { return Stopwatch{clock: c, start: c.Now()} }

// Elapsed reports the virtual time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }

// Micros formats a duration the way the paper's tables do: fractional
// microseconds with one decimal digit.
func Micros(d time.Duration) string {
	return fmt.Sprintf("%.1f µs", float64(d.Nanoseconds())/1e3)
}
