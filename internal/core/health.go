package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aurora/internal/storage"
)

// This file implements per-backend health tracking for the flush
// pipeline. A healthy backend that fails a flush is retried with
// exponential backoff (charged to the virtual clock); if it keeps
// failing it degrades, and the group enters degraded durability mode:
// as long as at least one healthy non-ephemeral backend accepts each
// epoch, g.durable keeps advancing while the sick backend accumulates
// a catch-up queue of missed images. Probes drain that queue in epoch
// order once the backend recovers (automatic resync); Orchestrator.
// Resync forces the drain. See DESIGN.md §"Failure model & recovery".

// HealthState is one backend's position in the
// healthy → degraded → down ladder.
type HealthState int

const (
	// BackendHealthy: flushes succeed; failures retry inline.
	BackendHealthy HealthState = iota
	// BackendDegraded: recent flushes failed; new epochs queue for
	// catch-up and every flush attempt doubles as a recovery probe.
	BackendDegraded
	// BackendDown: repeated consecutive failures; most epochs queue
	// without touching the backend, with only periodic probes.
	BackendDown
)

func (s HealthState) String() string {
	switch s {
	case BackendHealthy:
		return "healthy"
	case BackendDegraded:
		return "degraded"
	case BackendDown:
		return "down"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// ErrBackendDown is wrapped into flush errors when an epoch was queued
// against a down backend without an attempt (or the attempt itself hit
// the down device). Callers select on it with errors.Is.
var ErrBackendDown = errors.New("core: backend down")

// PartitionAware is implemented by backends whose failures mean "the
// network between us is broken", not "the backend is broken" — the
// replica on the far side is presumed alive and holding everything it
// acked. Such a backend is capped at degraded, never marked down: a
// partition heals, and every epoch queues for catch-up with the
// backend probed on each epoch so the hello/hello-ack resume
// handshake reconnects as soon as the link returns.
type PartitionAware interface {
	// Partitions counts connection-loss events observed so far.
	Partitions() int64
}

// downState returns the deepest health state a failing backend may
// sink to: down in general, degraded for partition-aware backends and
// for out-of-space failures. ENOSPC means the device is full, not
// broken — reclamation (or operator GC) brings it back, and a down
// mark would stop the very probes that notice the space returning.
func downState(b Backend, err error) HealthState {
	if _, ok := b.(PartitionAware); ok {
		return BackendDegraded
	}
	if errors.Is(err, storage.ErrOutOfSpace) {
		return BackendDegraded
	}
	return BackendDown
}

// Health policy defaults, overridable per Orchestrator.
const (
	defaultFlushRetries = 3                      // extra attempts per flush
	defaultBackoffBase  = 100 * time.Microsecond // first retry delay, doubles
	defaultDownAfter    = 5                      // consecutive failed epochs → down
	downProbeEvery      = 4                      // probe a down backend every Nth epoch
	resyncRounds        = 8                      // Resync retry rounds per backend
)

func (o *Orchestrator) flushRetries() int {
	if o.FlushRetries > 0 {
		return o.FlushRetries
	}
	return defaultFlushRetries
}

func (o *Orchestrator) downAfter() int {
	if o.DownAfter > 0 {
		return o.DownAfter
	}
	return defaultDownAfter
}

// backendHealth is one backend's health record within one group. All
// fields are guarded by the group's healthMu, which is never held
// across backend I/O.
type backendHealth struct {
	state       HealthState
	consecFails int      // consecutive epochs that failed all attempts
	probing     bool     // a worker is currently probing/draining this backend
	skips       int      // epochs queued while down, for probe pacing
	pending     []*Image // catch-up queue of missed epochs, oldest first
	lastErr     error
	retries     int64 // flush attempts beyond the first, cumulative
	resyncs     int64 // epochs replayed from the catch-up queue
}

// queueLocked adds an image to the catch-up queue, keeping it sorted
// by epoch and replacing rather than duplicating a re-delivery.
func (h *backendHealth) queueLocked(img *Image) {
	for i, have := range h.pending {
		if have.Epoch == img.Epoch {
			h.pending[i] = img
			return
		}
	}
	h.pending = append(h.pending, img)
	sort.Slice(h.pending, func(i, j int) bool { return h.pending[i].Epoch < h.pending[j].Epoch })
}

// BackendHealthInfo is the externally visible health snapshot of one
// backend (orchestrator stats, `sls ps` HEALTH column).
type BackendHealthInfo struct {
	Name    string
	State   HealthState
	Pending int   // catch-up queue depth (missed epochs)
	Retries int64 // extra flush attempts so far
	Resyncs int64 // epochs replayed after recovery
	// Partitions and CatchUp surface a partition-aware backend's link
	// history: connection losses, and epochs replayed to it after
	// heals (zero for ordinary backends).
	Partitions int64
	CatchUp    int64
	LastErr    string
	// Space pressure, for store backends with a reclaimer attached:
	// the device-usage fraction, epochs reclaimed by retention GC, and
	// checkpoints the group shed under admission control.
	Usage    float64
	Reclaims int64
	Sheds    int64
}

// healthOf returns (creating on demand) the health record for b.
func (g *Group) healthOf(b Backend) *backendHealth {
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	if g.health == nil {
		g.health = make(map[Backend]*backendHealth)
	}
	h := g.health[b]
	if h == nil {
		h = &backendHealth{}
		g.health[b] = h
	}
	return h
}

// Health reports every attached backend's health, in attach order.
func (g *Group) Health() []BackendHealthInfo {
	backends := g.Backends()
	out := make([]BackendHealthInfo, 0, len(backends))
	for _, b := range backends {
		h := g.healthOf(b)
		g.healthMu.Lock()
		info := BackendHealthInfo{
			Name:    b.Name(),
			State:   h.state,
			Pending: len(h.pending),
			Retries: h.retries,
			Resyncs: h.resyncs,
		}
		if h.lastErr != nil {
			info.LastErr = h.lastErr.Error()
		}
		if pa, ok := b.(PartitionAware); ok {
			info.Partitions = pa.Partitions()
			info.CatchUp = h.resyncs
		}
		g.healthMu.Unlock()
		if sb, ok := b.(*StoreBackend); ok && sb.rec != nil {
			_, _, info.Usage = sb.rec.Usage()
			info.Reclaims = sb.rec.Stats().EpochsReclaimed
			sheds, _ := g.Sheds()
			info.Sheds = sheds
		}
		out = append(out, info)
	}
	return out
}

// attempt hands img to b with inline retries and exponential backoff.
// The backoff is charged to a detached clock lane — the sick backend
// burns its own time, not the group's foreground timeline — seeded from
// base (the shard worker's flush lane for fleet dispatch, the kernel
// clock when nil) and folded into the returned duration so synchronous
// callers merge it back.
func (o *Orchestrator) attempt(b Backend, img *Image, base *storage.Clock) (time.Duration, int, error) {
	lane := o.laneFor(base)
	target := b
	if lb, ok := b.(LaneBackend); ok {
		target = lb.WithLane(lane)
	}
	var total time.Duration
	backoff := defaultBackoffBase
	attempts := 0
	for {
		attempts++
		d, err := target.Flush(img)
		total += d
		if err == nil {
			err = o.trimHistory(target, img.Group)
		}
		if err == nil {
			return total, attempts, nil
		}
		if attempts > o.flushRetries() {
			return total, attempts, err
		}
		lane.Advance(backoff)
		total += backoff
		backoff *= 2
	}
}

// deliver is attempt with space pressure treated as a condition, not a
// fault: when the store runs out of space mid-flush it triggers
// emergency reclamation and — if that freed anything — delivers the
// epoch again. The failed write left no partial state behind (the store
// registers records and publishes superblocks only after their bytes
// land), so the retry is a clean re-delivery.
func (o *Orchestrator) deliver(b Backend, img *Image, base *storage.Clock) (time.Duration, int, error) {
	dur, attempts, err := o.attempt(b, img, base)
	if err != nil && errors.Is(err, storage.ErrOutOfSpace) && o.emergencyReclaim(b) {
		dur2, attempts2, err2 := o.attempt(b, img, base)
		return dur + dur2, attempts + attempts2, err2
	}
	return dur, attempts, err
}

// flushBackend delivers one image to one backend under the health
// state machine, charging device time to lanes seeded from base (nil =
// the kernel clock). It returns (modeled duration, deferred, error):
// deferred means the epoch went to the backend's catch-up queue
// instead of (or in addition to) the device — the epoch may still
// retire if a healthy peer holds it. force (foreground Sync) probes a
// down backend unconditionally; background flushes pace their probes.
func (o *Orchestrator) flushBackend(g *Group, b Backend, img *Image, force bool, base *storage.Clock) (time.Duration, bool, error) {
	h := g.healthOf(b)

	g.healthMu.Lock()
	if h.state != BackendHealthy || len(h.pending) > 0 {
		probe := !h.probing
		if probe && h.state == BackendDown && !force {
			// A down backend is mostly left alone: queue and skip,
			// probing only every few epochs.
			h.skips++
			probe = h.skips%downProbeEvery == 0
		}
		if !probe {
			h.queueLocked(img)
			err := fmt.Errorf("%w: epoch %d queued for catch-up", ErrBackendDown, img.Epoch)
			g.healthMu.Unlock()
			return 0, true, err
		}
		h.probing = true
		g.healthMu.Unlock()
		return o.probeAndResync(g, h, b, img, base)
	}
	g.healthMu.Unlock()

	dur, attempts, err := o.deliver(b, img, base)
	fenced := err != nil && noteFence(g, err)
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	h.retries += int64(attempts - 1)
	if err == nil {
		h.consecFails = 0
		h.lastErr = nil
		return dur, false, nil
	}
	if fenced {
		// The backend rejected our store generation: the group is a
		// stale primary, not the backend sick. Queuing the epoch would
		// retry a flush that can never succeed.
		h.lastErr = err
		return dur, false, err
	}
	// All attempts failed: degrade and queue the epoch for catch-up.
	h.consecFails++
	h.lastErr = err
	h.state = BackendDegraded
	if h.consecFails >= o.downAfter() {
		h.state = downState(b, err)
	}
	h.queueLocked(img)
	return dur, true, err
}

// probeAndResync drains a sick backend's catch-up queue in epoch
// order, then delivers img (nil during an explicit Resync). Success
// all the way through marks the backend healthy again. The caller must
// have set h.probing; it is cleared on return.
func (o *Orchestrator) probeAndResync(g *Group, h *backendHealth, b Backend, img *Image, base *storage.Clock) (time.Duration, bool, error) {
	defer func() {
		g.healthMu.Lock()
		h.probing = false
		g.healthMu.Unlock()
	}()

	var total time.Duration
	delivered := img == nil

	fail := func(next *Image, err error) {
		if noteFence(g, err) {
			// Fenced: drop the rejected epoch (it is divergent and can
			// never be delivered) instead of requeueing it forever.
			g.healthMu.Lock()
			h.lastErr = err
			g.healthMu.Unlock()
			return
		}
		g.healthMu.Lock()
		if next != nil {
			h.queueLocked(next)
		}
		if img != nil {
			h.queueLocked(img)
		}
		h.consecFails++
		h.lastErr = err
		if h.state == BackendHealthy {
			h.state = BackendDegraded
		}
		if h.consecFails >= o.downAfter() {
			h.state = downState(b, err)
		}
		g.healthMu.Unlock()
	}

	// Replay missed epochs oldest-first. The queue may grow while we
	// drain (other workers defer onto a probing backend), so re-check
	// each round.
	for {
		g.healthMu.Lock()
		var next *Image
		if len(h.pending) > 0 {
			next = h.pending[0]
			h.pending = h.pending[1:]
		}
		g.healthMu.Unlock()
		if next == nil {
			break
		}
		dur, attempts, err := o.deliver(b, next, base)
		total += dur
		g.healthMu.Lock()
		h.retries += int64(attempts - 1)
		g.healthMu.Unlock()
		if err != nil {
			fail(next, err)
			return total, true, err
		}
		g.healthMu.Lock()
		h.resyncs++
		g.healthMu.Unlock()
		if img != nil && next.Epoch == img.Epoch {
			delivered = true
		} else {
			o.releaseIfQuiescent(g, next)
		}
	}

	if !delivered {
		dur, attempts, err := o.deliver(b, img, base)
		total += dur
		g.healthMu.Lock()
		h.retries += int64(attempts - 1)
		g.healthMu.Unlock()
		if err != nil {
			fail(nil, err)
			return total, true, err
		}
	}

	g.healthMu.Lock()
	if len(h.pending) == 0 { // nothing slipped in while finishing
		h.state = BackendHealthy
		h.consecFails = 0
		h.skips = 0
		h.lastErr = nil
	}
	g.healthMu.Unlock()
	return total, false, nil
}

// releaseIfQuiescent frees a drained catch-up image's frames once
// nothing can still read them: its epoch retired, no ephemeral backend
// retains images, and no other backend's catch-up queue holds it.
func (o *Orchestrator) releaseIfQuiescent(g *Group, img *Image) {
	if img.Released() {
		return
	}
	for _, b := range g.Backends() {
		if b.Ephemeral() {
			return
		}
	}
	if img.Epoch > g.Durable() {
		// Not retired: a stalled flush may still re-deliver this image.
		return
	}
	g.healthMu.Lock()
	for _, h := range g.health {
		for _, p := range h.pending {
			if p == img {
				g.healthMu.Unlock()
				return
			}
		}
	}
	g.healthMu.Unlock()
	img.Release(o.K.Mem)
}

// Resync forces every sick backend of g to replay its catch-up queue
// now, retrying each backend up to resyncRounds times. It returns the
// first backend's terminal error, after attempting all of them.
func (o *Orchestrator) Resync(g *Group) error {
	var firstErr error
	for _, b := range g.Backends() {
		h := g.healthOf(b)
		var lastErr error
		for round := 0; round < resyncRounds; round++ {
			g.healthMu.Lock()
			if h.state == BackendHealthy && len(h.pending) == 0 {
				g.healthMu.Unlock()
				lastErr = nil
				break
			}
			if h.probing {
				// A worker is already draining this backend; let it.
				g.healthMu.Unlock()
				lastErr = nil
				break
			}
			h.probing = true
			g.healthMu.Unlock()
			// Foreground resync: the caller waits for the replay, so the
			// modeled catch-up time (charged to a detached lane inside
			// attemptFlush) merges back into the group's timeline.
			dur, _, err := o.probeAndResync(g, h, b, nil, nil)
			if dur > 0 {
				o.K.Clock.Advance(dur)
			}
			if err != nil {
				lastErr = fmt.Errorf("core: resyncing %s: %w", b.Name(), err)
				continue
			}
			lastErr = nil
			break
		}
		if lastErr != nil && firstErr == nil {
			firstErr = lastErr
		}
	}
	return firstErr
}
