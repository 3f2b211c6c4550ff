package core

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/storage"
)

// This file implements per-backend health tracking for the flush
// pipeline. A healthy backend that fails a flush is retried with
// exponential backoff (charged to the virtual clock); if it keeps
// failing it degrades, and the group enters degraded durability mode:
// as long as at least one healthy non-ephemeral backend accepts each
// epoch, g.durable keeps advancing while the sick backend's cursor
// stays where it is and the epochs above it wait in the flush window
// (flusher.go). Probes deliver them in epoch order once the backend
// recovers (automatic resync); Orchestrator.Resync forces the delivery.
// See DESIGN.md §"Failure model & recovery".

// HealthState is one backend's position in the
// healthy → degraded → down ladder.
type HealthState int

const (
	// BackendHealthy: flushes succeed; failures retry inline.
	BackendHealthy HealthState = iota
	// BackendDegraded: recent flushes failed; new epochs wait above its
	// cursor and every flush attempt doubles as a recovery probe.
	BackendDegraded
	// BackendDown: repeated consecutive failures; most epochs pass
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

// ErrBackendDown is wrapped into flush errors when an epoch was left
// owed by a down backend without an attempt (or the attempt itself hit
// the down device). Callers select on it with errors.Is.
var ErrBackendDown = errors.New("core: backend down")

// PartitionAware is implemented by backends whose failures mean "the
// network between us is broken", not "the backend is broken" — the
// replica on the far side is presumed alive and holding everything it
// acked. Such a backend is capped at degraded, never marked down: a
// partition heals, and the backend is probed on each epoch so the
// hello/hello-ack resume handshake reconnects as soon as the link
// returns.
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
	consecFails int  // consecutive epochs that failed all attempts
	probing     bool // a caller is delivering to this backend right now
	skips       int  // epochs passed over while down, for probe pacing
	// cursor is the newest epoch the backend is done with — taken, in
	// order, or refused for good by a fence — and offered the newest it
	// has been handed (0: none yet; the first offer sets the cursor just
	// below it, so a backend owes nothing from before it was attached).
	// The backend owes the window's epochs in (cursor, offered]; what the
	// group reports about who holds what — Replicated, QuorumStatus,
	// Health, the window's trim — is read from this pair.
	cursor, offered uint64
	lastErr         error
	retries         int64 // flush attempts beyond the first, cumulative
	resyncs         int64 // owed epochs delivered after the fact
}

// owes reports whether the backend was offered epochs it has not taken.
func (h *backendHealth) owes() bool { return h != nil && h.cursor < h.offered }

// noteFail is one step down the ladder: a failure degrades a healthy
// backend, and downAfter of them in a row sink it to down, the deepest
// state downState allows it.
func (h *backendHealth) noteFail(err error, down HealthState, downAfter int) {
	h.consecFails++
	h.lastErr = err
	if h.state == BackendHealthy {
		h.state = BackendDegraded
	}
	if h.consecFails >= downAfter {
		h.state = down
	}
}

// noteOK is the ladder's reset.
func (h *backendHealth) noteOK() {
	h.state = BackendHealthy
	h.consecFails, h.skips = 0, 0
	h.lastErr = nil
}

// BackendHealthInfo is the externally visible health snapshot of one
// backend (orchestrator stats, `sls ps` HEALTH column).
type BackendHealthInfo struct {
	Name    string
	State   HealthState
	Pending int   // epochs owed: those above the cursor, up to the newest offered
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

// healthLocked returns (creating on demand) the health record for b.
// Caller holds healthMu.
func (g *Group) healthLocked(b Backend) *backendHealth {
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
		g.healthMu.Lock()
		h := *g.healthLocked(b)
		g.healthMu.Unlock()
		info := BackendHealthInfo{
			Name:    b.Name(),
			State:   h.state,
			Pending: int(h.offered - h.cursor),
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

// flushBackend brings one backend up to the head under the health
// state machine: it delivers the window's epochs the backend owes,
// oldest first, then the head (nil during an explicit Resync, whose
// window also holds the un-retired epochs), charging device time to
// lanes seeded from base (nil = the kernel clock). The cursor advances
// with each success, so a failure leaves the rest owed — the head may
// still retire if a healthy peer holds it — and success all the way
// through marks the backend healthy again. force (foreground Sync,
// Resync) probes a down backend unconditionally; background flushes
// pace their probes. One caller at a time works a backend (probing): a
// flush that finds a Resync there leaves its epoch owed, a Resync that
// finds a flush there lets it work.
func (o *Orchestrator) flushBackend(g *Group, b Backend, window []*flushJob, head *Image, force bool, base *storage.Clock) (time.Duration, error) {
	g.healthMu.Lock()
	h := g.healthLocked(b)
	cursor, seen := h.cursor, h.offered
	if head != nil && head.Epoch > seen {
		if seen == 0 {
			cursor = head.Epoch - 1 // the attach point
			h.cursor = cursor
		}
		h.offered = head.Epoch
	}
	skip := h.probing
	if !skip && h.state == BackendDown && !force {
		// A down backend is mostly left alone: the epoch stays owed,
		// with a probe only every few epochs.
		h.skips++
		skip = h.skips%downProbeEvery != 0
	}
	if skip {
		g.healthMu.Unlock()
		if head == nil {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: epoch %d queued for catch-up", ErrBackendDown, head.Epoch)
	}
	h.probing = true
	g.healthMu.Unlock()

	var total time.Duration
	for i := 0; i <= len(window); i++ {
		img := head
		if i < len(window) {
			img = window[i].img
		}
		if img == nil {
			break // a Resync: no head
		}
		// An epoch offered before and not taken is owed; the head goes
		// out whatever the cursor says (a retried head is re-delivered
		// to the backends that already hold it).
		owed := img.Epoch > cursor && img.Epoch <= seen
		if !owed && img != head {
			continue
		}
		dur, attempts, err := o.deliver(b, img, base)
		total += dur
		fenced := err != nil && noteFence(g, err)
		g.healthMu.Lock()
		h.retries += int64(attempts - 1)
		switch {
		case err == nil:
			h.cursor = max(h.cursor, img.Epoch)
			if owed {
				h.resyncs++
			}
		case fenced:
			// The backend rejected our store generation: the group is a
			// stale primary, not the backend sick. The epoch is divergent
			// and can never be delivered, so the cursor passes over it
			// instead of owing it forever — and a head that was waiting
			// behind it does not become owed either.
			h.lastErr = err
			h.cursor = max(h.cursor, img.Epoch)
			h.offered = max(seen, h.cursor)
		default:
			h.noteFail(err, downState(b, err), o.downAfter())
		}
		if err != nil {
			h.probing = false
		}
		g.healthMu.Unlock()
		if err != nil {
			return total, err
		}
	}
	g.healthMu.Lock()
	h.noteOK()
	h.probing = false
	g.healthMu.Unlock()
	return total, nil
}

// Resync forces every sick backend of g to take what it owes now,
// retrying each backend up to resyncRounds times (a round with nothing
// left to deliver ends them). It returns the first backend's terminal
// error, after attempting all of them.
func (o *Orchestrator) Resync(g *Group) error {
	var window []*flushJob
	if f := g.pipeline(); f != nil {
		window = f.read()
		defer f.finish(nil, 0, nil)
	}
	var firstErr error
	for _, b := range g.Backends() {
		var err error
		for round := 0; round < resyncRounds; round++ {
			var dur time.Duration
			dur, err = o.flushBackend(g, b, window, nil, true, nil)
			// Foreground resync: the caller waits for the replay, so the
			// modeled catch-up time (charged to a detached lane inside
			// attempt) merges back into the group's timeline.
			o.K.Clock.Advance(dur)
			if err == nil {
				break
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: resyncing %s: %w", b.Name(), err)
		}
	}
	return firstErr
}
