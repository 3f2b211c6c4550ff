package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// This file implements fault-tolerant demand paging for lazy restores:
// the read-side twin of the flush pipeline's self-healing (health.go).
// A lazily restored object pages from its primary store through a
// lazyPageSource; a faulted read retries with bounded backoff, fails
// over to any peer holding the same content hash (a second store, a
// netback replica), and writes pages served by a peer back onto the
// primary (read-repair). Read failures feed the same per-backend
// health ladder the flush pipeline uses, so a store that cannot serve
// reads degrades for writers too.

// BlockProvider serves verified block contents by content hash. Any
// peer backend of a group holds bit-identical blocks under the same
// hashes (dedup keys are content hashes), so any of them can stand in
// for a failed primary during demand paging. *objstore.Store and
// netback's Receiver implement it.
type BlockProvider interface {
	FetchBlock(h objstore.Hash) ([]byte, bool)
}

// Demand-paging retry policy: small, because a faulting thread is
// stalled while we retry — failover to a peer beats waiting out a sick
// device. Backoff is charged to a detached clock lane (the repair
// effort is not the application's foreground time).
const (
	lazyReadRetries = 2
	lazyBackoffBase = 50 * time.Microsecond
)

// RecoveryStats aggregates a group's demand-paging repair effort.
type RecoveryStats struct {
	Failovers     int64 // pages served by a peer after the primary failed
	PagesRepaired int64 // peer pages written back onto the primary
	Retries       int64 // extra primary read attempts
}

// lazyPageSource implements vm.PageSource over the object store's live
// page view, with bounded retry, peer failover, and read-repair.
type lazyPageSource struct {
	o      *Orchestrator
	sb     *StoreBackend
	view   *objstore.PageView
	inline map[int64][]byte // pages already materialized as bytes

	// pinGroup/pinEpoch name the store epoch the view resolves at.
	// They are immutable after construction; neither the space
	// reclaimer nor the HistoryLimit trim may drop that epoch while the
	// source lives (Orchestrator.pinnedEpochs), because the view finds
	// its pages through that epoch's place in the store's history.
	pinGroup uint64
	pinEpoch uint64

	mu    sync.Mutex
	g     *Group // bound once the restored group exists; may stay nil
	peers []BlockProvider
	skips int // probe pacing against a down primary

	failovers atomic.Int64
	repaired  atomic.Int64
	retries   atomic.Int64
}

func newLazyPageSource(o *Orchestrator, sb *StoreBackend, view *objstore.PageView, inline map[int64][]byte, peers []BlockProvider) *lazyPageSource {
	return &lazyPageSource{o: o, sb: sb, view: view, inline: inline, peers: peers}
}

// bind attaches the source to the restored group so read faults drive
// the group's backend-health ladder and stats.
func (s *lazyPageSource) bind(g *Group) {
	s.mu.Lock()
	s.g = g
	s.mu.Unlock()
}

func (s *lazyPageSource) group() *Group {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g
}

func (s *lazyPageSource) stats() RecoveryStats {
	return RecoveryStats{
		Failovers:     s.failovers.Load(),
		PagesRepaired: s.repaired.Load(),
		Retries:       s.retries.Load(),
	}
}

// FetchInto implements vm.PageSource. It reports false for pages the
// image never captured (zero-fill), and an error wrapping
// ErrBackendDown when the primary and every peer failed — or when the
// view's epoch has left the store, which no peer can help with: there
// is no block reference to ask them for.
func (s *lazyPageSource) FetchInto(idx int64, dst []byte) (bool, error) {
	if d, ok := s.inline[idx]; ok {
		clear(dst[copy(dst, d):])
		return true, nil
	}
	ref, ok, err := s.view.Lookup(idx)
	if err != nil {
		return false, fmt.Errorf("%w: demand-paged read of page %d from %s: %w",
			ErrBackendDown, idx, s.sb.Name(), err)
	}
	if !ok {
		return false, nil
	}

	// A primary the health machine already marked down is mostly left
	// alone: peers serve, with only a periodic probe (mirroring the
	// flush pipeline's pacing).
	primaryFirst := true
	if g := s.group(); g != nil {
		g.healthMu.Lock()
		if h := g.health[s.sb]; h != nil && h.state == BackendDown {
			s.mu.Lock()
			s.skips++
			primaryFirst = s.skips%downProbeEvery == 0
			s.mu.Unlock()
		}
		g.healthMu.Unlock()
	}

	served := false
	var perr error
	if primaryFirst {
		perr = s.readPrimary(ref, dst)
		served = perr == nil
	}
	if !served {
		if d, ok := s.fetchFromPeers(ref); ok {
			clear(dst[copy(dst, d):])
			served = true
			s.failovers.Add(1)
			// Read-repair: heal the primary's copy in place so the
			// next fault (and the next scrub) finds it intact.
			if err := s.sb.store.RepairBlock(ref, d); err == nil {
				s.repaired.Add(1)
			}
		}
	}
	if !served && !primaryFirst {
		// Peers failed and the paced probe was skipped: the down
		// primary is still the only possible server, so try it.
		perr = s.readPrimary(ref, dst)
		served = perr == nil
	}
	if !served {
		if perr == nil {
			perr = fmt.Errorf("%d peers hold no copy", s.peerCount())
		}
		return false, fmt.Errorf("%w: demand-paged read of page %d from %s failed (%d peers tried): %v",
			ErrBackendDown, idx, s.sb.Name(), s.peerCount(), perr)
	}
	return true, nil
}

// readPrimary reads one block from the primary store into dst with
// bounded retry and backoff, feeding a failure into the health ladder.
// A good read resets nothing there: a healthy record has no failures to
// clear (the first one degrades it), and recovery of a degraded or down
// backend belongs to the flush pipeline's probes, which must deliver
// what the backend owes first.
func (s *lazyPageSource) readPrimary(ref objstore.BlockRef, dst []byte) error {
	var lane *storage.Clock
	backoff := lazyBackoffBase
	var lastErr error
	for attempt := 0; attempt <= lazyReadRetries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			if lane == nil {
				lane = s.o.K.Clock.Lane()
			}
			lane.Advance(backoff)
			backoff *= 2
		}
		err := s.sb.store.ReadBlockInto(ref, dst)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, storage.ErrDeviceDown) {
			break // permanent: retrying a dead device buys nothing
		}
		if errors.Is(err, objstore.ErrCorruptBlock) {
			break // rot does not heal on retry; a peer can heal it
		}
	}
	if g := s.group(); g != nil {
		// Demand-paging reads and pipeline flushes count against the
		// same per-backend record.
		g.healthMu.Lock()
		g.healthLocked(s.sb).noteFail(lastErr, downState(s.sb, lastErr), s.o.downAfter())
		g.healthMu.Unlock()
	}
	return lastErr
}

func (s *lazyPageSource) fetchFromPeers(ref objstore.BlockRef) ([]byte, bool) {
	s.mu.Lock()
	peers := append([]BlockProvider(nil), s.peers...)
	s.mu.Unlock()
	for _, p := range peers {
		if d, ok := p.FetchBlock(ref.Hash); ok {
			return d, true
		}
	}
	return nil, false
}

func (s *lazyPageSource) peerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// HasPage implements vm.PageSource. A view that can no longer tell
// (its epoch left the store) answers yes: the fetch then fails loudly
// instead of the page zero-filling.
func (s *lazyPageSource) HasPage(idx int64) bool {
	if _, ok := s.inline[idx]; ok {
		return true
	}
	_, ok, err := s.view.Lookup(idx)
	return ok || err != nil
}

// Pages implements vm.PageSource.
func (s *lazyPageSource) Pages() []int64 {
	// A view whose epoch left the store lists nothing; the interface
	// has no way to say so. Every fault through it fails (FetchInto).
	out, _ := s.view.Pages()
	for idx := range s.inline {
		if _, dup, _ := s.view.Lookup(idx); !dup {
			out = append(out, idx)
		}
	}
	return out
}
