package core

import (
	"errors"
	"sort"
)

// ErrEpochQuarantined marks a checkpoint epoch that failed restore
// validation: its blocks no longer match their manifest hashes. The
// epoch is recorded as poisoned (in the group and, for store backends,
// persistently in the store) and skipped by every later restore, which
// falls back to the newest non-quarantined durable epoch. Always
// returned wrapped; select with errors.Is.
var ErrEpochQuarantined = errors.New("core: epoch quarantined")

// quarantineEpoch records that epoch of lineage gid failed validation
// against backend b: in the group's ledger (for `sls ps`/`sls epochs`)
// and, when b is store-backed, durably in the store itself so the
// epoch stays poisoned across remounts.
func (o *Orchestrator) quarantineEpoch(g *Group, b Backend, gid, epoch uint64, reason error) {
	why := "validation failed"
	if reason != nil {
		why = reason.Error()
	}
	if sb, ok := b.(*StoreBackend); ok {
		sb.store.Quarantine(gid, epoch, why)
	}
	g.healthMu.Lock()
	if g.quarantined == nil {
		g.quarantined = make(map[uint64]string)
	}
	g.quarantined[epoch] = why
	g.healthMu.Unlock()
}

// Quarantined returns the epochs of this group that failed restore
// validation, with the reason each was poisoned. It merges the group's
// own ledger with every attached store backend's persistent record.
func (g *Group) Quarantined() map[uint64]string {
	out := make(map[uint64]string)
	for _, b := range g.Backends() {
		sb, ok := b.(*StoreBackend)
		if !ok {
			continue
		}
		for ep, why := range sb.store.QuarantinedEpochs(g.ID) {
			out[ep] = why
		}
		// Marks recorded under the lineage this group was restored from
		// poison the same chain.
		if org := g.Origin(); org != 0 && org != g.ID {
			for ep, why := range sb.store.QuarantinedEpochs(org) {
				out[ep] = why
			}
		}
	}
	g.healthMu.Lock()
	for ep, why := range g.quarantined {
		out[ep] = why
	}
	g.healthMu.Unlock()
	return out
}

// QuarantinedEpochs returns the quarantined epochs sorted ascending.
func (g *Group) QuarantinedEpochs() []uint64 {
	m := g.Quarantined()
	out := make([]uint64, 0, len(m))
	for ep := range m {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddRestorePeer registers an out-of-band block provider (e.g. a
// netback replica's receiver) that lazy restores of this group may
// fail over to, in addition to the group's own store backends.
func (o *Orchestrator) AddRestorePeer(g *Group, p BlockProvider) {
	g.mu.Lock()
	g.restorePeers = append(g.restorePeers, p)
	g.mu.Unlock()
}

// RecoveryStats sums the demand-paging repair effort of every lazy
// source attached to this group (failovers, read-repairs, retries).
func (g *Group) RecoveryStats() RecoveryStats {
	g.mu.Lock()
	srcs := append([]*lazyPageSource(nil), g.sources...)
	g.mu.Unlock()
	var out RecoveryStats
	for _, s := range srcs {
		out.Failovers += s.failovers.Load()
		out.PagesRepaired += s.repaired.Load()
		out.Retries += s.retries.Load()
	}
	return out
}
