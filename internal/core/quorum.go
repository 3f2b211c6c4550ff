package core

import (
	"errors"
	"sort"
)

// This file implements quorum durability: the AWS-Aurora idea of
// "quorum for fault-tolerance without too much waiting" applied to the
// flush pipeline. A group with a QuorumPolicy retires an epoch — and
// advances g.durable, and with it external consistency — as soon as W
// of its non-ephemeral backends have durably acknowledged it, instead
// of waiting for all of them. The stragglers keep catching up in
// parallel through the per-backend health machinery (cursors over the
// flush window, probes, the replica resume handshake); a degraded
// minority never blocks admission or retirement.
//
// With no policy set (the zero value) every legacy semantic is
// preserved exactly: durability means every backend acked.

// QuorumPolicy configures quorum durability for one group.
type QuorumPolicy struct {
	// W is the write quorum: the number of non-ephemeral backends that
	// must acknowledge an epoch before it retires. 0 disables quorum
	// (all-backends durability, the legacy rule). W larger than the
	// number of attached non-ephemeral backends is clamped down, so a
	// 2-of-3 group that loses a backend degenerates to 2-of-2, never to
	// an unsatisfiable quorum.
	W int
}

// ErrQuorumLost is wrapped into a flush error when fewer than W
// non-ephemeral backends acknowledged an epoch: the epoch must not
// retire, because a minority of acks cannot guarantee any future
// election sees it. Callers select on it with errors.Is; the causal
// per-backend failure (ErrBackendDown, netback disconnects, fencing
// rejections) stays on the chain.
var ErrQuorumLost = errors.New("core: quorum lost")

// SetQuorum installs (or, with the zero policy, removes) the group's
// quorum policy. Safe to call while checkpoints are in flight: epochs
// already handed to the pipeline are judged under the policy in force
// when their fan-out completes.
func (g *Group) SetQuorum(p QuorumPolicy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.W < 0 {
		p.W = 0
	}
	g.quorum = p
}

// Quorum returns the group's quorum policy and whether one is set.
func (g *Group) Quorum() (QuorumPolicy, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.quorum, g.quorum.W > 0
}

// QuorumNeed clamps the write quorum to the attached non-ephemeral
// backend count: a replica set that shrank below W still makes
// progress on what remains rather than wedging on an unsatisfiable
// quorum.
func QuorumNeed(w, nonEph int) int {
	if w > nonEph {
		return nonEph
	}
	return w
}

// QuorumStatus reports the group's quorum configuration and live ack
// state (the `sls ps` QUORUM column): the write quorum W (0 when no
// policy is set), how many non-ephemeral backends are fully caught up
// at the durable frontier (they owe nothing), and the non-ephemeral
// backend count N.
func (g *Group) QuorumStatus() (w, acked, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	for _, b := range g.backends {
		if b.Ephemeral() {
			continue
		}
		n++
		if !g.health[b].owes() {
			acked++
		}
	}
	return g.quorum.W, acked, n
}

// QuorumFloor returns the highest epoch floor guaranteed to be held by
// at least `need` of the given per-backend floors: the need-th highest
// value (need is clamped to 1..len). Used by Replicated() (output
// release gates on the quorum frontier), by the reclaimer (a lagging
// minority must not pin retention below what any surviving quorum
// already holds) and by netback's ReplicaSet over its links' acked
// frontiers.
func QuorumFloor(floors []uint64, need int) uint64 {
	if len(floors) == 0 {
		return 0
	}
	if need < 1 {
		need = 1
	}
	if need > len(floors) {
		need = len(floors)
	}
	sorted := append([]uint64(nil), floors...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	return sorted[need-1]
}
