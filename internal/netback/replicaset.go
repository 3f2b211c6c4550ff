package netback

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"aurora/internal/core"
)

// This file implements the replica set: N acknowledged replication
// links with a write quorum W. Each link is an ordinary core.Backend
// attached to the group individually — the flusher fans one epoch out
// to all of them concurrently, and each link keeps its own health
// state and cursor, so a degraded minority never blocks
// admission. The set itself is bookkeeping: it names the links,
// installs the group's QuorumPolicy, computes quorum floors over the
// per-link acked frontiers, and hands the receivers to quorum
// promotion.

// ErrReplicaLagging reports replica-set members trailing the quorum
// frontier by more than the caller's tolerance; callers select on it
// with errors.Is.
var ErrReplicaLagging = errors.New("netback: replica lagging behind quorum frontier")

// SetLink is one member of a replica set.
type SetLink struct {
	Name string
	RB   *ReplicaBackend
	Recv *Receiver // the far-side receiver (nil when it lives off-machine)
}

// ReplicaSet groups N replica links under one write quorum.
type ReplicaSet struct {
	mu    sync.Mutex
	w     int
	links []*SetLink
}

// NewReplicaSet creates an empty replica set with write quorum w.
func NewReplicaSet(w int) *ReplicaSet {
	return &ReplicaSet{w: w}
}

// Add registers a named link. The backend is renamed to match so
// per-link health rows are distinguishable.
func (rs *ReplicaSet) Add(name string, rb *ReplicaBackend, recv *Receiver) *SetLink {
	rb.SetName(name)
	l := &SetLink{Name: name, RB: rb, Recv: recv}
	rs.mu.Lock()
	rs.links = append(rs.links, l)
	rs.mu.Unlock()
	return l
}

// SetW changes the write quorum. The caller re-installs the group
// policy (AttachAll or Group.SetQuorum) for it to take effect there.
func (rs *ReplicaSet) SetW(w int) {
	rs.mu.Lock()
	rs.w = w
	rs.mu.Unlock()
}

// W returns the write quorum.
func (rs *ReplicaSet) W() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.w
}

// Links returns the members in registration order.
func (rs *ReplicaSet) Links() []*SetLink {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*SetLink(nil), rs.links...)
}

// AttachAll attaches every link's backend to the group and installs
// the set's write quorum as the group's QuorumPolicy.
func (rs *ReplicaSet) AttachAll(o *core.Orchestrator, g *core.Group) {
	for _, l := range rs.Links() {
		o.Attach(g, l.RB)
	}
	g.SetQuorum(core.QuorumPolicy{W: rs.W()})
}

// AckedFloors returns each link's contiguous acked frontier for the
// group, in registration order.
func (rs *ReplicaSet) AckedFloors(group uint64) []uint64 {
	links := rs.Links()
	floors := make([]uint64, len(links))
	for i, l := range links {
		floors[i] = l.RB.AckedFloor(group)
	}
	return floors
}

// QuorumFloor returns the newest epoch acked by at least W links: the
// epoch durability actually stands on.
func (rs *ReplicaSet) QuorumFloor(group uint64) uint64 {
	floors := rs.AckedFloors(group)
	return core.QuorumFloor(floors, core.QuorumNeed(rs.W(), len(floors)))
}

// Lagging reports the members trailing the quorum floor by more than
// maxLag epochs. It returns nil when every member is within tolerance,
// else an error wrapping ErrReplicaLagging that names the stragglers.
func (rs *ReplicaSet) Lagging(group uint64, maxLag uint64) error {
	qf := rs.QuorumFloor(group)
	var behind []string
	for _, l := range rs.Links() {
		f := l.RB.AckedFloor(group)
		if f+maxLag < qf {
			behind = append(behind, fmt.Sprintf("%s@%d", l.Name, f))
		}
	}
	if len(behind) == 0 {
		return nil
	}
	return fmt.Errorf("%w: quorum floor %d, behind: %s", ErrReplicaLagging, qf, strings.Join(behind, ", "))
}

// Sources returns the members' receivers as promotion sources, in
// registration order (members without an in-machine receiver are
// skipped). Feed this to core.PromoteQuorum.
func (rs *ReplicaSet) Sources() []core.ReplicaSource {
	var out []core.ReplicaSource
	for _, l := range rs.Links() {
		if l.Recv != nil {
			out = append(out, l.Recv)
		}
	}
	return out
}
