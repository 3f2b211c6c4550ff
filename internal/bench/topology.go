package bench

import (
	"fmt"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Shared machine and wire builder. Every chaos engine in this package
// simulates the same two primitives — a *machine* (its own virtual
// clock, kernel, orchestrator, and fault-injecting store) and a *wire*
// (a netback.Wire carrying the acked replica protocol between a sender
// backend and a far-side receiver). Node and Wire are the only place
// either is assembled; harness.go holds what runs on them.

// Topology strings wires under one link-fault template.
type Topology struct {
	faults netback.LinkFaultConfig // per-wire template; Seed is per-wire
}

// NewTopology creates a builder whose wires inject faults per the
// template (the template's Seed is ignored — each wire passes its
// own, so two wires never replay the same fault schedule).
func NewTopology(faults netback.LinkFaultConfig) *Topology {
	return &Topology{faults: faults}
}

// Node is one simulated machine: its own virtual clock, kernel,
// orchestrator, and fault-injecting store, plus the supervisor an
// engine installs when its script crashes processes.
type Node struct {
	name  string
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
	fd    *storage.FaultDevice
	sb    *core.StoreBackend
	sup   *core.Supervisor
}

// NewNode builds one machine whose store device injects faults at the
// given rates under its own seed. It is also the scratch machine of
// every "restore it elsewhere and compare" check.
func NewNode(name string, seed int64, writeErr, readErr float64) *Node {
	return newNode(name, storage.FaultConfig{Seed: seed, WriteErr: writeErr, ReadErr: readErr}, 0)
}

// newNode is NewNode over a device of the given byte capacity
// (0 = unbounded).
func newNode(name string, faults storage.FaultConfig, capacity int64) *Node {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	params := storage.ParamsOptaneNVMe
	params.Capacity = capacity
	fd := storage.NewFaultDevice(storage.NewMemDevice(params, clock), clock, faults)
	sb := core.NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)
	return &Node{name: name, clock: clock, k: k, o: o, fd: fd, sb: sb}
}

// bound composes the space scheduler onto a capacity-bounded node: the
// retention reclaimer, with the reachability audit run after every
// reclaimed epoch — the standing space invariant, whose failure aborts
// the scan and surfaces through auditErr.
func (n *Node) bound(keepLast int, marks core.Watermarks) {
	rec := core.NewReclaimer(n.o, n.sb, core.RetentionPolicy{KeepLast: keepLast}, marks)
	rec.Audit = (*objstore.Store).AuditReachability
	n.sb.SetReclaimer(rec)
}

// auditErr reports a reachability audit that failed during reclamation.
func (n *Node) auditErr() error {
	if rec := n.sb.Reclaimer(); rec != nil && rec.Stats().LastAuditErr != "" {
		return fmt.Errorf("reachability audit failed during reclamation on %s: %s", n.name, rec.Stats().LastAuditErr)
	}
	return nil
}

// kill crashes every member of g with the given nonzero exit code.
func (n *Node) kill(g *core.Group, code int) {
	for _, pid := range g.PIDs() {
		if p, err := n.k.Process(pid); err == nil {
			n.k.Exit(p, code)
		}
	}
}

// storeNode is the node as the placer and the primary-claim invariant
// see it.
func (n *Node) storeNode(domain string) *core.StoreNode {
	return &core.StoreNode{Name: n.name, Domain: domain, O: n.o, SB: n.sb, Sup: n.sup}
}

// Wire is one replication wire of a script: a netback.Wire carrying
// the acked replica stream (plus migration handoff frames) from a
// sender-side ReplicaBackend to a far-side Receiver, and the engine's
// bookkeeping for it.
type Wire struct {
	*netback.Wire
	name  string
	pm    *vm.PhysMem    // standalone endpoints own their memory
	clock *storage.Clock // ... and their clock

	// Scripted partition: while blockedFor > 0, reconnect attempts
	// burn down the counter instead of healing — the wire stays
	// partitioned across that many retry attempts.
	blockedFor int
	// down marks a scripted kill/partition window (engine bookkeeping).
	down bool
}

// Wire strings a wire from src to a receiver on dst's memory and
// clock, injecting faults per the topology template under seed.
func (tp *Topology) Wire(seed int64, src, dst *Node) *Wire {
	return tp.wire(seed, src, netback.NewReceiver(dst.k.Mem, dst.clock), fmt.Sprintf("%s->%s", src.name, dst.name))
}

// Endpoint strings a wire from src to a standalone receiver with its
// own physical memory and clock — a replica that is not a full
// machine (the quorum engine's members).
func (tp *Topology) Endpoint(name string, seed int64, src *Node) *Wire {
	pm, clock := vm.NewPhysMem(0), storage.NewClock()
	w := tp.wire(seed, src, netback.NewReceiver(pm, clock), name)
	w.pm, w.clock = pm, clock
	return w
}

func (tp *Topology) wire(seed int64, src *Node, recv *netback.Receiver, name string) *Wire {
	cfg := tp.faults
	cfg.Seed = seed
	return &Wire{Wire: netback.NewWire(cfg, src.clock, recv), name: name}
}

// reconnect is the wire's Reset — except while a scripted partition
// window is open, when it fails, modeling an unreachable far side.
func (w *Wire) reconnect(group uint64) error {
	if w.blockedFor > 0 {
		w.blockedFor--
		return fmt.Errorf("bench: wire %s partitioned: %w", w.name, netback.ErrDisconnected)
	}
	if err := w.Reset(group); err != nil {
		return fmt.Errorf("bench: wire %s: %w", w.name, err)
	}
	return nil
}

// partition opens a scripted partition that survives the next
// `retries` reconnect attempts.
func (w *Wire) partition(retries int) {
	w.Link().Partition()
	w.blockedFor = retries
}
