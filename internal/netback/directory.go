package netback

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"aurora/internal/core"
	"aurora/internal/storage"
)

// Wire is one in-process replication wire: a FaultLink from a
// sender-side ReplicaBackend straight into a far-side Receiver's
// handler. Nothing serves it — a frame is delivered by the write that
// completes it — so bringing a wire up or back is a handshake, never a
// serve loop to start, poison or reap. The directory's wire pool, the
// chaos harness, the migration tests and `sls replica add` all build
// this one type.
type Wire struct {
	mu   sync.Mutex // one handshake at a time
	link *FaultLink
	rb   *ReplicaBackend
	recv atomic.Pointer[Receiver]
}

// NewWire strings a wire from a sender on clock (which the link's
// latency spikes are charged to as well) to recv, injecting faults per
// the config (zero config = a clean wire).
func NewWire(faults LinkFaultConfig, clock *storage.Clock, recv *Receiver) *Wire {
	w := &Wire{rb: NewReplicaBackend(clock)}
	w.recv.Store(recv)
	w.link = newFaultLink(faults, clock, func(rw io.Writer, typ byte, payload []byte) error {
		_, err := w.recv.Load().handle(rw, typ, payload)
		return err
	})
	return w
}

// Backend is the sender side, the backend a group attaches.
func (w *Wire) Backend() *ReplicaBackend { return w.rb }

// Receiver is the far side: the replica promotions read.
func (w *Wire) Receiver() *Receiver { return w.recv.Load() }

// Link is the wire's fault link: partitions, scripted drops, counters.
func (w *Wire) Link() *FaultLink { return w.link }

// Restart puts recv at the far end — a replica machine that came back
// empty. The sender learns what it holds at the next handshake.
func (w *Wire) Restart(recv *Receiver) { w.recv.Store(recv) }

// Connect handshakes group over the wire as it stands and resets it if
// that fails.
func (w *Wire) Connect(group uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.rb.Connect(w.link, group); err == nil {
		return nil
	}
	return w.reset(group)
}

// Reset re-establishes the wire: drop the connection, heal the link and
// re-run the hello handshake — retried, because on a faulty wire the
// hello or its ack can itself be lost, which ends the new session too.
func (w *Wire) Reset(group uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reset(group)
}

func (w *Wire) reset(group uint64) error {
	w.rb.Disconnect()
	var err error
	for attempt := 0; attempt < 64; attempt++ {
		w.link.Heal()
		if _, err = w.rb.Connect(w.link, group); err == nil {
			return nil
		}
	}
	return fmt.Errorf("netback: wire did not recover: %w", err)
}

// Directory is the fleet's store directory and replication link pool:
// the netback half of the placement control plane. The placer decides
// *which* stores a lineage's stream should connect; the directory owns
// *how* — one Wire per (src, dst, stream), its receiver on the
// destination machine's memory and clock, its backend attached by the
// placer to the group on src. It implements core.PlacerLinks.
//
// Every wire injects faults per the directory's template, so the bench
// chaos engines inject link faults fleet-wide by constructing the
// directory with non-zero rates; the CLI leaves the template zero and
// gets clean wires of the same type.
type Directory struct {
	// Faults is the per-frame fault template stamped onto every wire.
	// The Seed field is a base: each wire derives its own seed so two
	// wires never replay the same fault schedule.
	Faults LinkFaultConfig

	// mu guards the map only: a handshake on one wire never waits for
	// another's (each Wire serializes its own).
	mu    sync.Mutex
	wires map[dirKey]*Wire
	seq   int64
	// The fault counters of dropped wires, summed.
	goneDropped, goneInjected int64
}

type dirKey struct {
	src, dst *core.StoreNode
	stream   uint64
}

// NewDirectory creates a directory whose wires inject faults per the
// template (zero template = clean wires).
func NewDirectory(faults LinkFaultConfig) *Directory {
	return &Directory{Faults: faults, wires: make(map[dirKey]*Wire)}
}

// Link establishes (or returns) the replication wire src→dst for one
// stream, connected. The returned backend is attached to the group on
// src; the returned source is the dst-side receiver view (floors,
// images, fences) that promotions read.
func (d *Directory) Link(src, dst *core.StoreNode, stream uint64) (core.Backend, core.ReplicaSource, error) {
	d.mu.Lock()
	key := dirKey{src, dst, stream}
	w, ok := d.wires[key]
	if !ok {
		d.seq++
		cfg := d.Faults
		cfg.Seed = d.Faults.Seed*1000003 + d.seq*7919
		w = NewWire(cfg, src.O.K.Clock, NewReceiver(dst.O.K.Mem, dst.O.K.Clock))
		w.rb.SetName(fmt.Sprintf("repl:%s->%s/%d", src.Name, dst.Name, stream))
		d.wires[key] = w
	}
	d.mu.Unlock()
	if err := w.Connect(stream); err != nil {
		return nil, nil, err
	}
	return w.rb, w.Receiver(), nil
}

// Reconnect re-establishes a dropped connection on an existing wire —
// the migrator's retry hook after a link fault kills the session.
func (d *Directory) Reconnect(src, dst *core.StoreNode, stream uint64) error {
	d.mu.Lock()
	w, ok := d.wires[dirKey{src, dst, stream}]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("netback: no directory link %s->%s/%d: %w", src.Name, dst.Name, stream, ErrDisconnected)
	}
	return w.Reset(stream)
}

// Drop tears a wire down for good (the stream moved or the member
// died): its backend fails fast from here. Unknown wires are a no-op:
// the placer drops liberally.
func (d *Directory) Drop(src, dst *core.StoreNode, stream uint64) {
	d.mu.Lock()
	key := dirKey{src, dst, stream}
	w, ok := d.wires[key]
	if ok {
		delete(d.wires, key)
		d.goneDropped += w.link.DroppedCount()
		d.goneInjected += w.link.InjectedCount()
	}
	d.mu.Unlock()
	if ok {
		w.rb.Disconnect()
	}
}

// Wires reports the live wire count (observability for tests and the
// CLI).
func (d *Directory) Wires() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.wires)
}

// LinkFaults sums the fault counters of every wire the directory has
// strung, dropped ones included: frames lost and faults injected.
func (d *Directory) LinkFaults() (dropped, injected int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dropped, injected = d.goneDropped, d.goneInjected
	for _, w := range d.wires {
		dropped += w.link.DroppedCount()
		injected += w.link.InjectedCount()
	}
	return dropped, injected
}

var _ core.PlacerLinks = (*Directory)(nil)
