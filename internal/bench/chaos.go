package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file is the whole-system chaos harness: one seeded scheduler
// composing storage faults (FaultDevice under the primary store), link
// faults (FaultLink under the replication channel), process crashes
// with supervisor restarts, a transient partition with heal and
// catch-up, and a full primary failure with replica promotion followed
// by the stale primary's return. After every event it re-checks the
// system's core invariants:
//
//   - the durable epoch never regresses within a group lifetime;
//   - every restore and promotion is bit-identical to what was
//     checkpointed at that epoch;
//   - externally released output (epochs below the replication
//     frontier) is never lost by any restore or promotion;
//   - exactly one store holds the primary claim at the maximum
//     generation for the active lineage, and after demotion exactly
//     one claim remains at all.

// chaosPages is the patterned working set carried through every crash,
// restore, and promotion (beyond the counter page).
const chaosPages = 16

// chaosCounter is the chaos workload: a 64-bit little-endian counter
// incremented once per kernel step, so hundreds of checkpoints cannot
// wrap it and every epoch has a distinct, predictable value.
type chaosCounter struct{ addr vm.Addr }

func (c *chaosCounter) ProgName() string { return "bench-chaos-counter" }

func (c *chaosCounter) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	return e.Bytes()
}

func (c *chaosCounter) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(c.addr, b[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b[:], binary.LittleEndian.Uint64(b[:])+1)
	return p.WriteMem(c.addr, b[:])
}

func init() {
	kernel.RegisterProgram("bench-chaos-counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &chaosCounter{addr: vm.Addr(d.U64())}, nil
	})
}

// ChaosConfig parameterizes one chaos run. Zero values pick defaults.
type ChaosConfig struct {
	Seed int64

	// Checkpoints is the number of epochs in the steady-state phase
	// (before the permanent partition).
	Checkpoints int
	// StepsPerEpoch is the kernel steps run between checkpoints.
	StepsPerEpoch int

	// Per-frame link fault probabilities (see LinkFaultConfig).
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64

	// Per-op fault probabilities on the primary store device.
	StoreWriteErr float64
	StoreReadErr  float64

	// CrashEvery kills the group every Nth steady-state checkpoint and
	// lets the supervisor restore it (0 = never).
	CrashEvery int
	// PartitionAt/PartitionLen script a transient symmetric partition
	// during the steady state: it starts after checkpoint PartitionAt
	// and heals PartitionLen checkpoints later (PartitionAt 0 = none).
	PartitionAt  int
	PartitionLen int

	// DivergentEpochs is how many epochs the primary checkpoints into
	// the permanent partition — the divergent suffix the stale primary
	// accumulates before the replica is promoted over it.
	DivergentEpochs int
	// PostEpochs is how many epochs the promoted primary runs after
	// the failover.
	PostEpochs int

	// StoreCapacityEpochs bounds the primary store's device to roughly
	// this many steady-state epochs of room (0 = unbounded), measured by
	// a clean sizing probe, and composes the space scheduler — retention
	// reclaimer, ENOSPC emergency reclamation, checkpoint admission —
	// into the fault mix. The reachability audit runs after every
	// reclaimed epoch. Leave margin above KeepLast: epochs above the
	// replica's contiguous-ack floor are unreclaimable, so a partition
	// pins everything minted while it lasts.
	StoreCapacityEpochs int
	// KeepLast is the bounded store's retention floor (0 = default).
	KeepLast int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Checkpoints == 0 {
		c.Checkpoints = 24
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 3
	}
	if c.DivergentEpochs == 0 {
		c.DivergentEpochs = 4
	}
	if c.PostEpochs == 0 {
		c.PostEpochs = 6
	}
	if c.PartitionLen == 0 {
		c.PartitionLen = 3
	}
	return c
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Seed        int64
	Checkpoints int // checkpoints attempted across all phases

	Crashes  int // processes killed
	Restores int // supervisor restores (each verified bit-identical)
	Heals    int // transient partitions healed and caught up

	Partitions    int64 // connection losses observed by the replica backend
	LinkDropped   int64 // frames lost on the link (injected + partition)
	LinkInjected  int64 // link faults injected by probability or script
	StoreInjected int64 // device faults injected on the primary store

	StaleRejected int // fencing rejections observed after the stale return
	Quarantined   int // divergent epochs quarantined at demotion

	PromoteGen uint64        // generation minted by the promotion
	Floor      uint64        // contiguous floor that became the durable line
	Backfilled int           // epochs copied into the new primary store
	PromoteTTR time.Duration // virtual time for the promotion
	CatchUp    time.Duration // virtual time to drain catch-up after the heal

	PerCheckpoint time.Duration // mean virtual time per steady-state checkpoint
	Released      uint64        // released watermark on the promoted line at exit

	StoreCapacity   int64 // primary device capacity in bytes (0 = unbounded)
	EpochsReclaimed int64 // epochs retention GC merged forward on the primary
	EmergencyScans  int64 // ENOSPC-triggered reclamations survived
}

// chaosRun carries the harness state across phases.
type chaosRun struct {
	cfg ChaosConfig
	rep *ChaosReport

	srcClock *storage.Clock
	srcK     *kernel.Kernel
	srcO     *core.Orchestrator
	sup      *core.Supervisor
	fd       *storage.FaultDevice
	srcStore *core.StoreBackend

	dstClock *storage.Clock
	dstK     *kernel.Kernel
	dstO     *core.Orchestrator
	recv     *netback.Receiver
	dstStore *core.StoreBackend

	link      *netback.FaultLink
	endA      io.ReadWriteCloser
	endB      io.ReadWriteCloser
	rb        *netback.ReplicaBackend
	serveDone chan error
	serving   bool

	g *core.Group // the group currently running on src

	counterAt   map[uint64]uint64 // counter value captured by each epoch
	durableAt   map[string]uint64 // per-group durable high-water (monotonicity)
	maxReleased uint64            // highest epoch whose output was ever released
}

func (c *chaosRun) startServe() {
	c.serving = true
	go func() {
		_, err := c.recv.ServeReplica(c.endB)
		c.serveDone <- err
	}()
}

// resetLink tears the replication connection all the way down and
// re-establishes it: poison any live serve loop (a partition drop makes
// it exit), reap it, discard every buffered frame so a stale hello-ack
// cannot satisfy the next handshake, heal, and re-run the hello
// handshake — retrying, since probabilistic faults can kill the
// handshake itself. Every failed Connect implies a drop or corruption
// that also poisons the serve loop, so reaping between attempts cannot
// block.
func (c *chaosRun) resetLink() error {
	c.link.PartitionBoth()
	if c.serving {
		<-c.serveDone
		c.serving = false
	}
	c.rb.Disconnect()
	c.link.DrainPending()
	c.link.Heal()
	var err error
	for attempt := 0; attempt < 64; attempt++ {
		if !c.serving {
			c.startServe()
		}
		if _, err = c.rb.Connect(c.endA, c.g.ID); err == nil {
			return nil
		}
		<-c.serveDone
		c.serving = false
	}
	return fmt.Errorf("bench: chaos seed %d: replica link did not recover: %w", c.cfg.Seed, err)
}

func (c *chaosRun) replicaHealth() (core.BackendHealthInfo, bool) {
	for _, hi := range c.g.Health() {
		if hi.Name == "replica" {
			return hi, true
		}
	}
	return core.BackendHealthInfo{}, false
}

// syncDurable advances the durable frontier to the group's barrier
// epoch, retrying store-side failures with fresh fault rolls.
// Orchestrator.Sync means "durable everywhere" and so also errors on a
// partitioned replica; this helper cares only that some durable
// backend holds every epoch — replica catch-up is handled (or
// deliberately deferred) by the caller.
func (c *chaosRun) syncDurable() error {
	var last error
	for round := 0; round < 12; round++ {
		last = c.srcO.Sync(c.g)
		if c.g.Durable() == c.g.Epoch() {
			return nil
		}
	}
	return fmt.Errorf("bench: chaos seed %d: durable frontier stuck at %d (barrier %d): %w",
		c.cfg.Seed, c.g.Durable(), c.g.Epoch(), last)
}

// heal drives every sick backend of the current group back to healthy:
// reconnect the link if the replica lost it, then force a resync and a
// sync, repeating — under probabilistic faults a round can fail and a
// later one succeed.
func (c *chaosRun) heal() error {
	var last error
	for round := 0; round < 12; round++ {
		sick := false
		for _, hi := range c.g.Health() {
			if hi.State != core.BackendHealthy || hi.Pending > 0 {
				sick = true
			}
		}
		if !sick {
			return nil
		}
		if hi, ok := c.replicaHealth(); ok && (hi.State != core.BackendHealthy || hi.Pending > 0) {
			if err := c.resetLink(); err != nil {
				return err
			}
		}
		_ = c.srcO.Resync(c.g)
		last = c.srcO.Sync(c.g)
	}
	return fmt.Errorf("bench: chaos seed %d: group %d did not heal: %w", c.cfg.Seed, c.g.ID, last)
}

// invariants re-checks the standing invariants on the source line.
func (c *chaosRun) invariants(where string) error {
	key := fmt.Sprintf("src/%d", c.g.ID)
	d := c.g.Durable()
	if prev := c.durableAt[key]; d < prev {
		return fmt.Errorf("bench: chaos %s: durable epoch regressed %d -> %d (group %d)", where, prev, d, c.g.ID)
	}
	c.durableAt[key] = d
	for c.srcO.Released(c.g.ID, c.maxReleased+1) {
		c.maxReleased++
	}
	if hi, ok := c.replicaHealth(); ok && hi.State == core.BackendDown {
		return fmt.Errorf("bench: chaos %s: partitioned replica marked down (must cap at degraded)", where)
	}
	return c.checkPrimaries(c.g.ID, where)
}

// checkPrimaries asserts the fencing invariant: among the stores that
// claim the primary role for the lineage, exactly one holds the claim
// at the maximum generation.
func (c *chaosRun) checkPrimaries(lineage uint64, where string) error {
	type claim struct {
		who string
		gen uint64
	}
	var claims []claim
	var maxGen uint64
	add := func(who string, sb *core.StoreBackend) {
		if sb == nil {
			return
		}
		if gen, primary := sb.Store().PrimaryGen(lineage); primary {
			claims = append(claims, claim{who, gen})
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	add("src", c.srcStore)
	add("dst", c.dstStore)
	if len(claims) == 0 {
		return fmt.Errorf("bench: chaos %s: no store claims the primary role for lineage %d", where, lineage)
	}
	n := 0
	for _, cl := range claims {
		if cl.gen == maxGen {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("bench: chaos %s: %d stores claim primary at generation %d for lineage %d (want exactly 1: %v)",
			where, n, maxGen, lineage, claims)
	}
	return nil
}

// verifyState checks a restored or promoted group bit-for-bit against
// what was checkpointed at the given epoch: the counter value captured
// then, and the full patterned working set.
func (c *chaosRun) verifyState(k *kernel.Kernel, g *core.Group, epoch uint64, where string) error {
	want, ok := c.counterAt[epoch]
	if !ok {
		return fmt.Errorf("bench: chaos %s: no recorded counter for epoch %d", where, epoch)
	}
	p, err := k.Process(g.PIDs()[0])
	if err != nil {
		return fmt.Errorf("bench: chaos %s: %w", where, err)
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return fmt.Errorf("bench: chaos %s: reading counter: %w", where, err)
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		return fmt.Errorf("bench: chaos %s: counter %d at epoch %d, want %d — restore not bit-identical", where, got, epoch, want)
	}
	buf := make([]byte, vm.PageSize)
	for pg := 1; pg <= chaosPages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			return fmt.Errorf("bench: chaos %s: paging page %d: %w", where, pg, err)
		}
		ref := recoveryPattern(pg, c.cfg.Seed)
		for i := range buf {
			if buf[i] != ref[i] {
				return fmt.Errorf("bench: chaos %s: page %d byte %d differs — restore not bit-identical", where, pg, i)
			}
		}
	}
	return nil
}

// syncStore syncs a store with bounded retries: the fault device can
// inject a write error into the superblock persist itself, and a
// retried sync draws fresh rolls.
func syncStore(st *objstore.Store) error {
	var err error
	for try := 0; try < 8; try++ {
		if err = st.Sync(); err == nil {
			return nil
		}
	}
	return err
}

func (c *chaosRun) readCounter() (uint64, error) {
	p, err := c.srcK.Process(c.g.PIDs()[0])
	if err != nil {
		return 0, err
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// crash kills every member of the group with a nonzero exit and lets
// the supervisor restore it, then verifies the restored state
// bit-identical, re-claims the primary role for the fresh lineage, and
// re-handshakes the replica (whose chain for the new lineage starts
// with the automatic full checkpoint).
func (c *chaosRun) crash() error {
	for _, pid := range c.g.PIDs() {
		if p, err := c.srcK.Process(pid); err == nil {
			c.srcK.Exit(p, 1)
		}
	}
	c.rep.Crashes++
	oldLineage := c.g.ID
	// A restore attempt can itself hit an injected store read fault;
	// the crash persists, so another poll retries it (with backoff
	// charged to the virtual clock).
	var ev *core.SupervisorEvent
	var lastErr error
	for try := 0; try < 10 && ev == nil; try++ {
		evs := c.sup.Poll()
		for i := range evs {
			if evs[i].Group != oldLineage {
				continue
			}
			if evs[i].GaveUp {
				return fmt.Errorf("bench: chaos seed %d: supervisor gave up on group %d", c.cfg.Seed, oldLineage)
			}
			if evs[i].Err != nil {
				lastErr = evs[i].Err
			}
			if evs[i].NewGroup != 0 {
				ev = &evs[i]
			}
		}
	}
	if ev == nil {
		return fmt.Errorf("bench: chaos seed %d: supervisor did not restore group %d: %v", c.cfg.Seed, oldLineage, lastErr)
	}
	ng, err := c.srcO.Group(ev.NewGroup)
	if err != nil {
		return fmt.Errorf("bench: chaos seed %d: restored group: %w", c.cfg.Seed, err)
	}
	// Released output must survive the restore. Normally the restored
	// epoch sits at or above the release watermark; if a store read
	// fault made the self-healing restore quarantine an epoch and fall
	// back below it, the released suffix is still not lost — releases
	// gate on replication, so the replica must hold it contiguously.
	if ng.Epoch() < c.maxReleased+1 && c.recv.ContiguousEpoch(oldLineage) < c.maxReleased+1 {
		return fmt.Errorf("bench: chaos seed %d: restore at epoch %d loses released output (watermark %d, replica floor %d)",
			c.cfg.Seed, ng.Epoch(), c.maxReleased, c.recv.ContiguousEpoch(oldLineage))
	}
	if err := c.verifyState(c.srcK, ng, ng.Epoch(), "supervisor restore"); err != nil {
		return err
	}
	// The restarted primary re-claims its role for the new lineage.
	if err := c.srcStore.Store().SetPrimary(ng.ID, ng.Generation()); err != nil {
		return fmt.Errorf("bench: chaos seed %d: reclaiming primary: %w", c.cfg.Seed, err)
	}
	if err := syncStore(c.srcStore.Store()); err != nil {
		return fmt.Errorf("bench: chaos seed %d: persisting primary claim: %w", c.cfg.Seed, err)
	}
	c.g = ng
	c.rep.Restores++
	c.durableAt[fmt.Sprintf("src/%d", ng.ID)] = ng.Durable()
	return c.resetLink()
}

// epoch runs one workload slice and checkpoints it, recording the
// counter value the epoch captured. Under space pressure admission
// control may shed the barrier (no epoch minted, no state captured);
// the workload keeps running and the next barrier coalesces the slices,
// so the harness retries until one is admitted — shedding bounds
// checkpoint frequency, never progress.
func (c *chaosRun) epoch() (uint64, error) {
	for attempt := 0; attempt < 16; attempt++ {
		if _, err := c.srcK.Run(c.cfg.StepsPerEpoch); err != nil {
			return 0, err
		}
		counter, err := c.readCounter()
		if err != nil {
			return 0, err
		}
		bd, err := c.srcO.Checkpoint(c.g, core.CheckpointOpts{})
		if err != nil {
			return 0, err
		}
		if bd.Shed {
			continue
		}
		ep := c.g.Epoch()
		c.counterAt[ep] = counter
		return ep, nil
	}
	return 0, fmt.Errorf("bench: chaos seed %d: admission control starved the checkpoint barrier", c.cfg.Seed)
}

// ChaosRun executes one full chaos schedule: steady state with
// composed storage/link faults, crashes, and a transient partition;
// then a permanent partition with divergent epochs; a replica
// promotion on the standby machine; a run on the promoted primary; and
// finally the stale primary's return, fencing, and demotion.
func ChaosRun(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	c := &chaosRun{
		cfg:       cfg,
		rep:       &ChaosReport{Seed: cfg.Seed},
		counterAt: make(map[uint64]uint64),
		durableAt: make(map[string]uint64),
		serveDone: make(chan error, 1),
	}

	// Source machine: faulty primary store + replica link.
	c.srcClock = storage.NewClock()
	c.srcK = kernel.NewWith(c.srcClock, vm.NewPhysMem(0))
	c.srcO = core.NewOrchestrator(c.srcK)
	c.sup = core.NewSupervisor(c.srcO, core.SupervisorConfig{MaxRestarts: 64})
	params := storage.ParamsOptaneNVMe
	if cfg.StoreCapacityEpochs > 0 {
		first, perEpoch, err := chaosFootprint(cfg.Seed, cfg.StepsPerEpoch)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: sizing probe: %w", cfg.Seed, err)
		}
		params.Capacity = first + perEpoch*int64(cfg.StoreCapacityEpochs)
	}
	c.fd = storage.NewFaultDevice(storage.NewMemDevice(params, c.srcClock), c.srcClock,
		storage.FaultConfig{Seed: cfg.Seed, WriteErr: cfg.StoreWriteErr, ReadErr: cfg.StoreReadErr})
	c.srcStore = core.NewStoreBackend(objstore.Create(c.fd, c.srcClock), c.srcK.Mem, c.srcClock)
	if cfg.StoreCapacityEpochs > 0 {
		rec := core.NewReclaimer(c.srcO, c.srcStore, core.RetentionPolicy{KeepLast: cfg.KeepLast}, core.Watermarks{})
		rec.Audit = (*objstore.Store).AuditReachability
		c.srcStore.SetReclaimer(rec)
	}

	// Standby machine: the replica receiver, promoted later.
	c.dstClock = storage.NewClock()
	c.dstK = kernel.NewWith(c.dstClock, vm.NewPhysMem(0))
	c.dstO = core.NewOrchestrator(c.dstK)
	c.recv = netback.NewReceiver(c.dstK.Mem, c.dstClock)

	c.link = netback.NewFaultLink(netback.LinkFaultConfig{
		Seed:    cfg.Seed,
		Drop:    cfg.LinkDrop,
		Dup:     cfg.LinkDup,
		Reorder: cfg.LinkReorder,
		Corrupt: cfg.LinkCorrupt,
	}, c.srcClock)
	c.endA, c.endB = c.link.A(), c.link.B()
	c.rb = netback.NewReplicaBackend(c.srcClock)

	// Workload: the u64 counter plus a patterned working set.
	p, err := c.srcK.Spawn(0, "chaos-app")
	if err != nil {
		return nil, err
	}
	p.SetProgram(&chaosCounter{addr: p.HeapBase()})
	for pg := 1; pg <= chaosPages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), recoveryPattern(pg, cfg.Seed)); err != nil {
			return nil, err
		}
	}
	g, err := c.srcO.Persist("chaos-app", p)
	if err != nil {
		return nil, err
	}
	c.g = g
	c.srcO.Attach(g, c.srcStore)
	c.srcO.Attach(g, c.rb)
	if err := c.srcStore.Store().SetPrimary(g.ID, g.Generation()); err != nil {
		return nil, err
	}
	if err := syncStore(c.srcStore.Store()); err != nil {
		return nil, err
	}
	c.sup.Watch(g)
	if err := c.resetLink(); err != nil {
		return nil, err
	}

	// Phase 1 — steady state under composed faults.
	partActive := false
	t0 := c.srcClock.Now()
	for i := 1; i <= cfg.Checkpoints; i++ {
		if cfg.PartitionAt > 0 && i == cfg.PartitionAt {
			c.link.PartitionBoth()
			partActive = true
		}
		if _, err := c.epoch(); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: checkpoint %d: %w", cfg.Seed, i, err)
		}
		if err := c.syncDurable(); err != nil {
			return nil, err
		}
		if !partActive {
			// Keep the replica converging between events so the durable
			// and replication frontiers both advance through the run.
			if hi, ok := c.replicaHealth(); ok && (hi.State != core.BackendHealthy || hi.Pending > 0) {
				if err := c.heal(); err != nil {
					return nil, err
				}
			}
		}
		if err := c.invariants(fmt.Sprintf("steady checkpoint %d", i)); err != nil {
			return nil, err
		}
		if partActive && i == cfg.PartitionAt+cfg.PartitionLen {
			// Heal the transient partition and measure catch-up: the
			// missed epochs drain and the replica floor rejoins durable.
			h0 := c.srcClock.Now()
			partActive = false
			if err := c.heal(); err != nil {
				return nil, err
			}
			if got, want := c.recv.ContiguousEpoch(c.g.ID), c.g.Durable(); got != want {
				return nil, fmt.Errorf("bench: chaos seed %d: after heal replica floor %d != durable %d", cfg.Seed, got, want)
			}
			c.rep.CatchUp = c.srcClock.Now() - h0
			c.rep.Heals++
		}
		if !partActive && cfg.CrashEvery > 0 && i%cfg.CrashEvery == 0 {
			if err := c.crash(); err != nil {
				return nil, err
			}
		}
	}
	c.rep.Checkpoints = cfg.Checkpoints
	c.rep.PerCheckpoint = (c.srcClock.Now() - t0) / time.Duration(cfg.Checkpoints)

	// Quiesce before the disaster so the replica floor equals the
	// durable line — the promotion must lose exactly the divergent
	// suffix, nothing else. A crash on the final steady-state
	// checkpoint leaves a fresh lineage whose first checkpoint has not
	// happened yet (empty replica chain), so mint one stabilization
	// epoch on the current lineage first.
	if _, err := c.epoch(); err != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: stabilization checkpoint: %w", cfg.Seed, err)
	}
	if err := c.syncDurable(); err != nil {
		return nil, err
	}
	c.rep.Checkpoints++
	if err := c.heal(); err != nil {
		return nil, err
	}
	lineage := c.g.ID
	preFloor := c.g.Durable()
	if got := c.recv.ContiguousEpoch(lineage); got != preFloor {
		return nil, fmt.Errorf("bench: chaos seed %d: pre-disaster floor %d != durable %d", cfg.Seed, got, preFloor)
	}

	// Phase 2 — the permanent partition: the primary keeps running,
	// minting epochs only its own store ever sees. Releases must stop
	// at the replication frontier.
	c.link.PartitionBoth()
	for j := 1; j <= cfg.DivergentEpochs; j++ {
		ep, err := c.epoch()
		if err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: divergent checkpoint %d: %w", cfg.Seed, j, err)
		}
		if err := c.syncDurable(); err != nil {
			return nil, err
		}
		if c.srcO.Released(c.g.ID, ep-1) {
			return nil, fmt.Errorf("bench: chaos seed %d: output of divergent epoch %d released past the partition", cfg.Seed, ep-1)
		}
		if err := c.invariants(fmt.Sprintf("divergent checkpoint %d", j)); err != nil {
			return nil, err
		}
		c.rep.Checkpoints++
	}

	// Phase 3 — the primary is declared permanently dead; the standby
	// promotes the replica over a fresh store.
	c.dstStore = core.NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, c.dstClock), c.dstClock), c.dstK.Mem, c.dstClock)
	prep, err := c.dstO.Promote(c.recv, lineage, c.dstStore, core.RestoreOpts{})
	if err != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: promotion: %w", cfg.Seed, err)
	}
	if prep.Floor != preFloor {
		return nil, fmt.Errorf("bench: chaos seed %d: promotion floor %d, want %d", cfg.Seed, prep.Floor, preFloor)
	}
	if prep.Floor < c.maxReleased+1 {
		return nil, fmt.Errorf("bench: chaos seed %d: promotion floor %d loses released output (watermark %d)",
			cfg.Seed, prep.Floor, c.maxReleased)
	}
	pg := prep.Group
	if err := c.verifyState(c.dstK, pg, prep.Floor, "promotion"); err != nil {
		return nil, err
	}
	// The promoted group continues as a fresh lineage on dst: claim the
	// primary role for it too.
	if err := c.dstStore.Store().SetPrimary(pg.ID, prep.Gen); err != nil {
		return nil, err
	}
	if err := c.dstStore.Store().Sync(); err != nil {
		return nil, err
	}
	if err := c.checkPrimaries(lineage, "after promotion"); err != nil {
		return nil, err
	}
	c.rep.PromoteGen = prep.Gen
	c.rep.Floor = prep.Floor
	c.rep.Backfilled = prep.Backfilled
	c.rep.PromoteTTR = prep.TTR

	// Phase 3b — life goes on, on the promoted primary.
	dstKey := fmt.Sprintf("dst/%d", pg.ID)
	for j := 1; j <= cfg.PostEpochs; j++ {
		if _, err := c.dstK.Run(cfg.StepsPerEpoch); err != nil {
			return nil, err
		}
		np, err := c.dstK.Process(pg.PIDs()[0])
		if err != nil {
			return nil, err
		}
		var b [8]byte
		if err := np.ReadMem(np.HeapBase(), b[:]); err != nil {
			return nil, err
		}
		counter := binary.LittleEndian.Uint64(b[:])
		if _, err := c.dstO.Checkpoint(pg, core.CheckpointOpts{}); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: promoted checkpoint %d: %w", cfg.Seed, j, err)
		}
		if err := c.dstO.Sync(pg); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: promoted sync %d: %w", cfg.Seed, j, err)
		}
		c.counterAt[pg.Epoch()] = counter
		d := pg.Durable()
		if prev := c.durableAt[dstKey]; d < prev {
			return nil, fmt.Errorf("bench: chaos seed %d: promoted durable regressed %d -> %d", cfg.Seed, prev, d)
		}
		c.durableAt[dstKey] = d
		for c.dstO.Released(pg.ID, c.maxReleased+1) {
			c.maxReleased++
		}
		if err := c.checkPrimaries(lineage, "promoted epoch"); err != nil {
			return nil, err
		}
		c.rep.Checkpoints++
	}

	// Phase 4 — the stale primary comes back. Its next flush over the
	// healed link is rejected by the replica's fence, which marks the
	// group fenced; the following checkpoint barrier refuses outright,
	// and demotion quarantines the divergent suffix durably.
	if err := c.resetLink(); err != nil {
		return nil, err
	}
	if _, err := c.epoch(); err != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: stale-return checkpoint: %w", cfg.Seed, err)
	}
	c.rep.Checkpoints++
	// The sync's store half succeeds (the stale store still accepts its
	// own generation); the replica half runs into the fence. The link
	// is still faulty, so a drop or corruption can eat the fence reply
	// itself (a connection loss, not a rejection) — reconnect and sync
	// again until the fence actually lands.
	var syncErr error
	for try := 0; try < 12; try++ {
		syncErr = c.srcO.Sync(c.g)
		if _, _, fenced := c.g.Fenced(); fenced {
			break
		}
		if err := c.resetLink(); err != nil {
			return nil, err
		}
	}
	fencedGen, _, fenced := c.g.Fenced()
	if !fenced {
		return nil, fmt.Errorf("bench: chaos seed %d: stale primary was not fenced on return: %v", cfg.Seed, syncErr)
	}
	if syncErr != nil && !errors.Is(syncErr, core.ErrStaleGeneration) &&
		!errors.Is(syncErr, core.ErrBackendDown) && !errors.Is(syncErr, netback.ErrDisconnected) {
		return nil, fmt.Errorf("bench: chaos seed %d: stale-return sync: %w", cfg.Seed, syncErr)
	}
	if fencedGen != prep.Gen {
		return nil, fmt.Errorf("bench: chaos seed %d: fenced by generation %d, want %d", cfg.Seed, fencedGen, prep.Gen)
	}
	c.rep.StaleRejected++ // the catch-up flush the fence bounced
	if _, err := c.srcK.Run(cfg.StepsPerEpoch); err != nil {
		return nil, err
	}
	if _, err := c.srcO.Checkpoint(c.g, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		return nil, fmt.Errorf("bench: chaos seed %d: fenced checkpoint error = %v, want ErrStaleGeneration", cfg.Seed, err)
	}
	c.rep.StaleRejected++ // the refused barrier
	// Demotion persists the adopted fence; a retried round draws fresh
	// fault rolls if the persist itself was injected.
	quarantinedSet := make(map[uint64]bool)
	var demoteErr error
	for try := 0; try < 5; try++ {
		q, err := c.srcO.DemoteStale(c.g)
		for _, ep := range q {
			quarantinedSet[ep] = true
		}
		demoteErr = err
		if err == nil {
			break
		}
	}
	if demoteErr != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: demoting stale primary: %w", cfg.Seed, demoteErr)
	}
	c.rep.Quarantined = len(quarantinedSet)
	if c.rep.Quarantined < cfg.DivergentEpochs {
		return nil, fmt.Errorf("bench: chaos seed %d: %d epochs quarantined, want >= %d divergent",
			cfg.Seed, c.rep.Quarantined, cfg.DivergentEpochs)
	}
	if got := c.srcStore.Store().FenceGen(lineage); got != prep.Gen {
		return nil, fmt.Errorf("bench: chaos seed %d: demoted store fence %d, want %d", cfg.Seed, got, prep.Gen)
	}
	if _, primary := c.srcStore.Store().PrimaryGen(lineage); primary {
		return nil, fmt.Errorf("bench: chaos seed %d: demoted store still claims primary for lineage %d", cfg.Seed, lineage)
	}
	if err := c.checkPrimaries(lineage, "after demotion"); err != nil {
		return nil, err
	}

	// Final bit-identity check on the promoted line.
	if err := c.verifyState(c.dstK, pg, pg.Epoch(), "final"); err != nil {
		return nil, err
	}

	c.rep.Partitions = c.rb.Partitions()
	c.rep.LinkDropped = c.link.DroppedCount()
	c.rep.LinkInjected = c.link.InjectedCount()
	c.rep.StoreInjected = c.fd.InjectedCount()
	c.rep.Released = c.maxReleased
	if rec := c.srcStore.Reclaimer(); rec != nil {
		_, c.rep.StoreCapacity, _ = rec.Usage()
		st := rec.Stats()
		c.rep.EpochsReclaimed = st.EpochsReclaimed
		c.rep.EmergencyScans = st.EmergencyScans
		if st.LastAuditErr != "" {
			return nil, fmt.Errorf("bench: chaos seed %d: reachability audit failed during reclamation: %s",
				cfg.Seed, st.LastAuditErr)
		}
	}
	return c.rep, nil
}

// chaosFootprint measures the chaos workload's storage footprint on an
// unbounded, fault-free machine: the residency after the first durable
// epoch (superblock + full image) and the steady-state growth per
// incremental epoch. ChaosRun uses it to size a bounded device in
// epochs instead of guessing bytes.
func chaosFootprint(seed int64, steps int) (first, perEpoch int64, err error) {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	sb := core.NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock), k.Mem, clock)

	p, err := k.Spawn(0, "chaos-probe")
	if err != nil {
		return 0, 0, err
	}
	p.SetProgram(&chaosCounter{addr: p.HeapBase()})
	for pg := 1; pg <= chaosPages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), recoveryPattern(pg, seed)); err != nil {
			return 0, 0, err
		}
	}
	g, err := o.Persist("chaos-probe", p)
	if err != nil {
		return 0, 0, err
	}
	o.Attach(g, sb)

	const probeEpochs = 8
	for i := 1; i <= probeEpochs; i++ {
		if _, err := k.Run(steps); err != nil {
			return 0, 0, err
		}
		if _, err := o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			return 0, 0, err
		}
		if err := o.Sync(g); err != nil {
			return 0, 0, err
		}
		used, _, _ := sb.Store().Usage()
		if i == 1 {
			first = used
		} else if i == probeEpochs {
			perEpoch = (used - first) / int64(probeEpochs-1)
		}
	}
	if perEpoch <= 0 {
		perEpoch = 1
	}
	// Budget the control-plane reserve (superblock slots + two index
	// generations) on top of the measured data footprint: it is held
	// back from data allocations and, with sub-block metadata packing,
	// no longer disappears inside the per-epoch growth. The run's index
	// outgrows the probe's (longer history, catch-up pinning), so give
	// it double the probe's reserve.
	first += 2 * sb.Store().ControlOverhead()
	return first, perEpoch, nil
}
