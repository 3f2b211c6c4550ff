package bench

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
	"aurora/internal/storage"
)

// This file is the whole-system chaos script: one seeded schedule
// composing storage faults (FaultDevice under the primary store), link
// faults (FaultLink under the replication channel), process crashes
// with supervisor restarts, a transient partition with heal and
// catch-up, and a full primary failure with replica promotion followed
// by the stale primary's return. After every event it re-runs the
// shared harness check (harness.go), and at every restore and
// promotion it verifies the state bit-identical to what was
// checkpointed at that epoch and that no released output was lost.

// chaosPages is the patterned working set carried through every crash,
// restore, and promotion (beyond the counter page).
const chaosPages = 16

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
	Seed          int64   `json:"-"`
	LinkFaultRate float64 `json:"link_fault_rate"` // the rate a ChaosSweep cell ran at
	Checkpoints   int     `json:"checkpoints"`     // checkpoints attempted across all phases

	Crashes  int `json:"crashes"`  // processes killed
	Restores int `json:"restores"` // supervisor restores (each verified bit-identical)
	Heals    int `json:"-"`        // transient partitions healed and caught up

	Partitions    int64 `json:"partitions"`     // connection losses observed by the replica backend
	LinkDropped   int64 `json:"link_dropped"`   // frames lost on the link (injected + partition)
	LinkInjected  int64 `json:"link_injected"`  // link faults injected by probability or script
	StoreInjected int64 `json:"store_injected"` // device faults injected on the primary store

	StaleRejected int `json:"stale_rejected"` // fencing rejections observed after the stale return
	Quarantined   int `json:"quarantined"`    // divergent epochs quarantined at demotion

	PromoteGen uint64 `json:"promote_gen"`    // generation minted by the promotion
	Floor      uint64 `json:"floor"`          // contiguous floor that became the durable line
	Backfilled int    `json:"backfilled"`     // epochs copied into the new primary store
	PromoteTTR Micros `json:"promote_ttr_us"` // virtual time for the promotion
	CatchUp    Micros `json:"catchup_us"`     // virtual time to drain catch-up after the heal

	PerCheckpoint Micros `json:"per_checkpoint_us"` // mean virtual time per steady-state checkpoint
	Released      uint64 `json:"released"`          // released watermark on the promoted line at exit

	StoreCapacity   int64 `json:"store_capacity"`   // primary device capacity in bytes (0 = unbounded)
	EpochsReclaimed int64 `json:"epochs_reclaimed"` // epochs retention GC merged forward on the primary
	EmergencyScans  int64 `json:"emergency_scans"`  // ENOSPC-triggered reclamations survived
}

// chaosRun carries the script state across phases.
type chaosRun struct {
	*harness
	cfg ChaosConfig
	rep *ChaosReport

	src, dst *Node // primary machine; standby machine, promoted later
	wire     *Wire // the replication wire between them
	l        *line // the workload, wherever it currently runs
}

// ChaosRun executes one full chaos schedule: steady state with
// composed storage/link faults, crashes, and a transient partition;
// then a permanent partition with divergent epochs; a replica
// promotion on the standby machine; a run on the promoted primary; and
// finally the stale primary's return, fencing, and demotion.
func ChaosRun(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	c := &chaosRun{harness: newHarness("chaos", cfg.Seed), cfg: cfg, rep: &ChaosReport{Seed: cfg.Seed}}
	defer c.close()
	if err := c.script(); err != nil {
		return nil, c.fail(err)
	}
	return c.rep, nil
}

// ChaosSweep runs the whole-system chaos schedule once per link fault
// rate: drops, duplicates and reorders at rate, corruption at half,
// against fixed moderate storage fault rates. The primary store is
// bounded to ~20 steady-state epochs — enough to hold the divergent
// suffix the permanent partition pins (epochs above the replica's
// catch-up floor are unreclaimable, and with sub-block metadata packing
// each pinned record also pins its pack block) — so the space
// scheduler (watermark reclamation under the replica's catch-up floor)
// is part of the standing fault mix.
func ChaosSweep(rates []float64, seed int64) ([]*ChaosReport, error) {
	var out []*ChaosReport
	for _, rate := range rates {
		rep, err := ChaosRun(ChaosConfig{
			Seed:                seed,
			Checkpoints:         24,
			StepsPerEpoch:       3,
			LinkDrop:            rate,
			LinkDup:             rate,
			LinkReorder:         rate,
			LinkCorrupt:         rate / 2,
			StoreWriteErr:       0.01,
			StoreReadErr:        0.005,
			CrashEvery:          8,
			PartitionAt:         10,
			PartitionLen:        3,
			DivergentEpochs:     4,
			PostEpochs:          6,
			StoreCapacityEpochs: 20,
		})
		if err != nil {
			return nil, err
		}
		rep.LinkFaultRate = rate
		out = append(out, rep)
	}
	return out, nil
}

// crash kills every member of the group with a nonzero exit and lets
// the supervisor restore it, then verifies the restored state
// bit-identical, re-claims the primary role for the fresh lineage, and
// re-handshakes the replica (whose chain for the new lineage starts
// with the automatic full checkpoint).
func (c *chaosRun) crash() error {
	l := c.l
	c.src.kill(l.g, 1)
	c.rep.Crashes++
	old := l.g.ID
	// A restore attempt can itself hit an injected store read fault;
	// the crash persists, so another poll retries it (with backoff
	// charged to the virtual clock).
	var ev *core.SupervisorEvent
	var lastErr error
	for try := 0; try < 10 && ev == nil; try++ {
		evs := c.src.sup.Poll()
		for i := range evs {
			if evs[i].Group != old {
				continue
			}
			if evs[i].GaveUp {
				return fmt.Errorf("supervisor gave up on group %d", old)
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
		return fmt.Errorf("supervisor did not restore group %d: %v", old, lastErr)
	}
	ng, err := c.src.o.Group(ev.NewGroup)
	if err != nil {
		return fmt.Errorf("restored group: %w", err)
	}
	// Released output must survive the restore. Normally the restored
	// epoch sits at or above the release watermark; if a store read
	// fault made the self-healing restore quarantine an epoch and fall
	// back below it, the released suffix is still not lost — releases
	// gate on replication, so the replica must hold it contiguously.
	if err := core.CheckReleasedCovered(old, l.released, ng.Epoch(), c.wire.Receiver().ContiguousEpoch(old)); err != nil {
		return err
	}
	if err := c.verify(c.src, ng); err != nil {
		return fmt.Errorf("supervisor restore: %w", err)
	}
	// The restarted primary re-claims its role for the new lineage.
	if err := claimPrimary(c.src, ng.ID, ng.Generation()); err != nil {
		return err
	}
	l.lineage = ng.ID
	c.moved(l, c.src.o, ng)
	c.rep.Restores++
	return c.wire.reconnect(ng.ID)
}

// verify checks a restored or promoted group bit-for-bit against what
// was checkpointed at its epoch.
func (c *chaosRun) verify(n *Node, g *core.Group) error {
	want, err := c.l.want(g.Epoch())
	if err != nil {
		return err
	}
	return c.l.w.verifyLive(n.k, g, want)
}

func (c *chaosRun) script() error {
	cfg := c.cfg
	// On a bounded device an epoch has to cost space: the counter page
	// goes whole.
	w := workload{pages: chaosPages, seed: cfg.Seed, whole: cfg.StoreCapacityEpochs > 0}

	// Source machine: faulty primary store (bounded, with the space
	// scheduler composed in, when the config asks) + replica wire to the
	// standby machine, whose receiver is promoted later.
	var capacity int64
	if cfg.StoreCapacityEpochs > 0 {
		var err error
		if capacity, err = deviceFor(w, cfg.StepsPerEpoch, cfg.StoreCapacityEpochs); err != nil {
			return err
		}
	}
	c.src = c.own(newNode("src", storage.FaultConfig{Seed: cfg.Seed, WriteErr: cfg.StoreWriteErr, ReadErr: cfg.StoreReadErr}, capacity))
	c.src.sup = core.NewSupervisor(c.src.o, core.SupervisorConfig{MaxRestarts: 64})
	if capacity > 0 {
		c.src.bound(cfg.KeepLast, core.Watermarks{})
	}
	c.dst = c.own(NewNode("dst", 0, 0, 0))
	c.wire = NewTopology(netback.LinkFaultConfig{
		Drop:    cfg.LinkDrop,
		Dup:     cfg.LinkDup,
		Reorder: cfg.LinkReorder,
		Corrupt: cfg.LinkCorrupt,
	}).Wire(cfg.Seed, c.src, c.dst)
	c.stores = []*core.StoreNode{c.src.storeNode(""), c.dst.storeNode("")}

	l, err := c.start(c.src, w, "chaos-app")
	if err != nil {
		return err
	}
	c.l = l
	l.links = []string{c.wire.Backend().Name()}
	c.src.o.Attach(l.g, c.wire.Backend())
	c.src.sup.Watch(l.g)
	if err := c.wire.reconnect(l.g.ID); err != nil {
		return err
	}

	// Phase 1 — steady state under composed faults.
	partActive := false
	t0 := c.src.clock.Now()
	for i := 1; i <= cfg.Checkpoints; i++ {
		c.at("steady checkpoint %d", i)
		if cfg.PartitionAt > 0 && i == cfg.PartitionAt {
			c.wire.Link().Partition()
			partActive = true
		}
		if err := l.epoch(cfg.StepsPerEpoch); err != nil {
			return err
		}
		if !partActive && !l.healthy(l.links...) {
			// Keep the replica converging between events so the durable
			// and replication frontiers both advance through the run.
			if err := l.heal(c.wire); err != nil {
				return err
			}
		}
		if err := c.check(c.phase); err != nil {
			return err
		}
		if partActive && i == cfg.PartitionAt+cfg.PartitionLen {
			// Heal the transient partition and measure catch-up: the
			// missed epochs drain and the replica floor rejoins durable.
			h0 := c.src.clock.Now()
			partActive = false
			if err := l.heal(c.wire); err != nil {
				return err
			}
			if got, want := c.wire.Receiver().ContiguousEpoch(l.g.ID), l.g.Durable(); got != want {
				return fmt.Errorf("after heal replica floor %d != durable %d", got, want)
			}
			c.rep.CatchUp = Micros(c.src.clock.Now() - h0)
			c.rep.Heals++
			if err := c.check(c.phase + " healed"); err != nil {
				return err
			}
		}
		if !partActive && cfg.CrashEvery > 0 && i%cfg.CrashEvery == 0 {
			if err := c.crash(); err != nil {
				return err
			}
			if err := c.check(c.phase + " crash"); err != nil {
				return err
			}
		}
	}
	c.rep.Checkpoints = cfg.Checkpoints
	c.rep.PerCheckpoint = Micros((c.src.clock.Now() - t0) / time.Duration(cfg.Checkpoints))

	// Quiesce before the disaster so the replica floor equals the
	// durable line — the promotion must lose exactly the divergent
	// suffix, nothing else. A crash on the final steady-state
	// checkpoint leaves a fresh lineage whose first checkpoint has not
	// happened yet (empty replica chain), so mint one stabilization
	// epoch on the current lineage first.
	c.at("stabilization checkpoint")
	if err := l.epoch(cfg.StepsPerEpoch); err != nil {
		return err
	}
	c.rep.Checkpoints++
	if err := l.heal(c.wire); err != nil {
		return err
	}
	lineage := l.g.ID
	preFloor := l.g.Durable()
	if got := c.wire.Receiver().ContiguousEpoch(lineage); got != preFloor {
		return fmt.Errorf("pre-disaster floor %d != durable %d", got, preFloor)
	}

	// Phase 2 — the permanent partition: the primary keeps running,
	// minting epochs only its own store ever sees. Releases must stop
	// at the replication frontier.
	c.wire.Link().Partition()
	for j := 1; j <= cfg.DivergentEpochs; j++ {
		c.at("divergent checkpoint %d", j)
		if err := l.epoch(cfg.StepsPerEpoch); err != nil {
			return err
		}
		if ep := l.g.Epoch(); c.src.o.Released(l.g.ID, ep-1) {
			return fmt.Errorf("output of divergent epoch %d released past the partition", ep-1)
		}
		if err := c.check(c.phase); err != nil {
			return err
		}
		c.rep.Checkpoints++
	}

	// Phase 3 — the primary is declared permanently dead; the standby
	// promotes the replica over its own store.
	c.at("promotion")
	prep, err := l.promote(c.dst, []core.ReplicaSource{c.wire.Receiver()}, preFloor)
	if err != nil {
		return err
	}
	pg := prep.Group
	// The promoted group continues as a fresh lineage on dst: claim the
	// primary role for it too.
	if err := claimPrimary(c.dst, pg.ID, prep.Gen); err != nil {
		return err
	}
	// From here the harness follows the promoted line (checked against
	// the old lineage's claims); the stale line is driven by hand below.
	stale := l
	l = &line{w: w, lineage: lineage, counterAt: stale.counterAt, released: stale.released}
	c.l, c.lines = l, []*line{l}
	c.moved(l, c.dst.o, pg)
	if err := c.check("after promotion"); err != nil {
		return err
	}
	c.rep.PromoteGen = prep.Gen
	c.rep.Floor = prep.Floor
	c.rep.Backfilled = prep.Backfilled
	c.rep.PromoteTTR = Micros(prep.TTR)

	// Phase 3b — life goes on, on the promoted primary.
	for j := 1; j <= cfg.PostEpochs; j++ {
		c.at("promoted checkpoint %d", j)
		if err := l.epoch(cfg.StepsPerEpoch); err != nil {
			return err
		}
		if err := c.check(c.phase); err != nil {
			return err
		}
		c.rep.Checkpoints++
	}

	// Phase 4 — the stale primary comes back. Its next flush over the
	// healed link is rejected by the replica's fence, which marks the
	// group fenced; the following checkpoint barrier refuses outright,
	// and demotion quarantines the divergent suffix durably.
	c.at("stale return")
	if err := c.wire.reconnect(stale.g.ID); err != nil {
		return err
	}
	if _, err := stale.barrier(cfg.StepsPerEpoch, core.CheckpointOpts{}); err != nil {
		return err
	}
	c.rep.Checkpoints++
	// The sync's store half succeeds (the stale store still accepts its
	// own generation); the replica half runs into the fence. The link
	// is still faulty, so a drop or corruption can eat the fence reply
	// itself (a connection loss, not a rejection) — reconnect and sync
	// again until the fence actually lands.
	var syncErr error
	for try := 0; try < 12; try++ {
		syncErr = c.src.o.Sync(stale.g)
		if _, _, fenced := stale.g.Fenced(); fenced {
			break
		}
		if err := c.wire.reconnect(stale.g.ID); err != nil {
			return err
		}
	}
	fencedGen, _, fenced := stale.g.Fenced()
	if !fenced {
		return fmt.Errorf("stale primary was not fenced on return: %v", syncErr)
	}
	if syncErr != nil && !errors.Is(syncErr, core.ErrStaleGeneration) &&
		!errors.Is(syncErr, core.ErrBackendDown) && !errors.Is(syncErr, netback.ErrDisconnected) {
		return fmt.Errorf("stale-return sync: %w", syncErr)
	}
	if fencedGen != prep.Gen {
		return fmt.Errorf("fenced by generation %d, want %d", fencedGen, prep.Gen)
	}
	c.rep.StaleRejected++ // the catch-up flush the fence bounced
	if _, err := c.src.k.Run(cfg.StepsPerEpoch); err != nil {
		return err
	}
	if _, err := c.src.o.Checkpoint(stale.g, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		return fmt.Errorf("fenced checkpoint error = %v, want ErrStaleGeneration", err)
	}
	c.rep.StaleRejected++ // the refused barrier
	// Demotion persists the adopted fence; a retried round draws fresh
	// fault rolls if the persist itself was injected.
	quarantinedSet := make(map[uint64]bool)
	var demoteErr error
	for try := 0; try < 5; try++ {
		q, err := c.src.o.DemoteStale(stale.g)
		for _, ep := range q {
			quarantinedSet[ep] = true
		}
		demoteErr = err
		if err == nil {
			break
		}
	}
	if demoteErr != nil {
		return fmt.Errorf("demoting stale primary: %w", demoteErr)
	}
	c.rep.Quarantined = len(quarantinedSet)
	if c.rep.Quarantined < cfg.DivergentEpochs {
		return fmt.Errorf("%d epochs quarantined, want >= %d divergent", c.rep.Quarantined, cfg.DivergentEpochs)
	}
	if got := c.src.sb.Store().FenceGen(lineage); got != prep.Gen {
		return fmt.Errorf("demoted store fence %d, want %d", got, prep.Gen)
	}
	if _, primary := c.src.sb.Store().PrimaryGen(lineage); primary {
		return fmt.Errorf("demoted store still claims primary for lineage %d", lineage)
	}
	if err := c.check("after demotion"); err != nil {
		return err
	}

	// Final bit-identity check on the promoted line.
	if err := c.verify(c.dst, pg); err != nil {
		return err
	}

	c.rep.Partitions = c.wire.Backend().Partitions()
	c.rep.LinkDropped = c.wire.Link().DroppedCount()
	c.rep.LinkInjected = c.wire.Link().InjectedCount()
	c.rep.StoreInjected = c.src.fd.InjectedCount()
	c.rep.Released = l.released
	if rec := c.src.sb.Reclaimer(); rec != nil {
		_, c.rep.StoreCapacity, _ = rec.Usage()
		c.rep.EpochsReclaimed = rec.Stats().EpochsReclaimed
		c.rep.EmergencyScans = rec.Stats().EmergencyScans
	}
	return c.src.auditErr()
}
