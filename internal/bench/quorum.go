package bench

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
	"aurora/internal/vm"
)

// This file is the quorum-replication script: one primary machine
// fanning every epoch out to a local store plus N acknowledged replica
// links under a core.QuorumPolicy, with a seeded minority-kill /
// partition-heal schedule. It asserts the quorum availability story:
// durable and released frontiers keep advancing while any minority is
// dead, the killed replica catches back up to the contiguous floor,
// quorum promotion elects the best member and read-repairs the rest,
// and a restore from ANY member is bit-identical afterwards. It also
// measures the latency story — the W-th-fastest-ack durable latency
// against the all-backends baseline. The machines, workload, ledger and
// standing invariants are the shared harness's (harness.go).

// QuorumChaosConfig parameterizes one quorum chaos run. Zero values
// pick defaults; the kill/partition windows are seeded so different
// seeds hit different phases of the run.
type QuorumChaosConfig struct {
	Seed int64

	// Replicas is the replica-set size N (default 3).
	Replicas int
	// W is the write quorum over the group's non-ephemeral backends —
	// the local store plus the N links (default: majority of the
	// replicas, e.g. 2 for N=3).
	W int

	// Checkpoints and StepsPerEpoch shape the workload (defaults 60/2).
	Checkpoints   int
	StepsPerEpoch int

	// Per-frame link fault probabilities, applied to every link.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64

	// KillAt/KillLen script the minority kill: after checkpoint KillAt
	// replica 1 is killed (receiver state lost) and restarted KillLen
	// checkpoints later. -1 disables; 0 picks a seeded default.
	KillAt  int
	KillLen int
	// PartitionAt/PartitionLen script a transient partition of the last
	// replica. -1 disables; 0 picks a seeded default.
	PartitionAt  int
	PartitionLen int

	// SlowLinkLatency is extra one-way latency on the last replica's
	// link (default 500µs): the heterogeneous member whose slowness
	// quorum durability exists to hide.
	SlowLinkLatency time.Duration

	// SkipBaseline skips the paired all-backends fault-free run used
	// for the latency comparison (sweep mode).
	SkipBaseline bool
}

func (c QuorumChaosConfig) withDefaults() QuorumChaosConfig {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.W == 0 {
		c.W = c.Replicas/2 + 1
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 60
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	if c.SlowLinkLatency == 0 {
		c.SlowLinkLatency = 500 * time.Microsecond
	}
	rnd := c.Seed
	if rnd < 0 {
		rnd = -rnd
	}
	if c.KillAt == 0 && c.Replicas >= 3 {
		// Kill somewhere in the first half, long enough to open a real
		// gap; leave room to restart before the partition starts.
		c.KillAt = 2 + int(rnd*7919%int64(c.Checkpoints/4))
		if c.KillLen == 0 {
			c.KillLen = c.Checkpoints / 8
		}
	}
	if c.PartitionAt == 0 && c.Replicas >= 3 {
		c.PartitionAt = c.Checkpoints/2 + int(rnd*104729%int64(c.Checkpoints/8))
		if c.PartitionLen == 0 {
			c.PartitionLen = c.Checkpoints / 10
		}
	}
	if c.KillAt < 0 {
		c.KillAt = 0
	}
	if c.PartitionAt < 0 {
		c.PartitionAt = 0
	}
	return c
}

// QuorumChaosReport is the outcome of one quorum chaos run.
type QuorumChaosReport struct {
	Seed        int64
	Replicas, W int
	Checkpoints int

	Durable  uint64 // final durable epoch on the source line
	Released uint64 // released watermark at exit

	// MedianDurable is the median modeled flush (durable-ack) latency;
	// BaselineMedian is the same for the paired all-backends fault-free
	// run (0 when SkipBaseline).
	MedianDurable  time.Duration
	BaselineMedian time.Duration

	Kills, Heals  int
	Partitions    int64 // connection losses summed over all links
	LinkDropped   int64
	LinkInjected  int64
	CatchUpEpochs int64 // epochs the restarted replica linked while it caught up

	PagesSent     int64 // literal pages shipped (all links)
	PagesSkipped  int64 // pages elided as content-hash refs
	NeedResends   int64 // full resends forced by receiver need replies
	ReceiverNeeds int64 // need replies issued by receivers

	PromoteGen       uint64 // generation minted by the quorum promotion
	Floor            uint64 // promotion floor (== Durable)
	Elected          int    // elected member index
	Repaired         int    // epochs read-repaired onto lagging members
	RestoresVerified int    // bit-identical restores checked (mid-run + final)
}

// quorumRun carries the script state.
type quorumRun struct {
	*harness
	cfg QuorumChaosConfig
	rep *QuorumChaosReport

	src   *Node
	rs    *netback.ReplicaSet
	links []*Wire // one standalone Endpoint per replica-set member
	l     *line
}

// restoreFromMember restores the member's image at epoch on a scratch
// machine and verifies it bit-identical.
func (q *quorumRun) restoreFromMember(w *Wire, epoch uint64) error {
	img, err := w.Receiver().ImageAt(q.l.g.ID, epoch)
	if err != nil {
		return fmt.Errorf("member %s epoch %d: %w", w.name, epoch, err)
	}
	want, err := q.l.want(epoch)
	if err != nil {
		return err
	}
	if err := q.l.w.verifyImage(img, 0, want); err != nil {
		return fmt.Errorf("member %s: %w", w.name, err)
	}
	q.rep.RestoresVerified++
	return nil
}

// healed drives one replica link back to healthy and requires its
// contiguous floor to have rejoined the durable line.
func (q *quorumRun) healed(w *Wire) error {
	w.down = false
	if err := q.l.heal(w, w.name); err != nil {
		return err
	}
	if got, want := w.Receiver().ContiguousEpoch(q.l.g.ID), q.l.g.Durable(); got != want {
		return fmt.Errorf("replica %s floor %d != durable %d after heal", w.name, got, want)
	}
	q.rep.Heals++
	return q.check(q.phase + " healed " + w.name)
}

// medianFlush is the median background flush latency over the group's
// non-shed checkpoints.
func medianFlush(g *core.Group) time.Duration {
	var durs []time.Duration
	for _, bd := range g.Breakdowns() {
		if !bd.Shed && bd.FlushTime > 0 {
			durs = append(durs, bd.FlushTime)
		}
	}
	p50, _, _ := percentiles(durs)
	return p50
}

// QuorumChaosRun executes one quorum chaos schedule and, unless
// SkipBaseline, a paired fault-free all-backends baseline for the
// latency comparison.
func QuorumChaosRun(cfg QuorumChaosConfig) (*QuorumChaosReport, error) {
	cfg = cfg.withDefaults()
	rep, err := runQuorum(cfg, false)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipBaseline {
		base := cfg
		base.LinkDrop, base.LinkDup, base.LinkReorder, base.LinkCorrupt = 0, 0, 0, 0
		base.KillAt, base.PartitionAt = -1, -1
		baseRep, err := runQuorum(base.withDefaults(), true)
		if err != nil {
			return nil, fmt.Errorf("bench: quorum baseline: %w", err)
		}
		rep.BaselineMedian = baseRep.MedianDurable
	}
	return rep, nil
}

// runQuorum is the script behind QuorumChaosRun: baseline mode keeps
// the identical machine shape (same store, links, slow member) but
// leaves the group on legacy all-backends durability.
func runQuorum(cfg QuorumChaosConfig, baseline bool) (*QuorumChaosReport, error) {
	q := &quorumRun{
		harness: newHarness("quorum", cfg.Seed),
		cfg:     cfg,
		rep:     &QuorumChaosReport{Seed: cfg.Seed, Replicas: cfg.Replicas, W: cfg.W},
	}
	defer q.close()
	if err := q.script(baseline); err != nil {
		return nil, q.fail(err)
	}
	return q.rep, nil
}

func (q *quorumRun) script(baseline bool) error {
	cfg := q.cfg

	// Primary machine: fault-free local store + N replica links.
	tp := NewTopology(netback.LinkFaultConfig{
		Drop:    cfg.LinkDrop,
		Dup:     cfg.LinkDup,
		Reorder: cfg.LinkReorder,
		Corrupt: cfg.LinkCorrupt,
	})
	q.src = q.own(NewNode("quorum-src", cfg.Seed, 0, 0))
	q.stores = []*core.StoreNode{q.src.storeNode("")}
	q.rs = netback.NewReplicaSet(cfg.W)
	for i := 0; i < cfg.Replicas; i++ {
		w := tp.Endpoint(fmt.Sprintf("replica%d", i), cfg.Seed*1000003+int64(i)*7919, q.src)
		if i == cfg.Replicas-1 {
			w.Backend().SetLinkLatency(cfg.SlowLinkLatency)
		}
		q.rs.Add(w.name, w.Backend(), w.Receiver())
		q.links = append(q.links, w)
	}

	l, err := q.start(q.src, workload{pages: chaosPages, seed: cfg.Seed}, "quorum-app")
	if err != nil {
		return err
	}
	q.l = l
	if baseline {
		for _, sl := range q.rs.Links() {
			q.src.o.Attach(l.g, sl.RB)
		}
	} else {
		q.rs.AttachAll(q.src.o, l.g)
	}
	for _, w := range q.links {
		l.links = append(l.links, w.name)
		if err := w.reconnect(l.g.ID); err != nil {
			return err
		}
	}

	killIdx, partIdx := 1, cfg.Replicas-1
	var killed, partitioned *Wire
	if cfg.KillAt > 0 && killIdx < len(q.links) {
		killed = q.links[killIdx]
	}
	if cfg.PartitionAt > 0 && partIdx > 0 && partIdx < len(q.links) {
		partitioned = q.links[partIdx]
	}

	forceFull := false
	for i := 1; i <= cfg.Checkpoints; i++ {
		q.at("checkpoint %d", i)
		if killed != nil && i == cfg.KillAt {
			// Kill the replica: sever its link and lose its state (the
			// receiver is replaced by an empty one on restart).
			killed.Link().Partition()
			killed.down = true
			q.rep.Kills++
			if err := q.check(q.phase + " kill"); err != nil {
				return err
			}
		}
		if killed != nil && i == cfg.KillAt+cfg.KillLen {
			// Mid-outage: restores from the surviving quorum members
			// must be bit-identical.
			for _, w := range q.links {
				if w.down {
					continue
				}
				if floor := w.Receiver().ContiguousEpoch(l.g.ID); floor == l.g.Durable() {
					if err := q.restoreFromMember(w, floor); err != nil {
						return err
					}
				}
			}
			if !baseline && cfg.KillLen > 4 {
				// The dead member must be reported lagging the quorum.
				if err := q.rs.Lagging(l.g.ID, 4); !errors.Is(err, netback.ErrReplicaLagging) {
					return fmt.Errorf("Lagging = %v, want ErrReplicaLagging", err)
				}
			}
			// Restart: a fresh receiver (empty chains — the kill lost
			// everything), reconnect, and drain the catch-up queue.
			killed.pm = vm.NewPhysMem(0)
			killed.Restart(netback.NewReceiver(killed.pm, killed.clock))
			q.rs.Links()[killIdx].Recv = killed.Receiver()
			if err := q.healed(killed); err != nil {
				return err
			}
			q.rep.CatchUpEpochs = killed.Receiver().EpochsLinked(l.g.ID)
			// The restarted replica bootstraps restorability from the
			// next full checkpoint (the demotion doctrine).
			forceFull = true
		}
		if partitioned != nil && i == cfg.PartitionAt {
			partitioned.Link().Partition()
			partitioned.down = true
			if err := q.check(q.phase + " partition"); err != nil {
				return err
			}
		}
		if partitioned != nil && i == cfg.PartitionAt+cfg.PartitionLen {
			if err := q.healed(partitioned); err != nil {
				return err
			}
		}

		if _, err := l.barrier(cfg.StepsPerEpoch, core.CheckpointOpts{Full: forceFull}); err != nil {
			return err
		}
		forceFull = false
		synced := l.syncDurable()
		// Under probabilistic link faults a healthy-scheduled link can
		// drop its connection; keep those converging. Links inside a
		// scripted outage stay down. When every live link dropped on the
		// same epoch, the quorum was lost — no minority outage — and this
		// is what lets the sync reach W again.
		for _, w := range q.links {
			if !w.down && !l.healthy(w.name) {
				if err := l.heal(w, w.name); err != nil {
					return err
				}
			}
		}
		if synced != nil {
			if err := l.syncDurable(); err != nil {
				return err
			}
		}
		if err := q.check(q.phase); err != nil {
			return err
		}
		if !baseline {
			// The quorum availability claim: a dead or partitioned
			// minority never holds back the released watermark.
			if d := l.g.Durable(); d > 0 && l.released < d-1 {
				return fmt.Errorf("released watermark %d lags durable %d under a minority outage", l.released, d)
			}
		}
	}
	q.rep.Checkpoints = cfg.Checkpoints
	q.rep.Durable = l.g.Durable()
	q.rep.Released = l.released
	q.rep.MedianDurable = medianFlush(l.g)
	for _, w := range q.links {
		q.rep.Partitions += w.Backend().Partitions()
		q.rep.LinkDropped += w.Link().DroppedCount()
		q.rep.LinkInjected += w.Link().InjectedCount()
		sent, skipped, resends := w.Backend().DeltaStats()
		q.rep.PagesSent += sent
		q.rep.PagesSkipped += skipped
		q.rep.NeedResends += resends
		q.rep.ReceiverNeeds += w.Receiver().NeedsSent()
	}
	if baseline {
		return nil
	}

	// Disaster: the primary machine is declared permanently dead. A
	// quorum promotion on a standby elects the member with the highest
	// contiguous acked floor, fences every member, read-repairs the
	// laggards, and resumes execution — after which a restore from ANY
	// member must be bit-identical.
	q.at("promotion")
	lineage := l.g.ID
	dst := q.own(NewNode("quorum-dst", 0, 0, 0))
	q.stores = append(q.stores, dst.storeNode(""))
	prep, err := l.promote(dst, q.rs.Sources(), l.g.Durable())
	if err != nil {
		return err
	}
	q.rep.PromoteGen = prep.Gen
	q.rep.Floor = prep.Floor
	q.rep.Elected = prep.Elected
	q.rep.Repaired = prep.Repaired
	// The source line is still what the ledger follows (the promoted
	// group never runs here); the claims now span both stores.
	if err := q.check("after promotion"); err != nil {
		return err
	}
	// Every member — including the killed-and-repaired one — restores
	// the promoted floor bit-identically.
	for _, w := range q.links {
		if err := q.restoreFromMember(w, prep.Floor); err != nil {
			return err
		}
	}
	// And every member's fence now rejects the stale generation.
	for _, w := range q.links {
		if fg := w.Receiver().FenceGen(lineage); fg != prep.Gen {
			return fmt.Errorf("member %s fence %d, want %d", w.name, fg, prep.Gen)
		}
	}
	return nil
}

// QuorumPoint is one cell of the quorum sweep matrix.
type QuorumPoint struct {
	Replicas      int     `json:"replicas"`
	W             int     `json:"write_quorum"`
	Rate          float64 `json:"fault_rate"`
	Checkpoints   int     `json:"checkpoints"`
	Durable       uint64  `json:"durable_epoch"`
	MedianDurable Micros  `json:"durable_med_us"`
	CatchUpEpochs int64   `json:"catchup_epochs"`
	PagesSent     int64   `json:"pages_sent"`
	PagesSkipped  int64   `json:"pages_skipped"`
	LinkInjected  int64   `json:"faults_injected"`
}

// QuorumSweep runs the quorum matrix: replica count × link-fault rate,
// recording durable latency and catch-up volume. Faulty cells heal
// their links as they go; scripted kill/partition windows are only run
// on sets large enough to have a minority (N >= 3).
func QuorumSweep(ckpts int, replicaCounts []int, rates []float64, seed int64) ([]QuorumPoint, error) {
	var out []QuorumPoint
	for _, n := range replicaCounts {
		for _, rate := range rates {
			cfg := QuorumChaosConfig{
				Seed:          seed,
				Replicas:      n,
				W:             n/2 + 1,
				Checkpoints:   ckpts,
				LinkDrop:      rate,
				LinkDup:       rate,
				LinkReorder:   rate,
				LinkCorrupt:   rate / 2,
				SkipBaseline:  true,
				StepsPerEpoch: 2,
			}
			if n < 3 {
				cfg.KillAt, cfg.PartitionAt = -1, -1
			}
			rep, err := QuorumChaosRun(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: quorum sweep n=%d rate=%g: %w", n, rate, err)
			}
			out = append(out, QuorumPoint{
				Replicas:      n,
				W:             cfg.W,
				Rate:          rate,
				Checkpoints:   rep.Checkpoints,
				Durable:       rep.Durable,
				MedianDurable: Micros(rep.MedianDurable),
				CatchUpEpochs: rep.CatchUpEpochs,
				PagesSent:     rep.PagesSent,
				PagesSkipped:  rep.PagesSkipped,
				LinkInjected:  rep.LinkInjected,
			})
		}
	}
	return out, nil
}
