package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file is the quorum-replication harness: one primary machine
// fanning every epoch out to a local store plus N acknowledged replica
// links under a core.QuorumPolicy, with a seeded minority-kill /
// partition-heal schedule. It asserts the quorum availability story:
// durable and released frontiers keep advancing while any minority is
// dead, the killed replica catches back up to the contiguous floor,
// quorum promotion elects the best member and read-repairs the rest,
// and a restore from ANY member is bit-identical afterwards. It also
// measures the latency story — the W-th-fastest-ack durable latency
// against the all-backends baseline.

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
	CatchUpEpochs int64 // epochs replayed to the restarted replica

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

// quorumLink is one replica link of the harness (the shared topology
// Wire built as a standalone Endpoint: its fault link, the backend on
// the primary side, and the receiver standing in for the replica
// machine).
type quorumLink = Wire

// quorumRun carries the harness state.
type quorumRun struct {
	cfg      QuorumChaosConfig
	rep      *QuorumChaosReport
	baseline bool

	srcClock *storage.Clock
	srcK     *kernel.Kernel
	srcO     *core.Orchestrator
	srcStore *core.StoreBackend

	rs    *netback.ReplicaSet
	links []*quorumLink

	g           *core.Group
	counterAt   map[uint64]uint64
	lastDurable uint64
	maxReleased uint64
	forceFull   bool
}

func (q *quorumRun) startServe(l *quorumLink) { l.startServe() }

// resetLink re-establishes one replica link (the shared topology
// Wire's dance: poison the serve loop, reap, drain, heal,
// re-handshake).
func (q *quorumRun) resetLink(l *quorumLink) error {
	if err := l.reset(q.g.ID); err != nil {
		return fmt.Errorf("bench: quorum seed %d: %w", q.cfg.Seed, err)
	}
	return nil
}

func (q *quorumRun) linkHealth(name string) (core.BackendHealthInfo, bool) {
	for _, hi := range q.g.Health() {
		if hi.Name == name {
			return hi, true
		}
	}
	return core.BackendHealthInfo{}, false
}

// healLink drives one link back to healthy with its catch-up queue
// drained; other links in scripted outages keep failing, which is
// fine — Resync probes them and moves on.
func (q *quorumRun) healLink(l *quorumLink) error {
	var last error
	for round := 0; round < 12; round++ {
		hi, ok := q.linkHealth(l.name)
		if ok && hi.State == core.BackendHealthy && hi.Pending == 0 {
			return nil
		}
		if err := q.resetLink(l); err != nil {
			return err
		}
		_ = q.srcO.Resync(q.g)
		last = q.srcO.Sync(q.g)
	}
	return fmt.Errorf("bench: quorum seed %d: link %s did not heal: %w", q.cfg.Seed, l.name, last)
}

// syncDurable advances the durable frontier to the barrier epoch,
// ignoring the expected failures of links in scripted outages.
func (q *quorumRun) syncDurable() error {
	var last error
	for round := 0; round < 12; round++ {
		last = q.srcO.Sync(q.g)
		if q.g.Durable() == q.g.Epoch() {
			return nil
		}
	}
	return fmt.Errorf("bench: quorum seed %d: durable stuck at %d (barrier %d): %w",
		q.cfg.Seed, q.g.Durable(), q.g.Epoch(), last)
}

func (q *quorumRun) readCounter() (uint64, error) {
	p, err := q.srcK.Process(q.g.PIDs()[0])
	if err != nil {
		return 0, err
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// epoch runs one workload slice and checkpoints it.
func (q *quorumRun) epoch() (uint64, error) {
	if _, err := q.srcK.Run(q.cfg.StepsPerEpoch); err != nil {
		return 0, err
	}
	counter, err := q.readCounter()
	if err != nil {
		return 0, err
	}
	opts := core.CheckpointOpts{Full: q.forceFull}
	q.forceFull = false
	bd, err := q.srcO.Checkpoint(q.g, opts)
	if err != nil {
		return 0, err
	}
	if bd.Shed {
		return 0, fmt.Errorf("bench: quorum seed %d: barrier shed with no admission control configured", q.cfg.Seed)
	}
	ep := q.g.Epoch()
	q.counterAt[ep] = counter
	return ep, nil
}

// invariants checks durable monotonicity, the released watermark, the
// degraded-not-down cap on partitioned links, and the
// exactly-one-primary fencing invariant.
func (q *quorumRun) invariants(where string, dstStore *core.StoreBackend) error {
	d := q.g.Durable()
	if d < q.lastDurable {
		return fmt.Errorf("bench: quorum %s: durable regressed %d -> %d", where, q.lastDurable, d)
	}
	q.lastDurable = d
	for q.srcO.Released(q.g.ID, q.maxReleased+1) {
		q.maxReleased++
	}
	for _, l := range q.links {
		if hi, ok := q.linkHealth(l.name); ok && hi.State == core.BackendDown {
			return fmt.Errorf("bench: quorum %s: link %s marked down (must cap at degraded)", where, l.name)
		}
	}
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
		if gen, primary := sb.Store().PrimaryGen(q.g.ID); primary {
			claims = append(claims, claim{who, gen})
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	add("src", q.srcStore)
	add("dst", dstStore)
	n := 0
	for _, cl := range claims {
		if cl.gen == maxGen {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("bench: quorum %s: %d stores claim primary at max generation %d (want exactly 1: %v)",
			where, n, maxGen, claims)
	}
	return nil
}

// verifyCounterState checks a group restored on k bit-for-bit against
// the counter and pattern captured at epoch.
func (q *quorumRun) verifyCounterState(k *kernel.Kernel, g *core.Group, epoch uint64, where string) error {
	want, ok := q.counterAt[epoch]
	if !ok {
		return fmt.Errorf("bench: quorum %s: no recorded counter for epoch %d", where, epoch)
	}
	p, err := k.Process(g.PIDs()[0])
	if err != nil {
		return fmt.Errorf("bench: quorum %s: %w", where, err)
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return fmt.Errorf("bench: quorum %s: reading counter: %w", where, err)
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		return fmt.Errorf("bench: quorum %s: counter %d at epoch %d, want %d — restore not bit-identical", where, got, epoch, want)
	}
	buf := make([]byte, vm.PageSize)
	for pg := 1; pg <= chaosPages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			return fmt.Errorf("bench: quorum %s: paging page %d: %w", where, pg, err)
		}
		ref := recoveryPattern(pg, q.cfg.Seed)
		for i := range buf {
			if buf[i] != ref[i] {
				return fmt.Errorf("bench: quorum %s: page %d byte %d differs — restore not bit-identical", where, pg, i)
			}
		}
	}
	return nil
}

// restoreFromMember restores the member's image at epoch on a scratch
// machine and verifies it bit-identical.
func (q *quorumRun) restoreFromMember(l *quorumLink, epoch uint64, where string) error {
	img, err := l.recv.ImageAt(q.g.ID, epoch)
	if err != nil {
		return fmt.Errorf("bench: quorum %s: member %s epoch %d: %w", where, l.name, epoch, err)
	}
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	ng, _, err := o.RestoreImage(img, 0, core.RestoreOpts{})
	if err != nil {
		return fmt.Errorf("bench: quorum %s: restoring from %s: %w", where, l.name, err)
	}
	if err := q.verifyCounterState(k, ng, epoch, where+" from "+l.name); err != nil {
		return err
	}
	q.rep.RestoresVerified++
	return nil
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
	if len(durs) == 0 {
		return 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
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

// runQuorum is the engine behind QuorumChaosRun: baseline mode keeps
// the identical machine shape (same store, links, slow member) but
// leaves the group on legacy all-backends durability.
func runQuorum(cfg QuorumChaosConfig, baseline bool) (*QuorumChaosReport, error) {
	q := &quorumRun{
		cfg:       cfg,
		rep:       &QuorumChaosReport{Seed: cfg.Seed, Replicas: cfg.Replicas, W: cfg.W},
		baseline:  baseline,
		counterAt: make(map[uint64]uint64),
	}

	// Primary machine: fault-free local store + N replica links, all
	// composed through the shared topology builder.
	tp := NewTopology(netback.LinkFaultConfig{
		Drop:    cfg.LinkDrop,
		Dup:     cfg.LinkDup,
		Reorder: cfg.LinkReorder,
		Corrupt: cfg.LinkCorrupt,
	})
	src := tp.Node("quorum-src", cfg.Seed, 0, 0)
	q.srcClock, q.srcK, q.srcO, q.srcStore = src.clock, src.k, src.o, src.sb

	q.rs = netback.NewReplicaSet(cfg.W)
	for i := 0; i < cfg.Replicas; i++ {
		l := tp.Endpoint(fmt.Sprintf("replica%d", i), cfg.Seed*1000003+int64(i)*7919, src)
		if i == cfg.Replicas-1 {
			l.rb.SetLinkLatency(cfg.SlowLinkLatency)
		}
		q.rs.Add(l.name, l.rb, l.recv)
		q.links = append(q.links, l)
	}

	// Workload: the chaos counter plus the patterned working set.
	p, err := q.srcK.Spawn(0, "quorum-app")
	if err != nil {
		return nil, err
	}
	p.SetProgram(&chaosCounter{addr: p.HeapBase()})
	for pg := 1; pg <= chaosPages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), recoveryPattern(pg, cfg.Seed)); err != nil {
			return nil, err
		}
	}
	g, err := q.srcO.Persist("quorum-app", p)
	if err != nil {
		return nil, err
	}
	q.g = g
	q.srcO.Attach(g, q.srcStore)
	if baseline {
		for _, sl := range q.rs.Links() {
			q.srcO.Attach(g, sl.RB)
		}
	} else {
		q.rs.AttachAll(q.srcO, g)
	}
	if err := q.srcStore.Store().SetPrimary(g.ID, g.Generation()); err != nil {
		return nil, err
	}
	if err := q.srcStore.Store().Sync(); err != nil {
		return nil, err
	}
	for _, l := range q.links {
		if err := q.resetLink(l); err != nil {
			return nil, err
		}
	}

	killIdx, partIdx := 1, cfg.Replicas-1
	var killed, partitioned *quorumLink
	if cfg.KillAt > 0 && killIdx < len(q.links) {
		killed = q.links[killIdx]
	}
	if cfg.PartitionAt > 0 && partIdx > 0 && partIdx < len(q.links) {
		partitioned = q.links[partIdx]
	}

	for i := 1; i <= cfg.Checkpoints; i++ {
		if killed != nil && i == cfg.KillAt {
			// Kill the replica: sever its link and lose its state (the
			// receiver is replaced by an empty one on restart).
			killed.link.PartitionBoth()
			killed.down = true
			q.rep.Kills++
		}
		if killed != nil && i == cfg.KillAt+cfg.KillLen {
			// Mid-outage: restores from the surviving quorum members
			// must be bit-identical.
			for _, l := range q.links {
				if l == killed || l.down {
					continue
				}
				if floor := l.recv.ContiguousEpoch(q.g.ID); floor == q.g.Durable() {
					if err := q.restoreFromMember(l, floor, fmt.Sprintf("mid-kill checkpoint %d", i)); err != nil {
						return nil, err
					}
				}
			}
			if !baseline && cfg.KillLen > 4 {
				// The dead member must be reported lagging the quorum.
				if err := q.rs.Lagging(q.g.ID, 4); !errors.Is(err, netback.ErrReplicaLagging) {
					return nil, fmt.Errorf("bench: quorum seed %d: Lagging = %v, want ErrReplicaLagging", cfg.Seed, err)
				}
			}
			// Restart: a fresh receiver (empty chains — the kill lost
			// everything), reconnect, and drain the catch-up queue.
			if killed.serving {
				<-killed.serveDone
				killed.serving = false
			}
			killed.pm = vm.NewPhysMem(0)
			killed.recv = netback.NewReceiver(killed.pm, killed.clock)
			q.rs.Links()[killIdx].Recv = killed.recv
			killed.down = false
			if err := q.healLink(killed); err != nil {
				return nil, err
			}
			if got, want := killed.recv.ContiguousEpoch(q.g.ID), q.g.Durable(); got != want {
				return nil, fmt.Errorf("bench: quorum seed %d: restarted replica floor %d != durable %d", cfg.Seed, got, want)
			}
			q.rep.CatchUpEpochs = int64(len(killed.recv.ReplicaEpochs(q.g.ID)))
			q.rep.Heals++
			// The restarted replica bootstraps restorability from the
			// next full checkpoint (the demotion doctrine).
			q.forceFull = true
		}
		if partitioned != nil && i == cfg.PartitionAt {
			partitioned.link.PartitionBoth()
			partitioned.down = true
		}
		if partitioned != nil && i == cfg.PartitionAt+cfg.PartitionLen {
			partitioned.down = false
			if err := q.healLink(partitioned); err != nil {
				return nil, err
			}
			if got, want := partitioned.recv.ContiguousEpoch(q.g.ID), q.g.Durable(); got != want {
				return nil, fmt.Errorf("bench: quorum seed %d: healed replica floor %d != durable %d", cfg.Seed, got, want)
			}
			q.rep.Heals++
		}

		if _, err := q.epoch(); err != nil {
			return nil, fmt.Errorf("bench: quorum seed %d: checkpoint %d: %w", cfg.Seed, i, err)
		}
		if err := q.syncDurable(); err != nil {
			return nil, err
		}
		// Under probabilistic link faults a healthy-scheduled link can
		// drop its connection; keep those converging. Links inside a
		// scripted outage stay down.
		for _, l := range q.links {
			if l.down {
				continue
			}
			if hi, ok := q.linkHealth(l.name); ok && (hi.State != core.BackendHealthy || hi.Pending > 0) {
				if err := q.healLink(l); err != nil {
					return nil, err
				}
			}
		}
		if err := q.invariants(fmt.Sprintf("checkpoint %d", i), nil); err != nil {
			return nil, err
		}
		if !baseline {
			// The quorum availability claim: a dead or partitioned
			// minority never holds back the released watermark.
			if d := q.g.Durable(); d > 0 && q.maxReleased < d-1 {
				return nil, fmt.Errorf("bench: quorum seed %d: checkpoint %d: released watermark %d lags durable %d under a minority outage",
					cfg.Seed, i, q.maxReleased, d)
			}
		}
	}
	q.rep.Checkpoints = cfg.Checkpoints
	q.rep.Durable = q.g.Durable()
	q.rep.Released = q.maxReleased
	q.rep.MedianDurable = medianFlush(q.g)
	for _, l := range q.links {
		q.rep.Partitions += l.rb.Partitions()
		q.rep.LinkDropped += l.link.DroppedCount()
		q.rep.LinkInjected += l.link.InjectedCount()
		sent, skipped, resends := l.rb.DeltaStats()
		q.rep.PagesSent += sent
		q.rep.PagesSkipped += skipped
		q.rep.NeedResends += resends
		q.rep.ReceiverNeeds += l.recv.NeedsSent()
	}
	if baseline {
		return q.rep, nil
	}

	// Disaster: the primary machine is declared permanently dead. A
	// quorum promotion on a standby elects the member with the highest
	// contiguous acked floor, fences every member, read-repairs the
	// laggards, and resumes execution — after which a restore from ANY
	// member must be bit-identical.
	lineage := q.g.ID
	preFloor := q.g.Durable()
	dstClock := storage.NewClock()
	dstK := kernel.NewWith(dstClock, vm.NewPhysMem(0))
	dstO := core.NewOrchestrator(dstK)
	dstStore := core.NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, dstClock), dstClock), dstK.Mem, dstClock)
	prep, err := dstO.PromoteQuorum(q.rs.Sources(), lineage, dstStore, core.RestoreOpts{})
	if err != nil {
		return nil, fmt.Errorf("bench: quorum seed %d: promotion: %w", cfg.Seed, err)
	}
	if prep.Floor != preFloor {
		return nil, fmt.Errorf("bench: quorum seed %d: promotion floor %d, want durable %d", cfg.Seed, prep.Floor, preFloor)
	}
	if prep.Floor < q.maxReleased {
		return nil, fmt.Errorf("bench: quorum seed %d: promotion floor %d loses released output (watermark %d)",
			cfg.Seed, prep.Floor, q.maxReleased)
	}
	if err := q.verifyCounterState(dstK, prep.Group, prep.Floor, "promotion"); err != nil {
		return nil, err
	}
	q.rep.PromoteGen = prep.Gen
	q.rep.Floor = prep.Floor
	q.rep.Elected = prep.Elected
	q.rep.Repaired = prep.Repaired
	if err := q.invariants("after promotion", dstStore); err != nil {
		return nil, err
	}
	// Every member — including the killed-and-repaired one — restores
	// the promoted floor bit-identically.
	for _, l := range q.links {
		if err := q.restoreFromMember(l, prep.Floor, "post-promotion"); err != nil {
			return nil, err
		}
	}
	// And every member's fence now rejects the stale generation.
	for _, l := range q.links {
		if fg := l.recv.FenceGen(lineage); fg != prep.Gen {
			return nil, fmt.Errorf("bench: quorum seed %d: member %s fence %d, want %d", cfg.Seed, l.name, fg, prep.Gen)
		}
	}
	return q.rep, nil
}

// QuorumPoint is one cell of the quorum sweep matrix.
type QuorumPoint struct {
	Replicas      int
	W             int
	Rate          float64
	Checkpoints   int
	Durable       uint64
	MedianDurable time.Duration
	CatchUpEpochs int64
	PagesSent     int64
	PagesSkipped  int64
	LinkInjected  int64
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
				MedianDurable: rep.MedianDurable,
				CatchUpEpochs: rep.CatchUpEpochs,
				PagesSent:     rep.PagesSent,
				PagesSkipped:  rep.PagesSkipped,
				LinkInjected:  rep.LinkInjected,
			})
		}
	}
	return out, nil
}
