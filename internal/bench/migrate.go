package bench

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
)

// This file is the live-migration chaos script: a running counter
// workload is migrated across a chain of machines (A→B→C…) over a
// fault-injecting link while its source and target stores inject
// storage faults, with a scripted partition opening mid-pre-copy and
// healing only after the migrator has burned retry attempts on it.
// After the planned hops it optionally runs the hot-standby leg: a
// perpetual pre-copy target promoted after an unplanned source crash,
// measuring TTR. After every handover the shared harness check runs
// (harness.go), the migrated state is verified bit-identical (counter +
// patterned pages, demand-paged through the lazy tail), a
// scratch-machine restore from the target store is verified
// bit-identical, and the fenced source verifiably refuses further
// checkpoints.

// MigrateChaosConfig parameterizes one migration chaos run. Zero
// values pick defaults.
type MigrateChaosConfig struct {
	Seed int64

	// PreEpochs checkpoints run on the source before migration starts
	// (default 8); PostEpochs run on each target after its handover
	// (default 6).
	PreEpochs  int
	PostEpochs int
	// Rounds is the pre-copy workload rounds per hop (default 4).
	Rounds int
	// Hops is the number of chained planned migrations (default 2).
	Hops int
	// StepsPerEpoch is scheduler quanta per workload round (default 2).
	StepsPerEpoch int

	// Per-frame link fault probabilities on every migration link.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64

	// Store fault probabilities (every machine's store device).
	StoreWriteErr float64
	StoreReadErr  float64

	// Retries overrides the migrator's per-phase retry budget (0 keeps
	// the migrator default). Faulted cells need headroom: a flush
	// touches dozens of blocks, so per-write fault rates compound.
	Retries int

	// PartitionMid opens a symmetric partition on the migration link
	// mid-pre-copy and keeps it closed to the first reconnect attempts,
	// so the migrator's retry/backoff path is exercised (default on via
	// withDefaults; set PartitionMid=false after calling it to disable).
	PartitionMid bool

	// Standby appends the hot-standby leg: unplanned source crash,
	// standby promotion, TTR measured (default on).
	Standby bool
}

func (c MigrateChaosConfig) withDefaults() MigrateChaosConfig {
	if c.PreEpochs == 0 {
		c.PreEpochs = 8
	}
	if c.PostEpochs == 0 {
		c.PostEpochs = 6
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	return c
}

// MigrateChaosReport is the outcome of one migration chaos run.
type MigrateChaosReport struct {
	Seed int64
	Hops int

	// Blackouts are the per-hop planned blackout times (source stop +
	// target handover, virtual).
	Blackouts                             []time.Duration
	BlackoutP50, BlackoutP99, BlackoutMax time.Duration
	// SrcStops are the source-side stop segments of each blackout —
	// comparable to the single-barrier stop time of BENCH_pipeline.
	SrcStops []time.Duration
	// TTR is the unplanned standby promotion's time-to-recovery
	// (0 when Standby is off).
	TTR time.Duration

	Durable          uint64 // final durable epoch on the last machine
	Gen              uint64 // final primary generation
	Rounds           int    // pre-copy rounds summed over hops
	Backfilled       int    // epochs drained into target stores
	Retries          int    // migrator retry attempts across all phases
	FencedRejects    int    // checkpoints refused on fenced sources
	SupervisorSkips  int    // fenced zombies the supervisor refused to restore
	RestoresVerified int    // bit-identical verifications performed
	LinkDropped      int64  // frames dropped by the fault links
	LinkInjected     int64  // frames duplicated/corrupted by the fault links
	FinalCounter     uint64 // workload counter at exit
}

// migRun carries the script state across hops.
type migRun struct {
	*harness
	cfg MigrateChaosConfig
	rep *MigrateChaosReport

	tp  *Topology
	cur *Node // the machine currently running the workload
	l   *line
}

// expectFenced verifies the fenced source is rejected at both levels:
// the in-core group refuses the barrier with ErrStaleGeneration, and
// the source store — its fence raised through the handover — refuses a
// zombie's attempt to reclaim the primary role at its old generation.
// Together they pin the guarantee that a zombie source can never
// re-advance the migrated lineage's durable state.
func (r *migRun) expectFenced(m *Node, g *core.Group) error {
	if _, err := m.o.Checkpoint(g, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		return fmt.Errorf("fenced source checkpoint = %v, want ErrStaleGeneration", err)
	}
	if err := m.sb.Store().SetPrimary(r.l.lineage, g.Generation()); !errors.Is(err, core.ErrStaleGeneration) {
		return fmt.Errorf("zombie primary re-claim at gen %d = %v, want ErrStaleGeneration", g.Generation(), err)
	}
	r.rep.FencedRejects++
	return nil
}

// migrator wires a migration of the current group to a fresh machine.
func (r *migRun) migrator(dst *Node, linkSeed int64, name string) (*core.Migrator, *Wire, error) {
	r.stores = append(r.stores, dst.storeNode(""))
	w := r.tp.Wire(linkSeed, r.cur, dst)
	w.Backend().SetName("migrate-link")
	srcG := r.l.g
	if err := w.Connect(srcG.ID); err != nil {
		return nil, nil, fmt.Errorf("connect: %w", err)
	}
	return &core.Migrator{
		Src:       r.cur.o,
		Dst:       dst.o,
		G:         srcG,
		Link:      w.Backend(),
		Target:    w.Receiver(),
		SrcStore:  r.cur.sb,
		DstStore:  dst.sb,
		Sup:       r.cur.sup,
		Reconnect: func() error { return w.reconnect(srcG.ID) },
		Cfg: core.MigratorConfig{
			MaxRounds: r.cfg.Rounds,
			Retries:   r.cfg.Retries,
			Lineage:   r.l.lineage,
			Name:      name,
		},
	}, w, nil
}

// arrived moves the ledger to the target after a handover and runs
// every post-handover check, then the workload forward.
func (r *migRun) arrived(src, dst *Node, w *Wire, rep *core.MigrateReport) error {
	srcG := r.l.g
	r.cur = dst
	dst.sup = core.NewSupervisor(dst.o, core.SupervisorConfig{})
	dst.sup.Watch(rep.Group)
	r.moved(r.l, dst.o, rep.Group) // per-machine frontier; monotone within a machine
	if err := r.check(r.phase); err != nil {
		return err
	}
	if rep.Group.Durable() < rep.Floor {
		return fmt.Errorf("target durable %d below handover floor %d", rep.Group.Durable(), rep.Floor)
	}
	// The migrated state must be bit-identical, demand-paged through
	// the lazy tail (target store first, then source store/receiver
	// peers with read-repair).
	if err := r.l.w.verifyLive(dst.k, rep.Group, r.l.last); err != nil {
		return fmt.Errorf("lazy tail: %w", err)
	}
	// A scratch restore from the target store alone must agree.
	if err := r.l.verifyStore(dst.sb, srcG.ID, rep.Floor, r.l.last); err != nil {
		return fmt.Errorf("target store: %w", err)
	}
	r.rep.RestoresVerified += 2
	// The fenced source must refuse to re-advance, even restarted.
	if err := r.expectFenced(src, srcG); err != nil {
		return err
	}
	w.Backend().Disconnect()
	r.rep.LinkDropped += w.Link().DroppedCount()
	r.rep.LinkInjected += w.Link().InjectedCount()

	// Run the workload forward on the target.
	for i := 0; i < r.cfg.PostEpochs; i++ {
		if err := r.l.epoch(r.cfg.StepsPerEpoch); err != nil {
			return fmt.Errorf("post-epoch %d: %w", i, err)
		}
	}
	return r.check(r.phase + " post")
}

// hop performs one planned live migration to a fresh machine and
// moves the workload there.
func (r *migRun) hop(idx int) error {
	cfg := r.cfg
	r.at("hop %d", idx)
	src := r.cur
	dst := NewNode(fmt.Sprintf("m%d", idx+1), cfg.Seed*31+int64(idx+1)*977, cfg.StoreWriteErr, cfg.StoreReadErr)
	mig, w, err := r.migrator(dst, cfg.Seed*1000003+int64(idx)*7919, fmt.Sprintf("migrated-%d", idx+1))
	if err != nil {
		return err
	}
	round := 0
	rep, err := mig.Run(func() error {
		round++
		if cfg.PartitionMid && round == 1 {
			// Mid-pre-copy partition: stays closed through the first
			// reconnect attempt, so the migrator pays real retries.
			w.partition(1)
		}
		return r.l.slice(cfg.StepsPerEpoch)
	})
	if err != nil {
		return err
	}
	r.rep.Blackouts = append(r.rep.Blackouts, rep.Blackout)
	r.rep.SrcStops = append(r.rep.SrcStops, rep.SrcStop)
	r.rep.Rounds += rep.Rounds
	r.rep.Backfilled += rep.Backfilled
	r.rep.Retries += rep.Retries
	r.rep.Gen = rep.Gen
	return r.arrived(src, dst, w, rep)
}

// standbyLeg runs the hot-standby story: perpetual pre-copy to a
// standby machine, an unplanned source crash, a supervisor poll that
// must refuse the fenced zombie, and the promotion with TTR.
func (r *migRun) standbyLeg() error {
	cfg := r.cfg
	r.at("standby")
	idx := cfg.Hops + 1
	src, srcG := r.cur, r.l.g
	dst := NewNode(fmt.Sprintf("standby-m%d", idx), cfg.Seed*37+int64(idx)*1009, cfg.StoreWriteErr, cfg.StoreReadErr)
	mig, w, err := r.migrator(dst, cfg.Seed*999983+int64(idx)*104729, "standby")
	if err != nil {
		return err
	}

	// Keep the standby warm: perpetual pre-copy on the checkpoint
	// cadence.
	for i := 0; i < cfg.Rounds; i++ {
		if err := mig.StandbyRound(func() error { return r.l.slice(cfg.StepsPerEpoch) }); err != nil {
			return fmt.Errorf("standby round %d: %w", i, err)
		}
	}

	// Unplanned death: every member crashes with an error. The source
	// supervisor would normally restore this — the promotion must beat
	// it by fencing, and a later poll must refuse the fenced zombie.
	src.kill(srcG, 2)
	rep, err := mig.PromoteStandby()
	if err != nil {
		return fmt.Errorf("standby promotion: %w", err)
	}
	r.rep.TTR = rep.TTR
	r.rep.Retries += rep.Retries
	r.rep.Backfilled += rep.Backfilled
	r.rep.Gen = rep.Gen

	// The promotion released the group from the source supervisor, so
	// a poll restores nothing. A restarted supervisor that re-watches
	// the fenced zombie (it cannot know better) must refuse to restore
	// it and report it fenced instead.
	src.sup.Watch(srcG)
	for _, ev := range src.sup.Poll() {
		if ev.NewGroup != 0 {
			return fmt.Errorf("supervisor restored fenced zombie group %d as %d", ev.Group, ev.NewGroup)
		}
		if ev.Fenced {
			r.rep.SupervisorSkips++
		}
	}
	return r.arrived(src, dst, w, rep)
}

// MigrateChaosRun executes one migration chaos schedule.
func MigrateChaosRun(cfg MigrateChaosConfig) (*MigrateChaosReport, error) {
	cfg = cfg.withDefaults()
	r := &migRun{
		harness: newHarness("migrate", cfg.Seed),
		cfg:     cfg,
		rep:     &MigrateChaosReport{Seed: cfg.Seed, Hops: cfg.Hops},
		tp: NewTopology(netback.LinkFaultConfig{
			Drop:    cfg.LinkDrop,
			Dup:     cfg.LinkDup,
			Reorder: cfg.LinkReorder,
			Corrupt: cfg.LinkCorrupt,
		}),
	}
	if err := r.script(); err != nil {
		return nil, r.fail(err)
	}
	return r.rep, nil
}

func (r *migRun) script() error {
	cfg := r.cfg
	m0 := NewNode("m0", cfg.Seed, cfg.StoreWriteErr, cfg.StoreReadErr)
	r.stores = []*core.StoreNode{m0.storeNode("")}
	r.cur = m0
	l, err := r.start(m0, workload{pages: chaosPages, seed: cfg.Seed}, "migrate-app")
	if err != nil {
		return err
	}
	r.l = l
	m0.sup = core.NewSupervisor(m0.o, core.SupervisorConfig{})
	m0.sup.Watch(l.g)

	for i := 0; i < cfg.PreEpochs; i++ {
		r.at("pre-epoch %d", i)
		if err := l.epoch(cfg.StepsPerEpoch); err != nil {
			return err
		}
	}
	if err := r.check("pre"); err != nil {
		return err
	}
	for hop := 0; hop < cfg.Hops; hop++ {
		if err := r.hop(hop); err != nil {
			return err
		}
	}
	if cfg.Standby {
		if err := r.standbyLeg(); err != nil {
			return err
		}
	}

	r.rep.Durable = l.g.Durable()
	r.rep.FinalCounter = l.last
	r.rep.BlackoutP50, r.rep.BlackoutP99, r.rep.BlackoutMax = percentiles(slices.Clone(r.rep.Blackouts))
	return nil
}

// MigratePoint is one row of BENCH_migrate.json.
type MigratePoint struct {
	Seed          int64   `json:"seed"`
	LinkFaultPct  float64 `json:"link_fault_pct"`
	StoreFaultPct float64 `json:"store_fault_pct"`
	Hops          int     `json:"hops"`
	BlackoutP50us float64 `json:"blackout_p50_us"`
	BlackoutP99us float64 `json:"blackout_p99_us"`
	BlackoutMaxus float64 `json:"blackout_max_us"`
	SrcStopMaxus  float64 `json:"src_stop_max_us"`
	TTRus         float64 `json:"ttr_us"`
	Retries       int     `json:"retries"`
	Backfilled    int     `json:"backfilled"`
	Durable       uint64  `json:"durable"`
}

// MigrateSweep runs the migration matrix: seeds × link/store fault
// rates, planned hops plus the unplanned standby promotion per cell.
func MigrateSweep(seeds []int64, rates []float64) ([]MigratePoint, error) {
	var points []MigratePoint
	for _, seed := range seeds {
		for _, rate := range rates {
			cfg := MigrateChaosConfig{
				Seed:          seed,
				LinkDrop:      rate,
				LinkDup:       rate / 2,
				LinkCorrupt:   rate / 2,
				StoreWriteErr: rate / 5,
				StoreReadErr:  rate / 5,
				PartitionMid:  true,
				Standby:       true,
			}
			if rate > 0 {
				cfg.Retries = 8
			}
			rep, err := MigrateChaosRun(cfg)
			if err != nil {
				return nil, err
			}
			_, _, srcMax := percentiles(slices.Clone(rep.SrcStops))
			points = append(points, MigratePoint{
				Seed:          seed,
				LinkFaultPct:  rate * 100,
				StoreFaultPct: rate / 5 * 100,
				Hops:          rep.Hops,
				BlackoutP50us: float64(rep.BlackoutP50) / 1e3,
				BlackoutP99us: float64(rep.BlackoutP99) / 1e3,
				BlackoutMaxus: float64(rep.BlackoutMax) / 1e3,
				SrcStopMaxus:  float64(srcMax) / 1e3,
				TTRus:         float64(rep.TTR) / 1e3,
				Retries:       rep.Retries,
				Backfilled:    rep.Backfilled,
				Durable:       rep.Durable,
			})
		}
	}
	return points, nil
}
