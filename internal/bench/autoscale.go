package bench

import (
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
)

// This file is the elastic-autoscaling chaos script (the scale-storm
// gate behind `make scalecheck`): a small base fleet plus a warm pool
// of provisioned-but-unadmitted spares is driven by core.Autoscaler
// while open-loop load ramps up, bursts, and ramps back down over
// fault-injecting links and store devices. The schedule deliberately
// hits both scale directions mid-flight:
//
//   - Ramp-up: arrivals land until the fleet-wide high-watermark holds
//     above target; the autoscaler must admit spares one at a time and
//     seed each via paced rebalance until pressure relieves. The first
//     spare in the pool is dead on arrival (its device is down before
//     admission) — the autoscaler must skip it with a recorded
//     decision and keep going, never wedging the ramp.
//   - Mid-scale-in chaos: load retires until a scale-in begins, one
//     drain step lands, and then the storm hits — a burst of arrivals
//     re-pressurizes the fleet AND the busiest surviving store's
//     device dies. The in-flight drain must roll back (the drainee
//     re-admitted with wires re-handshaken, zero fenced survivors)
//     while the death drives a normal evacuation storm around it.
//   - Ramp-down: load retires to a floor and the autoscaler must
//     converge the fleet back to MinStores through repeated drains.
//
// After the dust settles every surviving lineage must be bit-identical
// (live state + scratch-machine restore) and the shared harness check
// (harness.go) must hold — the latter asserted both by the script,
// after every scale action, and by the autoscaler's own per-tick audit
// (InvariantViolations must stay empty).

// AutoscaleChaosConfig parameterizes one scale-storm run. Zero values
// pick defaults.
type AutoscaleChaosConfig struct {
	Seed int64

	// BaseStores is the admitted fleet at t=0 (default 2; also the
	// autoscaler's MinStores floor).
	BaseStores int
	// MaxStores bounds the active fleet (default 6). The warm pool is
	// sized MaxStores-BaseStores healthy spares plus one dead spare.
	MaxStores int
	// PeakGroups is the arrival target of the ramp-up (default 24; the
	// acceptance gate runs 48 via AURORA_SCALE_GROUPS, which forces the
	// fleet all the way to MaxStores).
	PeakGroups int
	// FloorGroups is where the final ramp-down stops (default 4).
	FloorGroups int
	// PrimaryTarget is the per-store resident-primary budget feeding
	// composite utilization (default 8).
	PrimaryTarget int
	// ArrivalsPerTick / RetireesPerTick pace the open-loop ramps
	// (defaults 3 / 3).
	ArrivalsPerTick int
	RetireesPerTick int
	// StepsPerEpoch is scheduler quanta per resident group per workload
	// round (default 2); CheckpointEvery checkpoints+syncs every Nth
	// round (default 2 — the tick loop is long, and checkpointing every
	// lineage every tick would swamp the schedule without sharpening
	// any assertion).
	StepsPerEpoch   int
	CheckpointEvery int
	// Replicas / EvacConcurrency mirror the placement harness
	// (defaults 2 / 8).
	Replicas        int
	EvacConcurrency int

	// Per-frame link fault probabilities on every replication wire.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64
	// Store fault probabilities (every store's device).
	StoreWriteErr float64
	StoreReadErr  float64
}

func (c AutoscaleChaosConfig) withDefaults() AutoscaleChaosConfig {
	if c.BaseStores == 0 {
		c.BaseStores = 2
	}
	if c.MaxStores == 0 {
		c.MaxStores = 6
	}
	if c.PeakGroups == 0 {
		c.PeakGroups = 24
	}
	if c.FloorGroups == 0 {
		c.FloorGroups = 4
	}
	if c.PrimaryTarget == 0 {
		c.PrimaryTarget = 8
	}
	if c.ArrivalsPerTick == 0 {
		c.ArrivalsPerTick = 3
	}
	if c.RetireesPerTick == 0 {
		c.RetireesPerTick = 3
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.EvacConcurrency == 0 {
		c.EvacConcurrency = 8
	}
	return c
}

// AutoscaleChaosReport is the outcome of one scale-storm run.
type AutoscaleChaosReport struct {
	Seed       int64
	PeakGroups int

	Placed  int // lineages placed (arrivals + burst)
	Retired int // lineages retired by the ramps

	ScaledTo     int    // active stores at ramp-up convergence
	ExpectedPeak int    // minimum the load level must force
	DeadSpare    string // the dead-on-arrival warm spare
	DeadSkipped  bool   // autoscaler recorded its skip
	ScaleOuts    int    // admissions
	ScaleIns     int    // completed drains (stores fenced)
	Rollbacks    int    // drains rolled back
	Drainee      string // the chaos leg's rolled-back drainee
	Victim       string // the store killed mid-scale-in
	BurstGroups  int    // arrivals injected mid-scale-in
	Evacuated    int    // lineages re-homed off the dead victim

	// Convergence: control-loop ticks (and lane virtual time) from the
	// start of each ramp until the fleet settles at the target size.
	ConvergeOutTicks int
	ConvergeOutTime  time.Duration
	ConvergeInTicks  int
	ConvergeInTime   time.Duration

	RestoresVerified int // bit-identical verifications (live + scratch)
	Violations       int // engine + autoscaler invariant failures (must be 0)
	FinalActive      int
	FinalGroups      int
	FinalDurable     uint64
}

// scaleRun carries the script state.
type scaleRun struct {
	*fleet
	cfg AutoscaleChaosConfig
	rep *AutoscaleChaosReport

	as    *core.Autoscaler
	round int // workload rounds driven (checkpoint cadence)
}

// AutoscaleChaosRun executes one scale-storm schedule.
func AutoscaleChaosRun(cfg AutoscaleChaosConfig) (*AutoscaleChaosReport, error) {
	cfg = cfg.withDefaults()
	r := &scaleRun{
		fleet: newFleet("autoscale", cfg.Seed, cfg.StepsPerEpoch, netback.LinkFaultConfig{
			Drop:    cfg.LinkDrop,
			Dup:     cfg.LinkDup,
			Reorder: cfg.LinkReorder,
			Corrupt: cfg.LinkCorrupt,
		}, cfg.StoreWriteErr, cfg.StoreReadErr, core.PlacerConfig{
			Replicas:        cfg.Replicas,
			EvacConcurrency: cfg.EvacConcurrency,
			PrimaryTarget:   cfg.PrimaryTarget,
		}),
		cfg: cfg,
		rep: &AutoscaleChaosReport{Seed: cfg.Seed, PeakGroups: cfg.PeakGroups},
	}
	if err := r.script(); err != nil {
		return nil, r.fail(err)
	}
	r.rep.Placed = r.placed
	r.rep.RestoresVerified = r.verified
	return r.rep, nil
}

func (r *scaleRun) script() error {
	cfg := r.cfg
	// Base fleet admitted, spares warm. The pool's first spare is dead
	// on arrival: its device goes down before the autoscaler ever sees
	// it, so the first scale-out must skip it.
	build := func(i int) *core.StoreNode { return r.addStore(i, fmt.Sprintf("rack%d", i%2)) }
	for i := 0; i < cfg.BaseStores; i++ {
		if err := r.placer.AddStore(build(i)); err != nil {
			return err
		}
	}
	r.as = core.NewAutoscaler(r.placer, core.AutoscalerConfig{
		MinStores:       cfg.BaseStores,
		MaxStores:       cfg.MaxStores,
		RebalanceBudget: 2,
		DrainBudget:     1,
	})
	dead := build(cfg.BaseStores)
	r.bench[dead].fd.Down()
	r.rep.DeadSpare = dead.Name
	if err := r.as.AddWarmStore(dead); err != nil {
		return err
	}
	for i := cfg.BaseStores + 1; i <= cfg.MaxStores; i++ {
		if err := r.as.AddWarmStore(build(i)); err != nil {
			return err
		}
	}

	// The load level the ramp reaches forces at least this many active
	// stores: a store below the high watermark holds at most
	// ceil(ScaleOutUtil*PrimaryTarget)-1 primaries, and the paced rebalance
	// spreads toward even, so any smaller fleet pigeonholes some store
	// above the watermark for every window.
	perStore := int(core.ScaleOutUtil*float64(cfg.PrimaryTarget)+0.999999) - 1
	r.rep.ExpectedPeak = (cfg.PeakGroups + perStore - 1) / perStore
	if r.rep.ExpectedPeak > cfg.MaxStores {
		r.rep.ExpectedPeak = cfg.MaxStores
	}
	if r.rep.ExpectedPeak < cfg.BaseStores {
		r.rep.ExpectedPeak = cfg.BaseStores
	}

	if err := r.rampUp(); err != nil {
		return err
	}
	if err := r.scaleInStorm(); err != nil {
		return err
	}
	if err := r.rampDown(); err != nil {
		return err
	}
	// The ramp-down may settle on an off-cadence round, leaving live
	// counters ahead of the last recorded durable epoch; land one
	// forced checkpoint+sync so the sweep compares like with like.
	r.at("final")
	if err := r.workload(true); err != nil {
		return err
	}

	// Final verification sweep: every surviving lineage bit-identical,
	// live and from a scratch restore; fleet invariants hold; the
	// autoscaler's own per-tick audit saw nothing.
	for _, pl := range r.placer.Placements() {
		l := r.byID[pl.Lineage]
		if l.retired {
			continue
		}
		pl, ok := r.locate(l)
		if !ok {
			return fmt.Errorf("lineage %d lost at end of run", l.lineage)
		}
		if err := r.verify(pl); err != nil {
			return err
		}
		r.rep.FinalGroups++
		if d := pl.Group().Durable(); d > r.rep.FinalDurable {
			r.rep.FinalDurable = d
		}
	}
	if err := r.check(r.phase); err != nil {
		return err
	}
	if v := r.as.InvariantViolations(); len(v) != 0 {
		return fmt.Errorf("autoscaler audit: %v", v)
	}
	r.rep.FinalActive = r.active()
	return nil
}

func (r *scaleRun) active() int {
	n := 0
	for _, sn := range r.placer.Stores() {
		if sn.State() == core.StoreActive {
			n++
		}
	}
	return n
}

// retireSome unplaces up to n lineages, always from the store holding
// the most primaries (newest resident first), so the ramp-down decays
// toward even rather than stranding one hot store above the low
// watermark forever. Lineages mid-evacuation are skipped.
func (r *scaleRun) retireSome(n int) {
	for ; n > 0; n-- {
		live := r.live()
		if len(live) == 0 {
			return
		}
		from := busiest(residents(live), r.placer.Stores())
		var pick uint64
		for _, pl := range live {
			if pl.Primary() == from && pl.Lineage > pick {
				pick = pl.Lineage
			}
		}
		if err := r.placer.Unplace(pick); err != nil {
			return // mid-evacuation churn; retry next tick
		}
		r.byID[pick].retired = true
		r.rep.Retired++
	}
}

// workload drives one open-loop round; on the checkpoint cadence (or
// when forced) every routable lineage checkpoints and syncs durable.
func (r *scaleRun) workload(force bool) error {
	r.round++
	if err := r.fleet.round(force || r.round%r.cfg.CheckpointEvery == 0); err != nil {
		return fmt.Errorf("round %d: %w", r.round, err)
	}
	return nil
}

// tick advances the autoscaler one control round, tallies its decision,
// and re-runs the harness check after every scale action.
func (r *scaleRun) tick() (core.ScaleDecision, error) {
	dec, _ := r.as.Tick()
	switch dec.Action {
	case "scale-out":
		r.rep.ScaleOuts++
	case "scale-in-done":
		r.rep.ScaleIns++
	case "scale-in-rollback":
		r.rep.Rollbacks++
	}
	for _, d := range r.as.Decisions() {
		if d.Action == "scale-out-skipped" && d.Store == r.rep.DeadSpare {
			r.rep.DeadSkipped = true
		}
	}
	switch dec.Action {
	case "hold", "seeding", "draining":
		return dec, nil
	}
	phase := r.phase
	err := r.check(fmt.Sprintf("%s, tick %d %s %s", phase, dec.Tick, dec.Action, dec.Store))
	r.phase = phase
	return dec, err
}

// rampUp lands arrivals until the peak and drives the loop until the
// fleet converges at the forced size with the autoscaler idle.
func (r *scaleRun) rampUp() error {
	r.at("ramp-up")
	start := r.as.Status()
	maxTicks := 40*(r.rep.ExpectedPeak-r.cfg.BaseStores) + 8*r.cfg.PeakGroups + 100
	for t := 1; ; t++ {
		if t > maxTicks {
			return fmt.Errorf("ramp-up did not converge (%d active, want >= %d, after %d ticks)",
				r.active(), r.rep.ExpectedPeak, maxTicks)
		}
		for i := 0; i < r.cfg.ArrivalsPerTick && r.placed < r.cfg.PeakGroups; i++ {
			if err := r.place(); err != nil {
				break // transient fault (the storm can eat a seed checkpoint); retry next tick
			}
		}
		if err := r.workload(false); err != nil {
			return err
		}
		if _, err := r.tick(); err != nil {
			return err
		}
		st := r.as.Status()
		if r.placed == r.cfg.PeakGroups && st.Phase == "idle" && r.active() >= r.rep.ExpectedPeak {
			r.rep.ScaledTo = r.active()
			r.rep.ConvergeOutTicks = t
			r.rep.ConvergeOutTime = st.At - start.At
			break
		}
	}
	if !r.rep.DeadSkipped {
		return fmt.Errorf("dead warm spare %s was never skipped", r.rep.DeadSpare)
	}
	for _, sn := range r.placer.Stores() {
		if sn.Name == r.rep.DeadSpare {
			return fmt.Errorf("dead spare %s was admitted (state %s)", sn.Name, sn.State())
		}
	}
	return r.check("post-ramp-up")
}

// scaleInStorm retires load until a scale-in begins, lets one drain
// step land, then hits the fleet with a burst of arrivals AND kills
// the busiest surviving store. The in-flight drain must roll back and
// the death must evacuate cleanly around it.
func (r *scaleRun) scaleInStorm() error {
	r.at("scale-in storm")
	// Retire toward the low watermark until the autoscaler commits.
	var drainee *core.StoreNode
	maxTicks := 8*r.cfg.PeakGroups + 100
	for t := 1; ; t++ {
		if t > maxTicks {
			return fmt.Errorf("scale-in never began (%d groups live, %d active, after %d ticks)",
				len(r.live()), r.active(), maxTicks)
		}
		if len(r.live()) > r.cfg.FloorGroups {
			r.retireSome(r.cfg.RetireesPerTick)
		}
		if err := r.workload(false); err != nil {
			return err
		}
		dec, err := r.tick()
		if err != nil {
			return err
		}
		if dec.Action == "scale-in-begin" {
			if drainee, err = r.placer.Node(dec.Store); err != nil {
				return err
			}
			r.rep.Drainee = drainee.Name
			break
		}
		// A drain that empties before the storm lands is a clean
		// scale-in; the chaos leg needs one in flight, so keep going.
	}

	// One drain step lands (the tick after begin advances the drain),
	// so the rollback is genuinely mid-drain.
	if err := r.workload(false); err != nil {
		return err
	}
	if _, err := r.tick(); err != nil {
		return err
	}
	if drainee.State() == core.StoreFenced {
		return fmt.Errorf("drain of %s completed before the storm could land", drainee.Name)
	}

	// The storm: burst arrivals sized to pigeonhole some store above
	// the high watermark even when spread perfectly even across the
	// surviving non-draining stores, then the busiest of those dies.
	var survivors []*core.StoreNode
	for _, sn := range r.placer.Stores() {
		if sn.State() == core.StoreActive && sn != drainee {
			survivors = append(survivors, sn)
		}
	}
	victim := busiest(residents(r.live()), survivors)
	// The victim still counts toward the high-watermark until the probe
	// ladder declares it (and soaks up arrivals until then), so the
	// pigeonhole is over every surviving store, victim included: enough
	// load that even a perfectly even spread pins some store at or
	// above the high watermark.
	need := int(core.ScaleOutUtil*float64(r.cfg.PrimaryTarget) + 0.999999)
	burst := need*len(survivors) + 2 - len(r.live())
	if burst < 4 {
		burst = 4
	}
	r.rep.BurstGroups = burst
	for target := r.placed + burst; r.placed < target; {
		if err := r.place(); err != nil {
			return fmt.Errorf("burst arrival: %w", err)
		}
	}
	// One forced checkpoint round before the kill: a just-placed burst
	// lineage has wired but unseeded replicas (floor 0), and a primary
	// that dies before its first checkpoint leaves a standby with
	// nothing to promote.
	if err := r.workload(true); err != nil {
		return err
	}
	var victimResidents []uint64
	for _, pl := range r.live() {
		if pl.Primary() == victim {
			victimResidents = append(victimResidents, pl.Lineage)
		}
	}
	r.rep.Victim = victim.Name
	r.bench[victim].fd.Down()
	if err := r.check("scale-in storm, store kill"); err != nil {
		return err
	}
	r.at("scale-in storm")

	// No workload rounds until the death is declared and the storm
	// drains: checkpoints against the dead primary would fail before
	// evacuation re-homes them (same discipline as the placement
	// script's kill leg). The rollback must surface first.
	sawRollback := false
	maxPolls := 16 + (len(victimResidents)/r.cfg.EvacConcurrency+1)*8 + 40
	for poll := 0; ; poll++ {
		if poll > maxPolls {
			evac, repair := r.placer.QueueDepths()
			return fmt.Errorf("storm did not settle after %d polls (rollback %v, victim %s, evac %d, repair %d, phase %s, active %d)",
				maxPolls, sawRollback, victim.State(), evac, repair, r.as.Status().Phase, r.active())
		}
		dec, err := r.tick()
		if err != nil {
			return err
		}
		switch dec.Action {
		case "scale-in-rollback":
			sawRollback = true
			if drainee.State() != core.StoreActive {
				return fmt.Errorf("rollback left %s in state %s, want active", drainee.Name, drainee.State())
			}
			for _, sn := range r.placer.Stores() {
				if sn.State() == core.StoreFenced {
					return fmt.Errorf("fenced survivor %s after rollback", sn.Name)
				}
			}
		case "scale-in-done":
			if !sawRollback {
				return fmt.Errorf("chaos drain of %s completed instead of rolling back", drainee.Name)
			}
		}
		evac, repair := r.placer.QueueDepths()
		if sawRollback && victim.State() == core.StoreDown && evac == 0 && repair == 0 {
			break
		}
	}

	// Every victim resident re-homed and bit-identical; the rolled-back
	// drainee is a first-class citizen again (promotions may well have
	// landed on it through its re-handshaken wires).
	r.at("post-storm")
	if err := r.rehomed(victimResidents, victim); err != nil {
		return err
	}
	r.rep.Evacuated += len(victimResidents)
	return r.check(r.phase)
}

// rampDown retires load to the floor and drives the loop until the
// fleet converges back to MinStores with the autoscaler idle.
func (r *scaleRun) rampDown() error {
	r.at("ramp-down")
	start := r.as.Status()
	maxTicks := 60*r.cfg.MaxStores + 8*r.cfg.PeakGroups + 200
	for t := 1; ; t++ {
		if t > maxTicks {
			return fmt.Errorf("ramp-down did not converge (%d active, want %d, after %d ticks)",
				r.active(), r.cfg.BaseStores, maxTicks)
		}
		if len(r.live()) > r.cfg.FloorGroups {
			r.retireSome(r.cfg.RetireesPerTick)
		}
		if err := r.workload(false); err != nil {
			return err
		}
		if _, err := r.tick(); err != nil {
			return err
		}
		st := r.as.Status()
		if len(r.live()) <= r.cfg.FloorGroups && st.Phase == "idle" && r.active() <= r.cfg.BaseStores {
			r.rep.ConvergeInTicks = t
			r.rep.ConvergeInTime = st.At - start.At
			break
		}
	}
	if got := r.active(); got != r.cfg.BaseStores {
		return fmt.Errorf("ramp-down settled at %d active stores, want %d", got, r.cfg.BaseStores)
	}
	// Every fenced store must be truly empty: a drain that fences a
	// store still holding a resident would strand it.
	for _, pl := range r.live() {
		if sn := pl.Primary(); sn.State() == core.StoreFenced {
			return fmt.Errorf("lineage %d stranded on fenced %s", pl.Lineage, sn.Name)
		}
	}
	return r.check("post-ramp-down")
}

// --- Sweep -----------------------------------------------------------

// AutoscalePoint is one cell of the autoscale matrix. The convergence
// tick counts feed the 2x regression gate against the committed
// baseline.
type AutoscalePoint struct {
	LinkFaultPct     float64 `json:"link_fault_pct"`
	PeakGroups       int     `json:"peak_groups"`
	ScaledTo         int     `json:"scaled_to"`
	ScaleOuts        int     `json:"scale_outs"`
	ScaleIns         int     `json:"scale_ins"`
	Rollbacks        int     `json:"rollbacks"`
	Evacuated        int     `json:"evacuated"`
	ConvergeOutTicks int     `json:"converge_out_ticks"`
	ConvergeInTicks  int     `json:"converge_in_ticks"`
	ConvergeOutUs    float64 `json:"converge_out_us"`
	ConvergeInUs     float64 `json:"converge_in_us"`
	Verified         int     `json:"restores_verified"`
	FinalActive      int     `json:"final_active"`
}

// AutoscaleSweep runs the scale-storm matrix over link fault rates
// (store fault rates ride along at rate/5, like the placement sweep);
// every cell ramps 2→peak→2 with the dead-spare and mid-scale-in
// chaos legs enabled.
func AutoscaleSweep(peakGroups int, rates []float64, seed int64) ([]AutoscalePoint, error) {
	var out []AutoscalePoint
	for _, rate := range rates {
		cfg := AutoscaleChaosConfig{
			Seed:          seed,
			PeakGroups:    peakGroups,
			LinkDrop:      rate,
			LinkDup:       rate / 2,
			LinkCorrupt:   rate / 2,
			StoreWriteErr: rate / 5,
			StoreReadErr:  rate / 5,
		}
		rep, err := AutoscaleChaosRun(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: autoscale sweep rate=%g: %w", rate, err)
		}
		out = append(out, AutoscalePoint{
			LinkFaultPct:     rate * 100,
			PeakGroups:       rep.PeakGroups,
			ScaledTo:         rep.ScaledTo,
			ScaleOuts:        rep.ScaleOuts,
			ScaleIns:         rep.ScaleIns,
			Rollbacks:        rep.Rollbacks,
			Evacuated:        rep.Evacuated,
			ConvergeOutTicks: rep.ConvergeOutTicks,
			ConvergeInTicks:  rep.ConvergeInTicks,
			ConvergeOutUs:    float64(rep.ConvergeOutTime.Microseconds()),
			ConvergeInUs:     float64(rep.ConvergeInTime.Microseconds()),
			Verified:         rep.RestoresVerified,
			FinalActive:      rep.FinalActive,
		})
	}
	return out, nil
}
