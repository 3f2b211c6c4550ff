package bench

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
)

// This file is the store-kill placement chaos script: a fleet of N
// stores (harness.go's fleet) is populated with hundreds of counter
// groups through core.Placer under failure-domain anti-affinity, driven
// with open-loop checkpoint load over fault-injecting links and store
// devices, and then one store's device dies permanently. The placer's
// probe ladder must declare the death, evacuate every resident lineage
// through the bounded-concurrency queue (standby promotion on the best
// surviving replica, typed ErrEvacuating while queued), and
// re-replicate to full strength. After every leg the shared harness
// check runs, and every re-homed lineage is verified bit-identical on
// its new primary (live state + a scratch-machine restore from the new
// primary's store). An optional drain leg then decommissions one
// survivor end to end.

// placePages is the patterned working set per group (beyond the
// counter page). Smaller than the single-group chaos harness's — the
// placement gate multiplies it by hundreds of groups.
const placePages = 2

// PlacementChaosConfig parameterizes one placement chaos run. Zero
// values pick defaults.
type PlacementChaosConfig struct {
	Seed int64

	// Stores is the fleet size (default 4); failure domains are
	// assigned round-robin over max(2, Stores/2) domains, so a domain
	// holds more than one store once the fleet is big enough.
	Stores int
	// Groups is the number of placed lineages (default 48; the
	// acceptance gate runs 256 via AURORA_PLACE_GROUPS).
	Groups int
	// Replicas is the copy count per lineage, primary included
	// (default 2).
	Replicas int

	// PreEpochs checkpoints run per group before the kill (default 3);
	// PostEpochs after the heal (default 2).
	PreEpochs  int
	PostEpochs int
	// StepsPerEpoch is scheduler quanta per group per epoch (default 2).
	StepsPerEpoch int

	// EvacConcurrency bounds evacuations per placer poll (default 8).
	EvacConcurrency int

	// Per-frame link fault probabilities on every replication wire.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64
	// Store fault probabilities (every store's device).
	StoreWriteErr float64
	StoreReadErr  float64

	// SkipKill skips the store-kill leg (placement + load only).
	SkipKill bool
	// Drain decommissions one surviving store after the heal
	// (default on via withDefaults; set false after calling it to
	// disable).
	Drain bool
}

func (c PlacementChaosConfig) withDefaults() PlacementChaosConfig {
	if c.Stores == 0 {
		c.Stores = 4
	}
	if c.Groups == 0 {
		c.Groups = 48
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.PreEpochs == 0 {
		c.PreEpochs = 3
	}
	if c.PostEpochs == 0 {
		c.PostEpochs = 2
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	if c.EvacConcurrency == 0 {
		c.EvacConcurrency = 8
	}
	return c
}

// PlacementChaosReport is the outcome of one placement chaos run.
type PlacementChaosReport struct {
	Seed           int64
	Stores, Groups int

	Placed     int // lineages placed
	Victim     string
	Residents  int // primaries resident on the victim at kill time
	Evacuated  int // lineages re-homed by standby promotion
	Repaired   int // placements whose replica set was rebuilt
	Polls      int // placer poll rounds to drain the storm
	Evacuating int // ErrEvacuating lookups observed mid-storm

	// Evacuation TTR percentiles (virtual, per-promotion on the target
	// machine's clock).
	EvacTTRs                        []time.Duration
	EvacTTRp50, EvacTTRp99, EvacMax time.Duration

	RestoresVerified int // bit-identical verifications (live + scratch)
	Degraded         int // placements below full replication after heal
	Violations       int // anti-affinity violations after heal (must be 0)

	Drained        int // lineages migrated off by the drain leg
	ExemptRestores int // supervisor recoveries exempted as evacuation-initiated

	FinalDurable uint64 // max durable epoch across surviving lineages
	LinkDropped  int64
	LinkInjected int64
}

// placeRun carries the script state.
type placeRun struct {
	*fleet
	cfg PlacementChaosConfig
	rep *PlacementChaosReport
}

func domainOf(i, stores int) string {
	domains := stores / 2
	if domains < 2 {
		domains = stores
	}
	return fmt.Sprintf("rack%d", i%domains)
}

// PlacementChaosRun executes one placement chaos schedule.
func PlacementChaosRun(cfg PlacementChaosConfig) (*PlacementChaosReport, error) {
	cfg = cfg.withDefaults()
	r := &placeRun{
		fleet: newFleet("placement", cfg.Seed, cfg.StepsPerEpoch, netback.LinkFaultConfig{
			Drop:    cfg.LinkDrop,
			Dup:     cfg.LinkDup,
			Reorder: cfg.LinkReorder,
			Corrupt: cfg.LinkCorrupt,
		}, cfg.StoreWriteErr, cfg.StoreReadErr, core.PlacerConfig{
			Replicas:        cfg.Replicas,
			EvacConcurrency: cfg.EvacConcurrency,
		}),
		cfg: cfg,
		rep: &PlacementChaosReport{Seed: cfg.Seed, Stores: cfg.Stores, Groups: cfg.Groups},
	}
	if err := r.script(); err != nil {
		return nil, r.fail(err)
	}
	r.rep.RestoresVerified = r.verified
	return r.rep, nil
}

func (r *placeRun) script() error {
	cfg := r.cfg
	for i := 0; i < cfg.Stores; i++ {
		if err := r.placer.AddStore(r.addStore(i, domainOf(i, cfg.Stores))); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Groups; i++ {
		r.at("placing app%04d", i)
		if err := r.place(); err != nil {
			return err
		}
		r.rep.Placed++
	}
	if err := r.check("placement"); err != nil {
		return err
	}

	// Open-loop checkpoint load before the kill.
	for e := 0; e < cfg.PreEpochs; e++ {
		r.at("pre-kill epoch %d", e)
		if err := r.round(true); err != nil {
			return err
		}
		if err := r.check(r.phase); err != nil {
			return err
		}
	}
	if !cfg.SkipKill {
		if err := r.killLeg(); err != nil {
			return err
		}
	}
	// Post-heal load: the fleet keeps running.
	for e := 0; e < cfg.PostEpochs; e++ {
		r.at("post-heal epoch %d", e)
		if err := r.round(true); err != nil {
			return err
		}
		if err := r.check(r.phase); err != nil {
			return err
		}
	}
	if cfg.Drain && !cfg.SkipKill {
		if err := r.drainLeg(); err != nil {
			return err
		}
	}

	for _, pl := range r.live() {
		if d := pl.Group().Durable(); d > r.rep.FinalDurable {
			r.rep.FinalDurable = d
		}
	}
	for _, sn := range r.stores {
		for _, ev := range sn.Sup.Events() {
			if ev.Exempt {
				r.rep.ExemptRestores++
			}
		}
	}
	r.rep.EvacTTRp50, r.rep.EvacTTRp99, r.rep.EvacMax = percentiles(r.rep.EvacTTRs)
	r.rep.LinkDropped, r.rep.LinkInjected = r.dir.LinkFaults()
	return nil
}

// killLeg kills the busiest store's device permanently and polls the
// placer until every resident is re-homed.
func (r *placeRun) killLeg() error {
	r.at("store kill")
	// Victim: the store holding the most primaries (maximal storm).
	resident := residents(r.placer.Placements())
	victim := busiest(resident, r.stores)
	r.rep.Victim = victim.Name
	r.rep.Residents = resident[victim]
	residents := make([]uint64, 0, resident[victim])
	for _, pl := range r.placer.Placements() {
		if pl.Primary() == victim {
			residents = append(residents, pl.Lineage)
		}
	}

	r.bench[victim].fd.Down()
	if err := r.check("store kill"); err != nil {
		return err
	}

	// Poll until the storm drains. Each poll probes every store once
	// (DownAfter consecutive failures declare the death) and processes
	// a bounded slice of the evacuation/repair queues.
	maxPolls := 16 + (r.cfg.Groups/r.cfg.EvacConcurrency)*4
	for poll := 0; poll < maxPolls; poll++ {
		evs := r.placer.Poll()
		r.rep.Polls++
		for _, ev := range evs {
			switch ev.Kind {
			case "evacuated":
				r.rep.Evacuated++
				r.rep.EvacTTRs = append(r.rep.EvacTTRs, ev.TTR)
			case "repaired":
				r.rep.Repaired++
			}
			if ev.Kind == "evac-failed" && ev.Err != nil && !errors.Is(ev.Err, core.ErrNoFeasiblePlacement) {
				return fmt.Errorf("evacuating lineage %d: %w", ev.Lineage, ev.Err)
			}
		}
		evac, repair := r.placer.QueueDepths()
		if evac > 0 {
			// Mid-storm: queued lineages must surface the typed error.
			for _, lin := range residents {
				if _, err := r.placer.Lookup(lin); errors.Is(err, core.ErrEvacuating) {
					r.rep.Evacuating++
					break
				}
			}
		}
		if victim.State() == core.StoreDown && evac == 0 && repair == 0 {
			break
		}
	}
	if evac, repair := r.placer.QueueDepths(); evac != 0 || repair != 0 {
		return fmt.Errorf("storm did not drain (evac %d, repair %d after %d polls)", evac, repair, r.rep.Polls)
	}

	// Every resident must be re-homed and bit-identical.
	r.at("post-evacuation")
	if err := r.rehomed(residents, victim); err != nil {
		return err
	}
	for _, lin := range residents {
		if pl, _ := r.placer.Lookup(lin); len(pl.Replicas()) < r.cfg.Replicas-1 {
			r.rep.Degraded++
		}
	}
	return r.check(r.phase)
}

// drainLeg decommissions the active store with the fewest residents:
// every resident lineage live-migrates off, replica roles re-home, the
// store fences, and the moved lineages stay bit-identical.
func (r *placeRun) drainLeg() error {
	r.at("drain")
	resident := residents(r.live())
	// Drain a store outside the dead victim's failure domain: with the
	// victim's domain already short a store, draining inside it can
	// leave lineages there with no anti-affine migration target.
	var victimDomain string
	for _, sn := range r.stores {
		if sn.Name == r.rep.Victim {
			victimDomain = sn.Domain
		}
	}
	var target *core.StoreNode
	for _, sn := range r.stores {
		if sn.State() != core.StoreActive || sn.Domain == victimDomain {
			continue
		}
		if target == nil || resident[sn] < resident[target] ||
			(resident[sn] == resident[target] && sn.Name < target.Name) {
			target = sn
		}
	}
	if target == nil {
		return nil
	}
	moved := make([]uint64, 0, resident[target])
	for _, pl := range r.live() {
		if pl.Primary() == target {
			moved = append(moved, pl.Lineage)
		}
	}
	evs, err := r.placer.Drain(target)
	if err != nil {
		return fmt.Errorf("draining %s: %w", target.Name, err)
	}
	for _, ev := range evs {
		if ev.Kind == "migrated" {
			r.rep.Drained++
		}
	}
	if target.State() != core.StoreFenced {
		return fmt.Errorf("%s state %s after drain, want fenced", target.Name, target.State())
	}
	r.at("post-drain")
	if err := r.rehomed(moved, target); err != nil {
		return err
	}
	return r.check(r.phase)
}

// --- Sweep -----------------------------------------------------------

// PlacementPoint is one cell of the placement matrix.
type PlacementPoint struct {
	Stores       int     `json:"stores"`
	LinkFaultPct float64 `json:"link_fault_pct"`
	Groups       int     `json:"groups"`
	Residents    int     `json:"residents_on_victim"`
	Evacuated    int     `json:"evacuated"`
	Repaired     int     `json:"repaired"`
	Degraded     int     `json:"degraded"`
	Polls        int     `json:"polls"`
	Verified     int     `json:"restores_verified"`
	Drained      int     `json:"drained"`
	EvacTTRp50us float64 `json:"evac_ttr_p50_us"`
	EvacTTRp99us float64 `json:"evac_ttr_p99_us"`
	EvacTTRMaxus float64 `json:"evac_ttr_max_us"`
	LinkDropped  int64   `json:"link_dropped"`
	LinkInjected int64   `json:"link_injected"`
}

// PlacementSweep runs the placement chaos matrix: fleet size × link
// fault rate (store fault rates ride along at rate/5, like the
// migration sweep), with a store kill and a drain in every cell.
func PlacementSweep(groups int, stores []int, rates []float64, seed int64) ([]PlacementPoint, error) {
	var out []PlacementPoint
	for _, n := range stores {
		for _, rate := range rates {
			cfg := PlacementChaosConfig{
				Seed:          seed,
				Stores:        n,
				Groups:        groups,
				Drain:         n > 2, // a 2-store fleet has nowhere to drain to
				LinkDrop:      rate,
				LinkDup:       rate / 2,
				LinkCorrupt:   rate / 2,
				StoreWriteErr: rate / 5,
				StoreReadErr:  rate / 5,
			}
			rep, err := PlacementChaosRun(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: placement sweep stores=%d rate=%g: %w", n, rate, err)
			}
			out = append(out, PlacementPoint{
				Stores:       n,
				LinkFaultPct: rate * 100,
				Groups:       rep.Groups,
				Residents:    rep.Residents,
				Evacuated:    rep.Evacuated,
				Repaired:     rep.Repaired,
				Degraded:     rep.Degraded,
				Polls:        rep.Polls,
				Verified:     rep.RestoresVerified,
				Drained:      rep.Drained,
				EvacTTRp50us: float64(rep.EvacTTRp50.Microseconds()),
				EvacTTRp99us: float64(rep.EvacTTRp99.Microseconds()),
				EvacTTRMaxus: float64(rep.EvacMax.Microseconds()),
				LinkDropped:  rep.LinkDropped,
				LinkInjected: rep.LinkInjected,
			})
		}
	}
	return out, nil
}
