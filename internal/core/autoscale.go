package core

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aurora/internal/storage"
)

// This file implements elasticity on top of the PR 9 placement control
// plane: the Autoscaler decides WHEN the fleet should grow or shrink,
// the Placer decides WHERE everything lives. The autoscaler is a
// control loop on its own detached clock lane that samples per-store
// utilization signals — space use, resident-primary load, evacuation
// backlog, checkpoint admission sheds — into a sliding window and
// drives three actions:
//
//   - Scale-out: when the fleet-wide high-watermark utilization (or
//     the shed rate) holds above the high target for the whole window,
//     a provisioned StoreNode is admitted from the warm pool and
//     seeded via paced rebalance. A pool node that fails its admission
//     probe is skipped with a recorded decision — a warm spare can be
//     dead on arrival.
//   - Scale-in: when every store holds below the low target for the
//     whole window, the emptiest store (from the best-populated
//     failure domain, so shrinking never breaks anti-affinity
//     feasibility) drains through the live-migration path one step per
//     tick. A drain that hits ErrNoFeasiblePlacement, or a fleet that
//     re-pressurizes mid-drain, rolls back: the store is re-admitted
//     via Undrain with its wires re-handshaken, leaving zero fenced
//     survivors.
//   - Continuous rebalance: every idle tick runs one budgeted
//     RebalanceTick, so drift heals in the background without an
//     operator poke and without starving foreground checkpoints.
//
// Hysteresis comes from three mechanisms stacked: the window (a
// trigger must hold for Window consecutive samples), the cooldown (no
// new scale action for Cooldown ticks after one completes), and the
// window reset (every completed action clears the sample history, so
// the next decision is made from post-action evidence only). The
// exactly-one-primary-at-max-gen and durable-monotone invariants are
// audited every tick; violations are recorded and surface through
// InvariantViolations for the chaos gate to assert empty.

// ErrScalingInProgress refuses a manual scale verb while another scale
// action is mid-flight (CLI exit code 12).
var ErrScalingInProgress = errors.New("core: scale action already in progress")

// ScaleDecision records one autoscaler tick's decision — the
// observability trail the chaos gate and the CLI read.
type ScaleDecision struct {
	Tick    uint64
	At      time.Duration // autoscaler lane time
	Action  string        // "hold", "seeding", "draining", "scale-out", "scale-out-skipped", "scale-out-done", "scale-in-begin", "scale-in-done", "scale-in-rollback", "scale-in-stalled"
	Store   string        // the store acted on, when any
	Reason  string
	Util    float64 // fleet high-watermark utilization at decision time
	Sheds   int64   // checkpoint admissions shed since the previous tick
	Backlog int     // evacuation + repair queue depth
	Moves   int     // rebalance migrations performed this tick
	Err     error
}

// StoreSignal is one store's slice of an autoscaler sample.
type StoreSignal struct {
	Store     string
	Domain    string
	State     StoreState
	Util      float64 // composite utilization (space vs primary load)
	SpaceFrac float64
	Primaries int

	node *StoreNode
}

// AutoscaleSignals is one control-loop sample of the fleet.
type AutoscaleSignals struct {
	Tick     uint64
	At       time.Duration
	Active   int     // stores in StoreActive
	Util     float64 // max utilization over non-draining active stores
	MinUtil  float64 // min utilization over active stores
	Sheds    int64   // admission sheds since the previous sample
	Backlog  int     // evacuation + repair queue depth
	PerStore []StoreSignal
}

// The control loop's fixed thresholds. No caller ever set them, so they
// are constants, not configuration.
const (
	// ScaleOutUtil is the scale-out trigger: fleet high-watermark
	// utilization at or above this for a full window admits a store. It
	// is also the mid-drain rollback threshold and the pressure level a
	// fresh store is seeded down to.
	ScaleOutUtil = 0.85
	// scaleInUtil is the scale-in trigger: every active store below this
	// for a full window drains one.
	scaleInUtil = 0.30
	// scaleOutSheds is the alternate scale-out trigger, in checkpoint
	// admission sheds per tick held for a full window: admission control
	// actively refusing barriers is overload regardless of what
	// utilization claims.
	scaleOutSheds = 1
	// seedTicksMax bounds the seeding phase after a scale-out before the
	// autoscaler returns to idle regardless.
	seedTicksMax = 16
	// scaleTickInterval is the lane time one tick represents —
	// convergence times are measured in this virtual time.
	scaleTickInterval = 500 * time.Microsecond
)

// AutoscalerConfig tunes the control loop. Zero values select defaults
// (NewAutoscaler fills them in).
type AutoscalerConfig struct {
	// Window is the sliding sample window a trigger must hold through
	// (default 3 ticks).
	Window int
	// Cooldown is the tick count after a completed scale action during
	// which no new action starts (default 2).
	Cooldown int
	// MinStores / MaxStores bound the active fleet (defaults 2 /
	// unbounded).
	MinStores int
	MaxStores int
	// RebalanceBudget caps background rebalance migrations per tick
	// (default 1).
	RebalanceBudget int
	// DrainBudget caps scale-in migrations per tick (default 2).
	DrainBudget int
}

// phase names the scale action in flight. It is read off the store the
// action is about — at most one of seedStore and drainStore is set —
// not kept beside them.
func (a *Autoscaler) phase() string {
	switch {
	case a.seedStore != nil:
		return "scaling-out"
	case a.drainStore != nil:
		return "scaling-in"
	}
	return "idle"
}

// AutoscaleStatus is the loop's visible state (the CLI's autoscale
// status view).
type AutoscaleStatus struct {
	Phase        string
	Tick         uint64
	At           time.Duration
	Active       int
	Target       int // active count the current phase is converging to
	Pool         int // warm spares remaining
	Util         float64
	Draining     string // store mid-scale-in, when any
	Seeding      string // store mid-scale-out, when any
	CooldownLeft int
}

// Autoscaler is the elasticity control loop over one Placer.
type Autoscaler struct {
	p   *Placer
	cfg AutoscalerConfig

	mu        sync.Mutex
	lane      *storage.Clock
	pool      []*StoreNode // warm spares, admission order
	tick      uint64
	window    []AutoscaleSignals
	decisions []ScaleDecision

	cooldownUntil uint64
	seedStore     *StoreNode
	seedStart     uint64
	drainStore    *StoreNode
	drainRetries  int
	skipUntil     map[*StoreNode]uint64 // rolled-back drainees, backoff

	lastSheds  int64
	durable    DurableWatch // lineage → high-water durable frontier
	violations []string
}

// NewAutoscaler builds the control loop over p. Warm spares are added
// with AddWarmStore; nothing scales until Tick is driven.
func NewAutoscaler(p *Placer, cfg AutoscalerConfig) *Autoscaler {
	cfg.Window = cmp.Or(cfg.Window, 3)
	cfg.Cooldown = cmp.Or(cfg.Cooldown, 2)
	cfg.MinStores = cmp.Or(cfg.MinStores, 2)
	cfg.RebalanceBudget = cmp.Or(cfg.RebalanceBudget, 1)
	cfg.DrainBudget = cmp.Or(cfg.DrainBudget, 2)
	return &Autoscaler{
		p:         p,
		cfg:       cfg,
		lane:      storage.NewClock(),
		skipUntil: make(map[*StoreNode]uint64),
		durable:   make(DurableWatch),
	}
}

// AddWarmStore provisions a spare: built and labeled but not admitted.
// Scale-out pops spares in provisioning order.
func (a *Autoscaler) AddWarmStore(n *StoreNode) error {
	if n.Name == "" || n.Domain == "" {
		return fmt.Errorf("core: warm store needs a name and a failure domain")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pool = append(a.pool, n)
	return nil
}

// PoolSize reports the remaining warm spares.
func (a *Autoscaler) PoolSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pool)
}

// Decisions returns every decision recorded so far.
func (a *Autoscaler) Decisions() []ScaleDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ScaleDecision(nil), a.decisions...)
}

// Signals returns the current sample window, oldest first.
func (a *Autoscaler) Signals() []AutoscaleSignals {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AutoscaleSignals(nil), a.window...)
}

// InvariantViolations returns every invariant audit failure observed
// across all ticks. The chaos gate asserts this stays empty.
func (a *Autoscaler) InvariantViolations() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.violations...)
}

// Status reports the loop's visible state.
func (a *Autoscaler) Status() AutoscaleStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AutoscaleStatus{
		Phase: a.phase(),
		Tick:  a.tick,
		At:    a.lane.Now(),
		Pool:  len(a.pool),
	}
	for _, s := range a.activeStores() {
		st.Active++
		st.Util = max(st.Util, s.Util)
	}
	st.Target = st.Active
	if a.seedStore != nil {
		st.Seeding = a.seedStore.Name
	}
	if a.drainStore != nil {
		st.Draining = a.drainStore.Name
		st.Target = st.Active - 1
	}
	if a.cooldownUntil > a.tick {
		st.CooldownLeft = int(a.cooldownUntil - a.tick)
	}
	return st
}

// activeStores reads the fleet and keeps the StoreActive stores.
func (a *Autoscaler) activeStores() []StoreSignal {
	stores, _, _ := a.p.signals()
	return activeOf(stores)
}

func activeOf(stores []StoreSignal) []StoreSignal {
	var out []StoreSignal
	for _, s := range stores {
		if s.State == StoreActive {
			out = append(out, s)
		}
	}
	return out
}

// sample reads one AutoscaleSignals snapshot — one consistent reading
// of the placer — and appends it to the window. Caller holds a.mu.
func (a *Autoscaler) sample() AutoscaleSignals {
	sig := AutoscaleSignals{Tick: a.tick, At: a.lane.Now(), MinUtil: -1}
	var sheds int64
	sig.PerStore, sig.Backlog, sheds = a.p.signals()
	// Evacuations replace groups (resetting their shed counters), so
	// clamp the delta at zero rather than reporting a negative rate.
	sig.Sheds = max(sheds-a.lastSheds, 0)
	a.lastSheds = sheds

	for _, ss := range sig.PerStore {
		if ss.State != StoreActive {
			continue
		}
		sig.Active++
		if sig.MinUtil < 0 || ss.Util < sig.MinUtil {
			sig.MinUtil = ss.Util
		}
		// The high-watermark excludes the drainee: a store being
		// emptied reads hot while its residents leave, and that must
		// not mask (or fake) fleet pressure.
		if ss.node != a.drainStore {
			sig.Util = max(sig.Util, ss.Util)
		}
	}
	sig.MinUtil = max(sig.MinUtil, 0)

	a.window = append(a.window, sig)
	if w := a.cfg.Window; len(a.window) > w {
		a.window = a.window[len(a.window)-w:]
	}
	return sig
}

// audit asserts the two PR 8 invariants (invariant.go) across the fleet
// after this tick's actions: durable never regresses along a lineage,
// and exactly one store claims the primary role for it at the max
// generation. Caller holds a.mu.
func (a *Autoscaler) audit() {
	stores := a.p.Stores()
	for _, pl := range a.p.Placements() {
		if _, err := a.p.Lookup(pl.Lineage); err != nil {
			continue // mid-evacuation or lost: audited once re-homed
		}
		for _, err := range []error{a.durable.Observe(pl.Lineage, pl.Group().Durable()), CheckOnePrimary(pl.Lineage, stores)} {
			if err != nil {
				a.violations = append(a.violations, fmt.Sprintf("tick %d: %v", a.tick, err))
			}
		}
	}
}

// Tick runs one control-loop round: advance the lane, poll the placer
// (deaths and evacuations feed the signals), sample, decide, and run
// the background rebalance pacer. It returns this tick's decision and
// every placer event the tick produced.
func (a *Autoscaler) Tick() (ScaleDecision, []PlacerEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tick++
	a.lane.Advance(scaleTickInterval)

	evs := a.p.Poll()
	sig := a.sample()
	dec := ScaleDecision{Tick: a.tick, At: sig.At, Util: sig.Util, Sheds: sig.Sheds, Backlog: sig.Backlog}

	switch {
	case a.seedStore != nil:
		a.seedTick(&dec, sig)
	case a.drainStore != nil:
		evs = append(evs, a.drainTick(&dec, sig)...)
	default:
		a.decide(&dec, sig)
	}

	// Background pacer: paced rebalance runs through idle and seeding
	// ticks (seeding IS rebalance toward the fresh store) but stays
	// out of a drain's way.
	if a.drainStore == nil {
		opts := RebalanceOpts{Budget: a.cfg.RebalanceBudget}
		if a.seedStore != nil {
			opts.HighWater = ScaleOutUtil
		}
		revs, _ := a.p.RebalanceTick(opts)
		for _, ev := range revs {
			if ev.Kind == "rebalanced" && ev.Err == nil {
				dec.Moves++
			}
		}
		evs = append(evs, revs...)
	}

	a.audit()
	a.decisions = append(a.decisions, dec)
	return dec, evs
}

// decide runs the idle-phase trigger logic. Caller holds a.mu.
func (a *Autoscaler) decide(dec *ScaleDecision, sig AutoscaleSignals) {
	dec.Action = "hold"
	if a.tick < a.cooldownUntil {
		dec.Reason = "cooldown"
		return
	}
	w := a.cfg.Window
	if len(a.window) < w {
		dec.Reason = "window filling"
		return
	}
	recent := a.window[len(a.window)-w:]

	allHigh, allShed, allLow := true, true, true
	for _, s := range recent {
		if s.Util < ScaleOutUtil {
			allHigh = false
		}
		if float64(s.Sheds) < scaleOutSheds {
			allShed = false
		}
		if s.Util >= scaleInUtil {
			allLow = false
		}
	}

	if allHigh || allShed {
		if a.cfg.MaxStores > 0 && sig.Active >= a.cfg.MaxStores {
			dec.Reason = "at max stores"
			return
		}
		reason := "high-watermark held above target"
		if !allHigh {
			reason = "shed rate held above target"
		}
		a.scaleOut(dec, reason)
		return
	}

	if allLow {
		if sig.Active <= a.cfg.MinStores {
			dec.Reason = "at min stores"
			return
		}
		if sig.Backlog > 0 {
			dec.Reason = "evacuation backlog"
			return
		}
		a.scaleIn(dec, activeOf(sig.PerStore))
		return
	}
	dec.Reason = "within band"
}

// scaleOut admits the first healthy warm spare. Dead spares are
// skipped with their own recorded decisions — the chaos gate injects
// one deliberately. Caller holds a.mu.
func (a *Autoscaler) scaleOut(dec *ScaleDecision, reason string) {
	skipped := func(n *StoreNode, reason string, err error) {
		a.decisions = append(a.decisions, ScaleDecision{
			Tick: a.tick, At: a.lane.Now(), Action: "scale-out-skipped", Store: n.Name, Reason: reason, Err: err,
		})
	}
	for len(a.pool) > 0 {
		n := a.pool[0]
		a.pool = a.pool[1:]
		// A flaky (fault-injected) spare may fail one probe without
		// being dead; only a spare that fails every roll is discarded.
		var perr error
		for attempt := 0; attempt < 3; attempt++ {
			if perr = a.p.probe(n); perr == nil {
				break
			}
		}
		if perr != nil {
			skipped(n, "warm spare failed admission probe", perr)
			continue
		}
		if err := a.p.AddStore(n); err != nil {
			skipped(n, "admission failed", err)
			continue
		}
		dec.Action = "scale-out"
		dec.Store = n.Name
		dec.Reason = reason
		a.seedStore = n
		a.seedStart = a.tick
		return
	}
	dec.Action = "hold"
	dec.Reason = "warm pool empty"
}

// seedTick runs one scaling-out tick: the pacer (run by Tick after
// this) shifts load toward the fresh store; seeding completes when the
// fleet pressure is relieved, the new store carries its share, or the
// seed budget runs out. Caller holds a.mu.
func (a *Autoscaler) seedTick(dec *ScaleDecision, sig AutoscaleSignals) {
	n := a.seedStore
	dec.Store = n.Name
	share, carries := 0, 0
	for _, s := range sig.PerStore {
		if s.State == StoreActive {
			share += s.Primaries
		}
		if s.node == n {
			carries = s.Primaries
		}
	}
	share /= max(sig.Active, 1)
	switch {
	case n.State() != StoreActive:
		// The fresh store died during seeding; the placer's passes
		// re-home its residents. Back to idle; let the window refill.
		dec.Reason = "seed store left active state"
	case sig.Util < ScaleOutUtil:
		dec.Reason = "pressure relieved"
	case carries >= share && share > 0:
		dec.Reason = "seed store carries its share"
	case a.tick-a.seedStart >= seedTicksMax:
		dec.Reason = "seed budget exhausted"
	default:
		dec.Action = "seeding"
		return
	}
	dec.Action = "scale-out-done"
	a.finishAction()
}

// scaleIn picks the drainee among the active stores of a fleet reading
// and begins the drain. The candidate is the emptiest active store
// whose removal keeps at least Replicas distinct failure domains alive,
// preferring the best-populated domain so shrinking never strands
// anti-affinity. Caller holds a.mu.
func (a *Autoscaler) scaleIn(dec *ScaleDecision, active []StoreSignal) {
	domains := make(map[string]int)
	for _, s := range active {
		domains[s.Domain]++
	}
	var cands []StoreSignal
	for _, s := range active {
		left := len(domains)
		if domains[s.Domain] == 1 {
			left--
		}
		if a.skipUntil[s.node] <= a.tick && left >= a.p.cfg.Replicas {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		dec.Action = "hold"
		dec.Reason = "no drainable store (anti-affinity or backoff)"
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		di, dj := domains[cands[i].Domain], domains[cands[j].Domain]
		if di != dj {
			return di > dj // best-populated domain first
		}
		if cands[i].Util != cands[j].Util {
			return cands[i].Util < cands[j].Util // emptiest first
		}
		return cands[i].Store < cands[j].Store
	})
	n := cands[0].node
	if err := a.beginDrain(dec, n, "utilization held below target"); err != nil {
		dec.Action = "hold"
		dec.Store = n.Name
		dec.Reason = "drain refused"
		dec.Err = err
	}
}

// beginDrain starts the scale-in of n; the following Ticks advance it.
// Caller holds a.mu.
func (a *Autoscaler) beginDrain(dec *ScaleDecision, n *StoreNode, reason string) error {
	if err := a.p.BeginDrain(n); err != nil {
		return err
	}
	dec.Action = "scale-in-begin"
	dec.Store = n.Name
	dec.Reason = reason
	a.drainStore = n
	a.drainRetries = 0
	return nil
}

// drainTick advances (or rolls back) a scale-in by one step. Caller
// holds a.mu.
func (a *Autoscaler) drainTick(dec *ScaleDecision, sig AutoscaleSignals) []PlacerEvent {
	n := a.drainStore
	dec.Store = n.Name
	if n.State() != StoreDraining {
		// The drainee died (or was fenced externally) mid-drain; Poll
		// already handles a dead store's residents.
		dec.Action = "scale-in-done"
		dec.Reason = fmt.Sprintf("drainee left draining state (%s)", n.State())
		a.finishAction()
		return nil
	}
	if sig.Util >= ScaleOutUtil {
		// The fleet re-pressurized mid-drain (burst arrivals, or a
		// store death re-homing load): removing capacity now is wrong.
		// Roll back immediately — aborting a drain is cheap, so this
		// uses the instantaneous signal, not the window.
		a.rollback(dec, "fleet re-pressurized mid-drain", nil)
		return nil
	}
	evs, done, err := a.p.DrainStep(n, a.cfg.DrainBudget)
	switch {
	case errors.Is(err, ErrNoFeasiblePlacement):
		a.rollback(dec, "drain hit no-feasible-placement", err)
	case err != nil && a.drainRetries >= 3:
		a.rollback(dec, "drain stalled past retry budget", err)
	case err != nil:
		a.drainRetries++
		dec.Action = "scale-in-stalled"
		dec.Reason = "drain step failed, retrying"
		dec.Err = err
	case done:
		dec.Action = "scale-in-done"
		dec.Reason = "store emptied and fenced"
		a.finishAction()
	default:
		dec.Action = "draining"
	}
	return evs
}

// rollback aborts the scale-in in flight: the drainee is re-admitted
// with its wires re-handshaken (Undrain), kept out of the next picks
// for a while, and the loop returns to idle. Caller holds a.mu.
func (a *Autoscaler) rollback(dec *ScaleDecision, reason string, cause error) {
	dec.Action = "scale-in-rollback"
	dec.Reason = reason
	dec.Err = errors.Join(cause, a.p.Undrain(a.drainStore))
	a.skipUntil[a.drainStore] = a.tick + 4*uint64(a.cfg.Cooldown)
	a.finishAction()
}

// finishAction returns to idle, arms the cooldown, and clears the
// sample window so the next decision is made from post-action
// evidence only. Caller holds a.mu.
func (a *Autoscaler) finishAction() {
	a.seedStore = nil
	a.drainStore = nil
	a.drainRetries = 0
	a.cooldownUntil = a.tick + uint64(a.cfg.Cooldown)
	a.window = nil
}

// ScaleOut manually admits one warm spare, bypassing the window but
// not the phase machine: a scale action already in flight refuses with
// ErrScalingInProgress.
func (a *Autoscaler) ScaleOut() (ScaleDecision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ph := a.phase(); ph != "idle" {
		return ScaleDecision{}, fmt.Errorf("core: %s: %w", ph, ErrScalingInProgress)
	}
	dec := ScaleDecision{Tick: a.tick, At: a.lane.Now()}
	if a.cfg.MaxStores > 0 && len(a.activeStores()) >= a.cfg.MaxStores {
		return ScaleDecision{}, fmt.Errorf("core: fleet at max stores (%d): %w", a.cfg.MaxStores, ErrNoFeasiblePlacement)
	}
	a.scaleOut(&dec, "manual scale-out")
	a.decisions = append(a.decisions, dec)
	if dec.Action != "scale-out" {
		return dec, fmt.Errorf("core: scale-out: %s: %w", dec.Reason, ErrNoFeasiblePlacement)
	}
	return dec, nil
}

// ScaleIn manually begins draining the named store (or the
// autoscaler's own pick when name is empty). Refuses with
// ErrScalingInProgress while another action is in flight; subsequent
// Ticks advance the drain.
func (a *Autoscaler) ScaleIn(name string) (ScaleDecision, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ph := a.phase(); ph != "idle" {
		return ScaleDecision{}, fmt.Errorf("core: %s: %w", ph, ErrScalingInProgress)
	}
	dec := ScaleDecision{Tick: a.tick, At: a.lane.Now()}
	active := a.activeStores()
	if len(active) <= a.cfg.MinStores {
		return ScaleDecision{}, fmt.Errorf("core: fleet at min stores (%d): %w", a.cfg.MinStores, ErrNoFeasiblePlacement)
	}
	if name == "" {
		a.scaleIn(&dec, active)
	} else {
		n, err := a.p.Node(name)
		if err != nil {
			return ScaleDecision{}, err
		}
		if err := a.beginDrain(&dec, n, "manual scale-in"); err != nil {
			return ScaleDecision{}, err
		}
	}
	a.decisions = append(a.decisions, dec)
	if dec.Action != "scale-in-begin" {
		return dec, fmt.Errorf("core: scale-in: %s: %w", dec.Reason, ErrNoFeasiblePlacement)
	}
	return dec, nil
}
