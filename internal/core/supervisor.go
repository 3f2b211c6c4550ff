package core

import (
	"sync"
	"time"

	"aurora/internal/kernel"
)

// Supervisor is the SLS's crash-recovery daemon: it watches
// persistence groups for processes that died with an error and
// restores them from the newest good durable epoch. This closes the
// paper's loop — applications persist continuously, so a crash costs
// at most one epoch of work and no application-level recovery code:
// the supervisor simply restores the last checkpoint and resumes.
//
// Restarts are budgeted: each recovery backs off exponentially
// (charged to the virtual clock) and a group that keeps crashing
// faster than its budget window refills is declared a crash loop and
// given up on, rather than burning the machine re-restoring a
// checkpoint whose state deterministically re-crashes.
//
// The supervisor is polling-based: the simulation is cooperative, so
// Poll is called from the driving loop (or a CLI command) rather than
// from a background thread racing the virtual clock.

// SupervisorConfig tunes restart policy. Zero values select defaults.
type SupervisorConfig struct {
	// MaxRestarts is the restart budget per window (default 5).
	MaxRestarts int
	// BackoffBase is the first restart's backoff; doubles per restart
	// within a window (default 100µs virtual).
	BackoffBase time.Duration
	// Window is the virtual-time span after which a quiet group's
	// restart budget refills (default 1s virtual).
	Window time.Duration
}

func (c SupervisorConfig) maxRestarts() int {
	if c.MaxRestarts > 0 {
		return c.MaxRestarts
	}
	return 5
}

func (c SupervisorConfig) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 100 * time.Microsecond
}

func (c SupervisorConfig) window() time.Duration {
	if c.Window > 0 {
		return c.Window
	}
	return time.Second
}

// SupervisorEvent records one recovery attempt.
type SupervisorEvent struct {
	Group    uint64 // the crashed group
	NewGroup uint64 // the restored group (0 when the attempt failed)
	Restarts int    // restarts consumed in the current window, inclusive
	GaveUp   bool   // crash loop: budget exhausted, watch dropped
	Fenced   bool   // fenced elsewhere (migrated away): watch dropped, no restore
	Exempt   bool   // evacuation-initiated: restored without charging the budget
	Err      error  // non-nil when the restore itself failed
}

type watchState struct {
	g           *Group
	restarts    int
	windowStart time.Duration
	backoff     time.Duration
	gaveUp      bool
}

// Supervisor watches groups and auto-restores crashed ones.
type Supervisor struct {
	o   *Orchestrator
	cfg SupervisorConfig

	mu      sync.Mutex
	watches map[uint64]*watchState // keyed by the watched group's ID
	events  []SupervisorEvent
	exempt  func(*Group) bool // evacuation predicate; see ExemptEvacuations
}

// NewSupervisor creates a supervisor over the orchestrator's groups.
func NewSupervisor(o *Orchestrator, cfg SupervisorConfig) *Supervisor {
	return &Supervisor{o: o, cfg: cfg, watches: make(map[uint64]*watchState)}
}

// Watch adds a group to the supervised set. The watch follows the
// group across recoveries: when a crash is restored, the new group is
// watched in the old one's place.
func (s *Supervisor) Watch(g *Group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.watches[g.ID]; ok {
		return
	}
	s.watches[g.ID] = &watchState{
		g:           g,
		windowStart: s.o.K.Clock.Now(),
		backoff:     s.cfg.backoffBase(),
	}
}

// ExemptEvacuations installs a predicate identifying groups whose
// crash cause is a dying or draining *store* rather than the
// application itself. Recoveries of exempt groups restore without
// charging the crash-loop restart budget: the budget exists to stop a
// deterministically re-crashing workload from burning the machine, and
// an evacuation-initiated crash says nothing about the workload — a
// mass evacuation that exhausted per-lineage budgets would strand
// perfectly healthy groups in crash-loop give-up. The placement
// control plane installs this when it adopts the store.
func (s *Supervisor) ExemptEvacuations(pred func(*Group) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exempt = pred
}

// Unwatch drops a group from the supervised set.
func (s *Supervisor) Unwatch(g *Group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.watches, g.ID)
}

// Release atomically removes a group from the supervised set as part
// of a migration handover, reporting whether it was watched. Unlike
// Unwatch it exists to be called by the migrator at the fencing
// point: a group whose lineage now lives on another machine must
// never be auto-restored here, even if its corpse later reports a
// crash. (Poll independently refuses fenced groups, so the release
// and a racing crash-restart cannot resurrect a zombie either way.)
func (s *Supervisor) Release(g *Group) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.watches[g.ID]
	delete(s.watches, g.ID)
	return ok
}

// Watched lists the IDs of currently supervised groups (crash-looped
// groups that were given up on are excluded).
func (s *Supervisor) Watched() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.watches))
	for id, ws := range s.watches {
		if !ws.gaveUp {
			out = append(out, id)
		}
	}
	return out
}

// Events returns every recovery event recorded so far.
func (s *Supervisor) Events() []SupervisorEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SupervisorEvent(nil), s.events...)
}

// crashed reports whether every member process of the group has
// exited and at least one exited with an error. A group whose members
// all exited cleanly is done, not crashed.
func (s *Supervisor) crashed(g *Group) bool {
	pids := g.PIDs()
	if len(pids) == 0 {
		return false
	}
	sawError := false
	for _, pid := range pids {
		p, err := s.o.K.Process(pid)
		if err != nil {
			// Reaped: gone from the process table. Treat like a clean
			// exit unless another member says otherwise.
			continue
		}
		if p.State() != kernel.ProcZombie {
			return false
		}
		if p.ExitCode != 0 {
			sawError = true
		}
	}
	return sawError
}

// Poll scans the supervised groups once, restoring any that crashed.
// It returns the events generated by this scan.
func (s *Supervisor) Poll() []SupervisorEvent {
	s.mu.Lock()
	pending := make([]*watchState, 0, len(s.watches))
	for _, ws := range s.watches {
		if !ws.gaveUp {
			pending = append(pending, ws)
		}
	}
	s.mu.Unlock()

	var out []SupervisorEvent
	for _, ws := range pending {
		if _, _, fenced := ws.g.Fenced(); fenced {
			// The lineage was handed to another machine (migration or
			// promotion) after this group was watched: restoring it here
			// would resurrect a zombie copy that every store and replica
			// will fence anyway. Drop the watch instead.
			s.mu.Lock()
			delete(s.watches, ws.g.ID)
			s.mu.Unlock()
			out = append(out, SupervisorEvent{Group: ws.g.ID, Fenced: true})
			continue
		}
		if !s.crashed(ws.g) {
			continue
		}
		ev := s.recover(ws)
		out = append(out, ev)
	}
	if len(out) > 0 {
		s.mu.Lock()
		s.events = append(s.events, out...)
		s.mu.Unlock()
	}
	return out
}

// recover runs one recovery attempt for a crashed group.
func (s *Supervisor) recover(ws *watchState) SupervisorEvent {
	clock := s.o.K.Clock
	now := clock.Now()
	if now-ws.windowStart > s.cfg.window() {
		// The group ran quietly past a full window: refill the budget.
		ws.restarts = 0
		ws.windowStart = now
		ws.backoff = s.cfg.backoffBase()
	}
	s.mu.Lock()
	pred := s.exempt
	s.mu.Unlock()
	exempt := pred != nil && pred(ws.g)
	if !exempt {
		if ws.restarts >= s.cfg.maxRestarts() {
			ws.gaveUp = true
			s.mu.Lock()
			delete(s.watches, ws.g.ID)
			s.mu.Unlock()
			return SupervisorEvent{Group: ws.g.ID, Restarts: ws.restarts, GaveUp: true}
		}

		// Crash-loop backoff, charged to virtual time: a hot-looping
		// group pays increasing delay before each resurrection.
		clock.Advance(ws.backoff)
		ws.backoff *= 2
		ws.restarts++
	}

	// Re-check the fence after the backoff: a migration handover racing
	// this recovery may have fenced the group between the Poll scan and
	// here, and restoring past that point would split the brain.
	if _, _, fenced := ws.g.Fenced(); fenced {
		s.mu.Lock()
		delete(s.watches, ws.g.ID)
		s.mu.Unlock()
		return SupervisorEvent{Group: ws.g.ID, Restarts: ws.restarts, Fenced: true}
	}

	old := ws.g
	// Validate: a supervisor restoring a crashed group must not resurrect
	// it from a corrupt image.
	ng, _, err := s.o.Restore(old, 0, RestoreOpts{Validate: true})
	if err != nil {
		return SupervisorEvent{Group: old.ID, Restarts: ws.restarts, Exempt: exempt, Err: err}
	}
	// Reap the corpse processes and follow the watch to the new group.
	for _, pid := range old.PIDs() {
		if p, perr := s.o.K.Process(pid); perr == nil && p.State() == kernel.ProcZombie {
			_ = s.o.K.Reap(p)
		}
	}
	s.mu.Lock()
	delete(s.watches, old.ID)
	ws.g = ng
	s.watches[ng.ID] = ws
	s.mu.Unlock()
	return SupervisorEvent{Group: old.ID, NewGroup: ng.ID, Restarts: ws.restarts, Exempt: exempt}
}
