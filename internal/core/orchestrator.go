package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"aurora/internal/kernel"
	"aurora/internal/slsfs"
)

// Orchestrator errors.
var (
	ErrNoGroup      = errors.New("core: no such persistence group")
	ErrNotPersisted = errors.New("core: process not in a persistence group")
	ErrNoBackend    = errors.New("core: persistence group has no backend")
)

// Group is a persistence group: a set of processes (a process tree or
// a container) checkpointed together with one or more backends.
type Group struct {
	ID   uint64
	Name string
	// origin is the group's persistent lineage ID: the group ID under
	// which its newest durable images were written. A freshly persisted
	// group is its own origin; a restored group inherits the ID of the
	// image chain it was restored from, so a crashed group that never
	// checkpointed after a restore can still be restored again (the
	// supervisor's crash-loop case) by falling back to the lineage.
	origin uint64

	// ckptMu serializes serialization barriers on the group, so epochs
	// enter the flush pipeline in order.
	ckptMu sync.Mutex

	mu       sync.Mutex
	pids     map[int]bool
	backends []Backend
	epoch    uint64 // epoch currently being built (last barrier)
	durable  uint64 // newest epoch retired by the flush pipeline
	// everFull records whether a full checkpoint exists, so the first
	// checkpoint of a group is always full.
	everFull bool
	last     *Image // newest image (chain head), for rollback/debug
	ckpts    []CheckpointBreakdown
	// fl is the group's background flush pipeline, created on first
	// use; lastQueued is the newest epoch handed to it (epochs
	// checkpointed with SkipFlush are never queued).
	fl         *flusher
	lastQueued uint64
	// excluded memory region count, for diagnostics (sls_mctl).
	excluded int
	// ntSeq is the group's NT-log sequence counter (sls_ntflush).
	ntSeq uint64

	// generation is the group's store generation: the fencing token
	// stamped into every image it checkpoints. It starts at 1 and only
	// moves when a promotion bumps it (see promote.go).
	generation uint64
	// fencedBy/fenceFloor record that a flush was rejected by a newer
	// generation: this group is a stale primary that was superseded
	// while partitioned. A fenced group refuses new checkpoints;
	// fenceFloor is the new primary's contiguous floor at fencing time
	// (epochs above it are divergent and must be quarantined).
	fencedBy   uint64
	fenceFloor uint64

	// originEpoch is the epoch of the image a restored group came from:
	// the lineage anchor its crash-loop fallback restores would target.
	// Space reclamation must never drop it while this group lives.
	originEpoch uint64

	// quorum is the group's write-quorum policy (see quorum.go). The
	// zero value keeps legacy all-backends durability.
	quorum QuorumPolicy

	// Admission-control counters (guarded by mu): checkpoints shed
	// under space pressure, sheds at the emergency watermark, and the
	// current shed streak (reset by every admitted barrier so the
	// durable frontier keeps advancing under sustained pressure).
	sheds          int64
	emergencySheds int64
	shedStreak     int

	// restorePeers are out-of-band block providers lazy restores may
	// fail over to; sources are the demand-paging sources created by
	// lazy restores of this group (both guarded by mu).
	restorePeers []BlockProvider
	sources      []*lazyPageSource

	// healthMu guards health (per-backend state machine and cursor) and
	// quarantined (epochs that failed restore validation). It is never
	// held across backend I/O; it may be taken inside mu (which may be
	// taken inside the flusher's mu), never the other way round.
	healthMu    sync.Mutex
	health      map[Backend]*backendHealth
	quarantined map[uint64]string
}

// Origin returns the group's persistent lineage ID (see the field).
func (g *Group) Origin() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.origin
}

// originAnchor returns the lineage a restored group came from and the
// epoch it restored at (0, 0 for a group that was never restored).
func (g *Group) originAnchor() (lineage, epoch uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.origin, g.originEpoch
}

// Sheds reports the checkpoints this group's admission control shed
// under space pressure, and how many of those happened at the
// emergency watermark.
func (g *Group) Sheds() (total, emergency int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sheds, g.emergencySheds
}

// pins lists the (lineage, epoch) pairs of store history this group
// reads from outside its own flush frontier, which therefore no
// retention rule may drop while the group lives: the epoch it was
// restored from (its crash-loop fallback), and the epochs its live
// demand-paging sources resolve their pages at — a lazy restore finds
// every page through that epoch's place in the store's history.
func (g *Group) pins() [][2]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out [][2]uint64
	if g.origin != 0 && g.origin != g.ID && g.originEpoch > 0 {
		out = append(out, [2]uint64{g.origin, g.originEpoch})
	}
	for _, s := range g.sources {
		if s.pinGroup != 0 || s.pinEpoch != 0 {
			out = append(out, [2]uint64{s.pinGroup, s.pinEpoch})
		}
	}
	return out
}

// pinnedEpochs lists the epochs of one lineage that live groups pin
// (Group.pins). The space reclaimer honours the same pins through
// protectionFor; this is the form the HistoryLimit trim consults.
func (o *Orchestrator) pinnedEpochs(lineage uint64) []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []uint64
	for _, g := range o.groups {
		for _, pin := range g.pins() {
			if pin[0] == lineage {
				out = append(out, pin[1])
			}
		}
	}
	return out
}

// trimHistory enforces a store backend's HistoryLimit on one lineage,
// passing over the epochs live groups pin. It runs right after every
// delivered flush, where the trim used to sit inside Flush itself.
func (o *Orchestrator) trimHistory(b Backend, lineage uint64) error {
	sb, ok := b.(*StoreBackend)
	if !ok || sb.HistoryLimit <= 0 {
		return nil
	}
	return sb.store.TrimHistory(lineage, sb.HistoryLimit, o.pinnedEpochs(lineage))
}

// Epoch returns the group's current checkpoint epoch.
func (g *Group) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Durable returns the newest epoch flushed to all backends. With the
// background flush pipeline this trails Epoch() while flushes are in
// flight; the two meet after Orchestrator.Sync.
func (g *Group) Durable() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

// QueueDepth reports the number of epochs in the group's flush
// pipeline that have not retired yet (queued, flushing, or stalled
// on or behind a failed flush).
func (g *Group) QueueDepth() int {
	if f := g.pipeline(); f != nil {
		return f.depth()
	}
	return 0
}

// pipeline returns the group's flush pipeline, nil before its first
// queued checkpoint and after Unpersist.
func (g *Group) pipeline() *flusher {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fl
}

// PIDs lists member processes.
func (g *Group) PIDs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.pids))
	for pid := range g.pids {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// Breakdowns returns the recorded checkpoint breakdowns.
func (g *Group) Breakdowns() []CheckpointBreakdown {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]CheckpointBreakdown, len(g.ckpts))
	copy(out, g.ckpts)
	return out
}

// LastImage returns the newest in-memory image (nil when none).
func (g *Group) LastImage() *Image {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// Generation returns the group's store generation (fencing token).
func (g *Group) Generation() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

// Fenced reports whether this group has been fenced off by a newer
// store generation (a promotion elsewhere), and by which generation
// and contiguous floor.
func (g *Group) Fenced() (gen, floor uint64, fenced bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fencedBy, g.fenceFloor, g.fencedBy != 0
}

// markFenced records that a flush of this group was rejected by a
// newer store generation. Idempotent; keeps the highest generation.
func (g *Group) markFenced(gen, floor uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen > g.fencedBy {
		g.fencedBy, g.fenceFloor = gen, floor
	}
}

// Replicated returns the group's replication frontier. Without a
// quorum policy it is the newest epoch actually present on every
// non-ephemeral backend: it equals Durable() while all backends are
// caught up, and is capped at the cursor of a sick or partitioned
// backend that owes epochs — degraded-mode durability keeps Durable()
// advancing on the healthy peer, but output gated on replication must
// wait for the straggler to take what it owes. Under a QuorumPolicy it
// is the newest epoch held by at least W non-ephemeral backends: a
// lagging minority no longer gates external output, because any future
// promotion elects from a surviving quorum that holds the epoch.
func (g *Group) Replicated() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	var floors []uint64
	for _, b := range g.backends {
		if b.Ephemeral() {
			continue
		}
		floor := g.durable
		if h := g.health[b]; h.owes() && h.cursor < floor {
			floor = h.cursor
		}
		floors = append(floors, floor)
	}
	if len(floors) == 0 {
		return g.durable
	}
	need := len(floors) // legacy: every backend must hold the epoch
	if g.quorum.W > 0 {
		need = g.quorum.W
	}
	return QuorumFloor(floors, need)
}

// passed reports the newest epoch every attached backend is done with:
// the flush window's jobs at or below it have no reader left. free says
// their frames may go with them — not while an ephemeral backend
// retains the images it was handed, and not from a group without a
// backend, whose images are its only copy.
func (g *Group) passed() (epoch uint64, free bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.healthMu.Lock()
	defer g.healthMu.Unlock()
	epoch, free = ^uint64(0), len(g.backends) > 0
	for _, b := range g.backends {
		if b.Ephemeral() {
			free = false
		}
		if h := g.health[b]; h.owes() && h.cursor < epoch {
			epoch = h.cursor
		}
	}
	return epoch, free
}

// Orchestrator is the SLS orchestrator: it owns persistence groups,
// maps kernel objects to backends, and implements the kernel's
// GroupResolver so IPC can enforce external consistency.
type Orchestrator struct {
	K  *kernel.Kernel
	FS *slsfs.FS // optional Aurora file system for file-backed state

	mu       sync.Mutex
	groups   map[uint64]*Group
	pidGroup map[int]uint64
	nextID   uint64
	// FlushQueueDepth bounds how many epochs may wait behind the one in
	// flight in a group's flush pipeline before Checkpoint blocks
	// (0 = package default).
	FlushQueueDepth int
	// FlushRetries is the number of extra flush attempts (with
	// exponential backoff) before a backend is marked degraded
	// (0 = package default).
	FlushRetries int
	// DownAfter is the number of consecutive failed epochs after which
	// a degraded backend is marked down (0 = package default).
	DownAfter int
	// ShedAdmitEvery bounds consecutive sheds: every Nth barrier is
	// admitted even under sustained pressure, so the durable frontier
	// keeps advancing (0 = package default).
	ShedAdmitEvery int

	// FleetMemBudget bounds the captured frame bytes pinned by
	// queued-but-unflushed images across ALL groups; a checkpoint that
	// would exceed it blocks in Enqueue until flushes complete
	// (0 = unbounded). A single image larger than the whole budget is
	// still admitted when nothing else is charged.
	FleetMemBudget int64

	// fleetMu guards lazy creation of the shard runtime. It is a leaf
	// lock: never held together with o.mu or a group lock.
	fleetMu sync.Mutex
	fleet   *fleet
}

// NewOrchestrator attaches an orchestrator to a kernel and installs
// itself as the kernel's group resolver.
func NewOrchestrator(k *kernel.Kernel) *Orchestrator {
	o := &Orchestrator{
		K:        k,
		groups:   make(map[uint64]*Group),
		pidGroup: make(map[int]uint64),
	}
	k.SetResolver(o)
	return o
}

// AttachFS mounts an Aurora file system for descriptor restores.
func (o *Orchestrator) AttachFS(fs *slsfs.FS) { o.FS = fs }

// SetIDBase raises the group-ID allocation floor. Group IDs double as
// lineage and fencing keys, and those keys are compared across stores
// in a multi-store fleet — so a control plane that runs one
// orchestrator per store gives each a disjoint range (the placer
// shifts the store's admission index into the high bits). Lowering the
// floor is a no-op; single-store deployments never call this.
func (o *Orchestrator) SetIDBase(base uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.nextID < base {
		o.nextID = base
	}
}

// Persist creates a persistence group containing the process tree
// rooted at p (the `sls persist` command). All VM objects reachable
// from the tree are marked tracked.
func (o *Orchestrator) Persist(name string, p *kernel.Process) (*Group, error) {
	tree := o.K.ProcessTree(p)
	o.mu.Lock()
	o.nextID++
	g := &Group{ID: o.nextID, Name: name, origin: o.nextID, generation: 1, pids: make(map[int]bool)}
	o.groups[g.ID] = g
	for _, proc := range tree {
		g.pids[proc.PID] = true
		o.pidGroup[proc.PID] = g.ID
	}
	o.mu.Unlock()

	for _, proc := range tree {
		for _, obj := range proc.Space.Objects() {
			obj.SetTracked(true)
		}
	}
	return g, nil
}

// PersistContainer creates a persistence group covering a container.
func (o *Orchestrator) PersistContainer(name string, container int) (*Group, error) {
	procs := o.K.ContainerProcesses(container)
	if len(procs) == 0 {
		return nil, fmt.Errorf("core: container %d has no processes", container)
	}
	g, err := o.Persist(name, procs[0])
	if err != nil {
		return nil, err
	}
	for _, p := range procs[1:] {
		o.AddProcess(g, p)
	}
	return g, nil
}

// AddProcess adds a process (e.g. a post-persist fork child) to a
// group.
func (o *Orchestrator) AddProcess(g *Group, p *kernel.Process) {
	o.mu.Lock()
	g.mu.Lock()
	g.pids[p.PID] = true
	g.mu.Unlock()
	o.pidGroup[p.PID] = g.ID
	o.mu.Unlock()
	for _, obj := range p.Space.Objects() {
		obj.SetTracked(true)
	}
}

// Unpersist removes a group entirely, stopping its flush pipeline.
// In-flight flushes complete first (failed epochs are abandoned: the
// group's dissolution releases any gated output anyway).
func (o *Orchestrator) Unpersist(g *Group) {
	o.mu.Lock()
	for pid := range g.pids {
		if o.pidGroup[pid] == g.ID { // a rollback's restored group may have taken the PID over
			delete(o.pidGroup, pid)
		}
	}
	delete(o.groups, g.ID)
	o.mu.Unlock()

	g.mu.Lock()
	f := g.fl
	g.fl = nil
	g.sources = nil // demand-paging sources of a restore: block refs, page caches
	g.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// retire ends a group this machine must stop running — the source of a
// completed handover, a target whose commit failed, a placement that
// was refused: member processes still in the table exit and are reaped,
// then the group is unpersisted.
func (o *Orchestrator) retire(g *Group) {
	for _, pid := range g.PIDs() {
		if p, err := o.K.Process(pid); err == nil {
			o.K.Exit(p, 0)
			_ = o.K.Reap(p)
		}
	}
	o.Unpersist(g)
}

// flusherOf returns the group's flush pipeline, creating it on first
// use with the orchestrator's configured sizing.
func (o *Orchestrator) flusherOf(g *Group) *flusher {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fl == nil {
		g.fl = newFlusher(o, g, o.FlushQueueDepth)
	}
	return g.fl
}

// Drain waits until g's flush pipeline is idle: nothing in flight, and
// the queue empty or stalled on an epoch whose last attempt failed.
// Unlike Sync it does not retry that epoch, so the durable frontier may
// still trail the barrier epoch afterwards.
func (o *Orchestrator) Drain(g *Group) {
	if f := g.pipeline(); f != nil {
		f.drain()
	}
}

// Sync makes the group's newest barrier epoch durable: it drains the
// flush pipeline, retries any epoch whose background flush failed, and
// finally hands the pipeline any image checkpointed with SkipFlush, to
// flush in the foreground. This is the "epoch durable" half of the old
// synchronous checkpoint — the first error encountered (including an
// error from an earlier epoch's background flush) is surfaced here.
func (o *Orchestrator) Sync(g *Group) error {
	if f := g.pipeline(); f != nil {
		if err := f.Sync(nil); err != nil {
			return err
		}
	}
	// An epoch checkpointed with SkipFlush was never queued; sls_barrier
	// semantics demand it become durable now.
	g.mu.Lock()
	var tail *Image
	if g.epoch > g.durable && g.epoch > g.lastQueued && g.last != nil && !g.last.Released() {
		tail, g.lastQueued = g.last, g.epoch
	}
	g.mu.Unlock()
	if tail != nil {
		if err := o.flusherOf(g).Sync(tail); err != nil {
			return err
		}
	}
	// Degraded-mode epilogue: the durable frontier is current, but a
	// sick backend may still owe epochs. Sync means "durable
	// everywhere", so force the resync and surface a backend that
	// cannot take what it missed.
	return o.Resync(g)
}

// Attach registers a backend with a group (`sls attach`).
func (o *Orchestrator) Attach(g *Group, b Backend) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.backends = append(g.backends, b)
}

// Detach removes a backend from a group (`sls detach`). Its health
// record and cursor go with it: what only it still owed leaves the
// flush window.
func (o *Orchestrator) Detach(g *Group, name string) error {
	g.mu.Lock()
	var gone Backend
	for i, b := range g.backends {
		if b.Name() == name {
			gone = b
			g.backends = append(g.backends[:i], g.backends[i+1:]...)
			break
		}
	}
	f := g.fl
	g.mu.Unlock()
	if gone == nil {
		return fmt.Errorf("core: backend %q not attached", name)
	}
	g.healthMu.Lock()
	delete(g.health, gone)
	g.healthMu.Unlock()
	if f != nil {
		f.trim()
	}
	return nil
}

// Backends lists a group's backends.
func (g *Group) Backends() []Backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Backend, len(g.backends))
	copy(out, g.backends)
	return out
}

// Group returns a group by ID.
func (o *Orchestrator) Group(id uint64) (*Group, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.groups[id]
	if !ok {
		return nil, ErrNoGroup
	}
	return g, nil
}

// GroupByName finds a group by its user-visible name.
func (o *Orchestrator) GroupByName(name string) (*Group, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, g := range o.groups {
		if g.Name == name {
			return g, nil
		}
	}
	return nil, ErrNoGroup
}

// Groups lists all persistence groups ordered by ID (`sls ps`).
func (o *Orchestrator) Groups() []*Group {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Group, 0, len(o.groups))
	for _, g := range o.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GroupOfProcess returns the group containing pid, if any.
func (o *Orchestrator) GroupOfProcess(pid int) (*Group, bool) {
	o.mu.Lock()
	gid, ok := o.pidGroup[pid]
	if !ok {
		o.mu.Unlock()
		return nil, false
	}
	g := o.groups[gid]
	o.mu.Unlock()
	return g, g != nil
}

// --- kernel.GroupResolver ---

// GroupOf implements kernel.GroupResolver.
func (o *Orchestrator) GroupOf(pid int) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pidGroup[pid]
}

// EpochOf implements kernel.GroupResolver.
func (o *Orchestrator) EpochOf(group uint64) uint64 {
	o.mu.Lock()
	g := o.groups[group]
	o.mu.Unlock()
	if g == nil {
		return 0
	}
	return g.Epoch()
}

// Released implements kernel.GroupResolver: an epoch's output may
// cross the group boundary once it is actually present on every
// non-ephemeral backend (or once flushed anywhere when only ephemeral
// backends are attached — debugging setups accept that risk
// explicitly). This gates on Replicated(), not Durable(): in degraded
// mode the durable frontier keeps advancing on the healthy peer while
// a sick or partitioned backend owes catch-up epochs, and releasing
// output the replica does not yet hold would lose it if the primary
// then died and the replica were promoted.
func (o *Orchestrator) Released(group, epoch uint64) bool {
	o.mu.Lock()
	g := o.groups[group]
	o.mu.Unlock()
	if g == nil {
		return true // group dissolved: nothing left to hold for
	}
	// Data written during epoch E is covered by checkpoint E+1 (the
	// one whose barrier happens after the write). It is releasable
	// when that epoch is replicated.
	return g.Replicated() > epoch
}

// members resolves the group's live member processes.
func (o *Orchestrator) members(g *Group) []*kernel.Process {
	var out []*kernel.Process
	for _, pid := range g.PIDs() {
		if p, err := o.K.Process(pid); err == nil {
			out = append(out, p)
		}
	}
	return out
}
