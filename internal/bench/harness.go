package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/vm"
)

// This file is the one chaos harness. The engines (chaos.go, quorum.go,
// migrate.go, placement.go, autoscale.go, space.go) are scripts — the
// order of kill, partition, heal, promote, hop, drain, ramp — over the
// state defined here and the machines of topology.go:
//
//   - one workload: a counter plus N patterned pages, and the
//     bit-identity comparisons every restore is held to;
//   - one ledger per lineage (line): the counter captured by each
//     epoch, the released watermark, the shed-retrying barrier and the
//     bounded durable-sync loop;
//   - one check: every cheap invariant of core/invariant.go, run after
//     every script phase, with each failure prefixed once with engine,
//     seed and phase;
//   - one sizing probe that turns "N epochs of room" into device bytes;
//   - the multi-store fleet the placement and autoscale scripts share.
//
// The *restore* verifications stay where each script calls them: they
// read the device, so they consume fault-RNG draws and virtual time,
// and moving one would change the seeded schedule.

// chaosCounter is the workload program: a 64-bit little-endian counter
// incremented once per kernel step, so hundreds of checkpoints cannot
// wrap it and every epoch has a distinct, predictable value. A whole
// counter rewrites its whole page each step — the same bytes, as the
// rest of the page stays zero — so every epoch stores the page as a
// fresh block rather than a line entry: what a run on a bounded device
// needs for its epochs to cost space.
type chaosCounter struct {
	addr  vm.Addr
	whole bool
}

func (c *chaosCounter) ProgName() string {
	if c.whole {
		return "bench-page-counter"
	}
	return "bench-chaos-counter"
}

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
	if c.whole {
		page := make([]byte, vm.PageSize)
		copy(page, b[:])
		return p.WriteMem(c.addr, page)
	}
	return p.WriteMem(c.addr, b[:])
}

func init() {
	for _, whole := range []bool{false, true} {
		kernel.RegisterProgram((&chaosCounter{whole: whole}).ProgName(), func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
			d := kernel.NewDecoder(state)
			return &chaosCounter{addr: vm.Addr(d.U64()), whole: whole}, nil
		})
	}
}

// workload is the one chaos workload: the counter on the first heap
// page plus `pages` pages of recoveryPattern under `seed`, carried
// through every crash, restore, promotion and migration. whole makes
// the counter rewrite its whole page (chaosCounter).
type workload struct {
	pages int
	seed  int64
	whole bool
}

// spawn starts the workload on o's machine and persists it as a group.
func (w workload) spawn(o *core.Orchestrator, name string) (*core.Group, error) {
	p, err := o.K.Spawn(0, name)
	if err != nil {
		return nil, err
	}
	p.SetProgram(&chaosCounter{addr: p.HeapBase(), whole: w.whole})
	for pg := 1; pg <= w.pages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), recoveryPattern(pg, w.seed)); err != nil {
			return nil, err
		}
	}
	return o.Persist(name, p)
}

func (w workload) process(k *kernel.Kernel, g *core.Group) (*kernel.Process, error) {
	pids := g.PIDs()
	if len(pids) == 0 {
		return nil, fmt.Errorf("group %d has no members", g.ID)
	}
	return k.Process(pids[0])
}

// counter reads the live counter of g on k.
func (w workload) counter(k *kernel.Kernel, g *core.Group) (uint64, error) {
	p, err := w.process(k, g)
	if err != nil {
		return 0, err
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return 0, fmt.Errorf("group %d: reading counter: %w", g.ID, err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// verifyLive checks g's live memory on k — demand-paging any cold tail
// — bit for bit: the counter against want and every pattern byte.
func (w workload) verifyLive(k *kernel.Kernel, g *core.Group, want uint64) error {
	got, err := w.counter(k, g)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("group %d at epoch %d: counter %d, want %d — not bit-identical", g.ID, g.Epoch(), got, want)
	}
	p, err := w.process(k, g)
	if err != nil {
		return err
	}
	if err := patternIntact(p, w.pages, w.seed); err != nil {
		return fmt.Errorf("group %d at epoch %d: %w", g.ID, g.Epoch(), err)
	}
	return nil
}

// patternIntact reads heap pages 1..pages of p — demand-paging them in
// — and compares every byte against recoveryPattern under seed.
func patternIntact(p *kernel.Process, pages int, seed int64) error {
	buf := make([]byte, vm.PageSize)
	for pg := 1; pg <= pages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			return fmt.Errorf("paging page %d: %w", pg, err)
		}
		if !bytes.Equal(buf, recoveryPattern(pg, seed)) {
			return fmt.Errorf("page %d differs — not bit-identical", pg)
		}
	}
	return nil
}

// verifyImage restores img on a scratch machine and verifies it live:
// the image must be restorable on its own, away from the machine (and
// the page cache) that produced it.
func (w workload) verifyImage(img *core.Image, readTime time.Duration, want uint64) error {
	scratch := NewNode("scratch", 0, 0, 0)
	g, _, err := scratch.o.RestoreImage(img, readTime, core.RestoreOpts{})
	if err != nil {
		return fmt.Errorf("scratch restore of group %d epoch %d: %w", img.Group, img.Epoch, err)
	}
	if err := w.verifyLive(scratch.k, g, want); err != nil {
		return fmt.Errorf("scratch restore: %w", err)
	}
	return nil
}

// line is one lineage's ledger: where it runs now, the counter each
// epoch captured, and how far its output was ever released.
type line struct {
	w       workload
	lineage uint64             // the ID stores claim the primary role under
	o       *core.Orchestrator // the machine it runs on now
	g       *core.Group
	links   []string // replica backends a partition may degrade but never mark down
	retired bool     // unplaced by a ramp-down: no longer checked

	counterAt map[uint64]uint64 // counter value captured by each epoch
	last      uint64            // counter after the most recent slice
	released  uint64            // highest epoch whose output was ever released
}

// slice runs the workload for steps kernel steps on the line's machine
// and records the counter the next barrier will capture.
func (l *line) slice(steps int) error {
	if steps > 0 {
		if _, err := l.o.K.Run(steps); err != nil {
			return err
		}
	}
	c, err := l.w.counter(l.o.K, l.g)
	if err != nil {
		return err
	}
	l.last = c
	return nil
}

// attempt is one slice plus one checkpoint barrier. Under space
// pressure admission control may shed the barrier (no epoch minted, no
// state captured); an admitted one is recorded in the ledger.
func (l *line) attempt(steps int, opts core.CheckpointOpts) (shed bool, err error) {
	if err := l.slice(steps); err != nil {
		return false, err
	}
	bd, err := l.o.Checkpoint(l.g, opts)
	if err != nil || bd.Shed {
		return bd.Shed, err
	}
	l.counterAt[l.g.Epoch()] = l.last
	return false, nil
}

// barrier checkpoints the line, retrying shed barriers: the workload
// keeps running and the next barrier coalesces the slices, so shedding
// bounds checkpoint frequency, never progress.
func (l *line) barrier(steps int, opts core.CheckpointOpts) (uint64, error) {
	for try := 0; try < 16; try++ {
		shed, err := l.attempt(steps, opts)
		if err != nil {
			return 0, err
		}
		if !shed {
			return l.g.Epoch(), nil
		}
	}
	return 0, fmt.Errorf("admission control starved the checkpoint barrier of lineage %d", l.lineage)
}

// syncDurable advances the durable frontier to the line's barrier
// epoch, retrying store-side failures with fresh fault rolls.
// Orchestrator.Sync means "durable everywhere" and so also errors on a
// partitioned or killed replica; this loop cares only that some durable
// backend set holds every epoch — replica catch-up is handled (or
// deliberately deferred) by the script.
func (l *line) syncDurable() error {
	var last error
	for round := 0; round < 12; round++ {
		last = l.o.Sync(l.g)
		if l.g.Durable() == l.g.Epoch() {
			return nil
		}
	}
	return fmt.Errorf("durable frontier stuck at %d (barrier %d): %w", l.g.Durable(), l.g.Epoch(), last)
}

// epoch is barrier + syncDurable: one durable checkpoint.
func (l *line) epoch(steps int) error {
	if _, err := l.barrier(steps, core.CheckpointOpts{}); err != nil {
		return err
	}
	return l.syncDurable()
}

// healthy reports whether every named backend of the line's group (all
// of them when none is named) is healthy with its catch-up drained.
func (l *line) healthy(names ...string) bool {
	for _, hi := range l.g.Health() {
		if len(names) > 0 && !slices.Contains(names, hi.Name) {
			continue
		}
		if hi.State != core.BackendHealthy || hi.Pending > 0 {
			return false
		}
	}
	return true
}

// heal drives the goal backends (all when none is named) back to
// healthy: reconnect w if its backend lost the link, then force a
// resync and a sync, repeating — under probabilistic faults a round can
// fail and a later one succeed. Backends inside another wire's scripted
// outage keep failing, which is fine: Resync probes them and moves on.
func (l *line) heal(w *Wire, goal ...string) error {
	var last error
	for round := 0; round < 12; round++ {
		if l.healthy(goal...) {
			return nil
		}
		if !l.healthy(w.Backend().Name()) {
			if err := w.reconnect(l.g.ID); err != nil {
				return err
			}
		}
		_ = l.o.Resync(l.g)
		last = l.o.Sync(l.g)
	}
	return fmt.Errorf("group %d did not heal over %s: %w", l.g.ID, w.name, last)
}

// promote declares the line's primary permanently dead and promotes the
// replica set onto dst: the floor must be the durable line the script
// quiesced the replicas to, no released output may be lost, and the
// promoted group must be bit-identical to what was checkpointed there.
func (l *line) promote(dst *Node, srcs []core.ReplicaSource, floor uint64) (*core.PromoteReport, error) {
	prep, err := dst.o.PromoteQuorum(srcs, l.lineage, dst.sb, core.RestoreOpts{})
	if err != nil {
		return nil, err
	}
	if prep.Floor != floor {
		return nil, fmt.Errorf("promotion floor %d, want %d", prep.Floor, floor)
	}
	if err := core.CheckReleasedCovered(l.lineage, l.released, prep.Floor, prep.Floor); err != nil {
		return nil, err
	}
	want, err := l.want(prep.Floor)
	if err != nil {
		return nil, err
	}
	return prep, l.w.verifyLive(dst.k, prep.Group, want)
}

// want is the counter the ledger recorded for the newest epoch at or
// below epoch (a durable frontier can include checkpoints the script
// did not drive, e.g. the placer's replica seeding).
func (l *line) want(epoch uint64) (uint64, error) {
	if c, ok := l.counterAt[epoch]; ok {
		return c, nil
	}
	var best, c uint64
	for ep, v := range l.counterAt {
		if ep <= epoch && ep >= best {
			best, c = ep, v
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no recorded counter for lineage %d at or below epoch %d", l.lineage, epoch)
	}
	return c, nil
}

// verifyStore loads (group, epoch) from sb — riding out injected read
// faults — and verifies it on a scratch machine: the chain in that
// store must be independently restorable.
func (l *line) verifyStore(sb *core.StoreBackend, group, epoch, want uint64) error {
	var img *core.Image
	var readTime time.Duration
	var err error
	for try := 0; try < 8; try++ {
		if img, readTime, err = sb.Load(group, epoch); err == nil {
			return l.w.verifyImage(img, readTime, want)
		}
	}
	return fmt.Errorf("loading group %d epoch %d: %w", group, epoch, err)
}

// harness is the run state every engine script drives.
type harness struct {
	engine string
	seed   int64
	phase  string // the script phase in progress, for error prefixes

	stores  []*core.StoreNode // every store that may claim a primary role
	placer  *core.Placer      // fleet engines only: lines are located through it
	lines   []*line
	durable core.DurableWatch

	verified int // bit-identical verifications performed

	nodes []*Node // machines the run built, for close
}

func newHarness(engine string, seed int64) *harness {
	return &harness{engine: engine, seed: seed, phase: "setup", durable: make(core.DurableWatch)}
}

// own registers a machine the run built and returns it.
func (h *harness) own(n *Node) *Node {
	h.nodes = append(h.nodes, n)
	return n
}

// close stops the flush workers of every machine the run built: a
// machine that ever flushed stays reachable from them — memory, store
// and all — for the life of the process.
func (h *harness) close() {
	for _, n := range h.nodes {
		n.o.Close()
	}
}

// at names the script phase now in progress.
func (h *harness) at(format string, args ...any) { h.phase = fmt.Sprintf(format, args...) }

// fail prefixes err once with engine, seed and phase, so a red gate
// line carries what is needed to replay it.
func (h *harness) fail(err error) error {
	return fmt.Errorf("bench: %s seed %d, %s: %w", h.engine, h.seed, h.phase, err)
}

// newLine spawns the workload on n, attaches n's store, and opens its
// ledger.
func newLine(n *Node, w workload, name string) (*line, error) {
	g, err := w.spawn(n.o, name)
	if err != nil {
		return nil, err
	}
	n.o.Attach(g, n.sb)
	return &line{w: w, lineage: g.ID, o: n.o, g: g, counterAt: make(map[uint64]uint64)}, nil
}

// start opens a line on n that the harness checks from here on, and
// claims the primary role for it on n's store.
func (h *harness) start(n *Node, w workload, name string) (*line, error) {
	l, err := newLine(n, w, name)
	if err != nil {
		return nil, err
	}
	h.lines = append(h.lines, l)
	return l, claimPrimary(n, l.lineage, l.g.Generation())
}

// claimPrimary claims the primary role for lineage on n's store and
// persists it with bounded retries: the fault device can inject a
// write error into the superblock persist itself, and a retried sync
// draws fresh rolls.
func claimPrimary(n *Node, lineage, gen uint64) error {
	if err := n.sb.Store().SetPrimary(lineage, gen); err != nil {
		return err
	}
	var err error
	for try := 0; try < 8; try++ {
		if err = n.sb.Store().Sync(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("persisting primary claim on %s: %w", n.name, err)
}

// moved records a handover: the line now runs as g on o. The durable
// frontier is monotone within one group lifetime on one machine, so
// the watch restarts from the new group's frontier.
func (h *harness) moved(l *line, o *core.Orchestrator, g *core.Group) {
	l.o, l.g = o, g
	h.durable[l.lineage] = g.Durable()
}

// locate refreshes a fleet line's location from the placer; false means
// it is not routable right now (retired, mid-evacuation or lost).
func (h *harness) locate(l *line) (*core.Placement, bool) {
	if l.retired {
		return nil, false
	}
	pl, err := h.placer.Lookup(l.lineage)
	if err != nil {
		return nil, false
	}
	l.o, l.g = pl.Primary().O, pl.Group()
	return pl, true
}

// check runs every cheap invariant on every line: the durable epoch
// never regresses, the released watermark only advances, a partitioned
// replica caps at degraded, exactly one store claims the primary role
// at the maximum generation, and (under a placer) no placement violates
// anti-affinity. Scripts call it after every phase.
func (h *harness) check(where string) error {
	h.phase = where
	for _, l := range h.lines {
		if h.placer != nil {
			if _, ok := h.locate(l); !ok {
				continue // audited once re-homed
			}
		}
		if err := h.durable.Observe(l.lineage, l.g.Durable()); err != nil {
			return err
		}
		for l.o.Released(l.g.ID, l.released+1) {
			l.released++
		}
		if len(l.links) > 0 {
			for _, hi := range l.g.Health() {
				if hi.State == core.BackendDown && slices.Contains(l.links, hi.Name) {
					return fmt.Errorf("lineage %d: partitioned replica %s marked down (must cap at degraded)", l.lineage, hi.Name)
				}
			}
		}
		if len(h.stores) > 0 {
			if err := core.CheckOnePrimary(l.lineage, h.stores); err != nil {
				return err
			}
		}
	}
	if h.placer != nil {
		if v := h.placer.AntiAffinityViolations(); len(v) != 0 {
			return fmt.Errorf("anti-affinity violated: %v", v)
		}
	}
	return nil
}

// deviceFor turns "epochs of room" into device bytes for workload w:
// on an unbounded, fault-free machine it syncs after every probe
// barrier, so each usage sample is taken with the flush pipeline empty
// — a sample taken whenever the background flusher happened to have
// run would size the device by the Go scheduler. The result is the
// residency after the first durable epoch (superblock + full image),
// the steady-state growth per incremental epoch times epochs, and the
// control-plane reserve (superblock slots + two index generations),
// which is held back from data allocations and, with sub-block metadata
// packing, no longer disappears inside the per-epoch growth. The run's
// index outgrows the probe's (longer history, catch-up pinning), so it
// gets double the probe's reserve.
func deviceFor(w workload, steps, epochs int) (int64, error) {
	n := NewNode("probe", 0, 0, 0)
	defer n.o.Close()
	l, err := newLine(n, w, "probe")
	if err != nil {
		return 0, err
	}

	const probeEpochs = 8
	var first, used int64
	for i := 1; i <= probeEpochs; i++ {
		if err := l.epoch(steps); err != nil {
			return 0, fmt.Errorf("sizing probe: %w", err)
		}
		used, _, _ = n.sb.Store().Usage()
		if i == 1 {
			first = used
		}
	}
	perEpoch := (used - first) / (probeEpochs - 1)
	if perEpoch <= 0 {
		perEpoch = 1
	}
	return first + 2*n.sb.Store().ControlOverhead() + perEpoch*int64(epochs), nil
}

// fleet is the multi-store run state of the placement and autoscale
// scripts: store nodes behind the production netback directory (the
// same code path the CLI wires) and core.Placer, one ledger line per
// placed lineage.
type fleet struct {
	*harness
	steps    int // scheduler quanta per resident group per round
	writeErr float64
	readErr  float64

	dir    *netback.Directory
	bench  map[*core.StoreNode]*Node
	byID   map[uint64]*line
	placed int // arrivals so far; the next one is app<placed>
}

func newFleet(engine string, seed int64, steps int, link netback.LinkFaultConfig, writeErr, readErr float64, pcfg core.PlacerConfig) *fleet {
	f := &fleet{
		harness: newHarness(engine, seed), steps: steps, writeErr: writeErr, readErr: readErr,
		bench: make(map[*core.StoreNode]*Node), byID: make(map[uint64]*line),
	}
	link.Seed = seed
	pcfg.DownAfter = 5 // ride out injected probe faults on healthy stores
	pcfg.Retries = 8   // faulted cells need migrator retry headroom
	f.dir = netback.NewDirectory(link)
	f.placer = core.NewPlacer(f.dir, pcfg)
	return f
}

// addStore builds store i (not yet admitted to the placer).
func (f *fleet) addStore(i int, domain string) *core.StoreNode {
	n := f.own(NewNode(fmt.Sprintf("store%d", i), f.seed*1000003+int64(i)*7919, f.writeErr, f.readErr))
	n.sup = core.NewSupervisor(n.o, core.SupervisorConfig{})
	sn := n.storeNode(domain)
	f.stores = append(f.stores, sn)
	f.bench[sn] = n
	return sn
}

// place lands the next arrival through the placer.
func (f *fleet) place() error {
	name := fmt.Sprintf("app%04d", f.placed)
	w := workload{pages: placePages, seed: f.seed + int64(f.placed)}
	pl, err := f.placer.Place(name, func(n *core.StoreNode) (*core.Group, error) { return w.spawn(n.O, name) })
	if err != nil {
		return err
	}
	f.placed++
	l := &line{w: w, lineage: pl.Lineage, counterAt: make(map[uint64]uint64)}
	f.lines = append(f.lines, l)
	f.byID[pl.Lineage] = l
	return nil
}

// live lists the routable lineages in lineage order, each with its
// line located.
func (f *fleet) live() []*core.Placement {
	var out []*core.Placement
	for _, pl := range f.placer.Placements() {
		if l := f.byID[pl.Lineage]; l != nil {
			if pl, ok := f.locate(l); ok {
				out = append(out, pl)
			}
		}
	}
	return out
}

// residents counts the primaries of the given placements per store.
func residents(pls []*core.Placement) map[*core.StoreNode]int {
	resident := make(map[*core.StoreNode]int)
	for _, pl := range pls {
		resident[pl.Primary()]++
	}
	return resident
}

// busiest picks, among the given stores, the one holding the most
// primaries (ties to the lowest name): the maximal-storm victim.
func busiest(resident map[*core.StoreNode]int, among []*core.StoreNode) *core.StoreNode {
	var pick *core.StoreNode
	for _, sn := range among {
		if pick == nil || resident[sn] > resident[pick] || (resident[sn] == resident[pick] && sn.Name < pick.Name) {
			pick = sn
		}
	}
	return pick
}

// round drives one open-loop round: every live store runs its resident
// groups, and when checkpoint is set every routable lineage then takes
// a barrier and syncs durable through the placer's wire-healing loop.
func (f *fleet) round(checkpoint bool) error {
	live := f.live()
	resident := residents(live)
	for _, sn := range f.stores {
		if st := sn.State(); resident[sn] == 0 || (st != core.StoreActive && st != core.StoreDraining) {
			continue
		}
		if _, err := sn.O.K.Run(resident[sn] * f.steps); err != nil {
			return fmt.Errorf("workload on %s: %w", sn.Name, err)
		}
	}
	if !checkpoint {
		return nil
	}
	for _, pl := range live {
		l := f.byID[pl.Lineage]
		if _, err := l.barrier(0, core.CheckpointOpts{}); err != nil {
			return fmt.Errorf("checkpointing lineage %d: %w", l.lineage, err)
		}
		if err := f.placer.SyncDurable(l.lineage); err != nil {
			return err
		}
	}
	return nil
}

// verify checks a lineage bit-identical on its current primary: the
// live counter and patterned pages match the last checkpointed state,
// and a scratch-machine restore from the primary's store agrees — the
// image chain a promotion or migration backfilled must be independently
// restorable.
func (f *fleet) verify(pl *core.Placement) error {
	l, g := f.byID[pl.Lineage], pl.Group()
	want, err := l.want(g.Durable())
	if err != nil {
		return err
	}
	if err := l.w.verifyLive(pl.Primary().O.K, g, want); err != nil {
		return fmt.Errorf("lineage %d: %w", pl.Lineage, err)
	}
	if err := l.verifyStore(pl.Primary().SB, g.ID, g.Durable(), want); err != nil {
		return fmt.Errorf("lineage %d: %w", pl.Lineage, err)
	}
	f.verified += 2
	return nil
}

// rehomed verifies that every listed lineage is routable again, off
// the given store, and bit-identical.
func (f *fleet) rehomed(lineages []uint64, off *core.StoreNode) error {
	for _, lin := range lineages {
		pl, ok := f.locate(f.byID[lin])
		if !ok {
			return fmt.Errorf("lineage %d not routable", lin)
		}
		if pl.Primary() == off {
			return fmt.Errorf("lineage %d still resident on %s", lin, off.Name)
		}
		if err := f.verify(pl); err != nil {
			return err
		}
	}
	return nil
}

// percentiles sorts ds in place and returns its median, 99th percentile
// and maximum (zeros when empty).
func percentiles(ds []time.Duration) (p50, p99, max time.Duration) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	slices.Sort(ds)
	return ds[len(ds)/2], ds[len(ds)*99/100], ds[len(ds)-1]
}
