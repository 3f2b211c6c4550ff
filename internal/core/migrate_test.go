package core_test

// End-to-end live-migration coverage against the real netback wire:
// planned migration with a running workload, abort paths for a target
// dying in every phase (the source must remain the sole
// max-generation primary and keep running), a flaky in-band handover
// that completes under retries, a double migration A→B→C on one
// explicit lineage, hot-standby promotion after an unplanned source
// crash, and the seeded chaos schedules `make migratecheck` pins.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"aurora/internal/bench"
	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// migMach is one simulated machine.
type migMach struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
	sb    *core.StoreBackend
}

func newMigMach(t *testing.T) *migMach {
	t.Helper()
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	sb := core.NewStoreBackend(
		objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock),
		k.Mem, clock)
	return &migMach{clock: clock, k: k, o: o, sb: sb}
}

// migTestCounter increments a u64 at a fixed heap address each step.
type migTestCounter struct{ addr vm.Addr }

func (c *migTestCounter) ProgName() string { return "migrate-test-counter" }
func (c *migTestCounter) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	return e.Bytes()
}
func (c *migTestCounter) Step(k *kernel.Kernel, p *kernel.Process, th *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(c.addr, b[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b[:], binary.LittleEndian.Uint64(b[:])+1)
	return p.WriteMem(c.addr, b[:])
}

func init() {
	kernel.RegisterProgram("migrate-test-counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &migTestCounter{addr: vm.Addr(d.U64())}, nil
	})
}

// startApp spawns the counter workload on m, persists it, and anchors
// the lineage in m's store.
func startApp(t *testing.T, m *migMach, name string) *core.Group {
	t.Helper()
	p, err := m.k.Spawn(0, name)
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&migTestCounter{addr: p.HeapBase()})
	g, err := m.o.Persist(name, p)
	if err != nil {
		t.Fatal(err)
	}
	m.o.Attach(g, m.sb)
	if err := m.sb.Store().SetPrimary(g.ID, g.Generation()); err != nil {
		t.Fatal(err)
	}
	if err := m.sb.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	return g
}

func counterOn(t *testing.T, m *migMach, g *core.Group) uint64 {
	t.Helper()
	pids := g.PIDs()
	if len(pids) == 0 {
		t.Fatalf("group %d has no members", g.ID)
	}
	p, err := m.k.Process(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

// restoreCounter restores (group, epoch) from sb on a scratch machine
// and returns the counter: the bit-identical check.
func restoreCounter(t *testing.T, sb *core.StoreBackend, group, epoch uint64) uint64 {
	t.Helper()
	img, readTime, err := sb.Load(group, epoch)
	if err != nil {
		t.Fatalf("loading (%d, %d): %v", group, epoch, err)
	}
	scratch := newMigMach(t)
	ng, _, err := scratch.o.RestoreImage(img, readTime, core.RestoreOpts{})
	if err != nil {
		t.Fatalf("restoring (%d, %d): %v", group, epoch, err)
	}
	return counterOn(t, scratch, ng)
}

// newMigWire strings a netback wire between two machines (fault-free
// unless the test partitions it) and connects it for group.
func newMigWire(t *testing.T, src, dst *migMach, group uint64) *netback.Wire {
	t.Helper()
	w := netback.NewWire(netback.LinkFaultConfig{Seed: 1}, src.clock, netback.NewReceiver(dst.k.Mem, dst.clock))
	w.Backend().SetName("migrate-wire")
	if err := w.Connect(group); err != nil {
		t.Fatalf("connect: %v", err)
	}
	return w
}

// assertSolePrimary checks exactly one of the stores claims the
// primary role at the max generation for lineage.
func assertSolePrimary(t *testing.T, lineage uint64, want *migMach, machs ...*migMach) {
	t.Helper()
	var maxGen uint64
	type cl struct {
		m   *migMach
		gen uint64
	}
	var claims []cl
	for _, m := range machs {
		if gen, primary := m.sb.Store().PrimaryGen(lineage); primary {
			claims = append(claims, cl{m, gen})
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	var top []*migMach
	for _, c := range claims {
		if c.gen == maxGen {
			top = append(top, c.m)
		}
	}
	if len(top) != 1 || top[0] != want {
		t.Fatalf("primary claims at max gen %d = %d (want exactly the expected machine)", maxGen, len(top))
	}
}

func TestMigratePlannedEndToEnd(t *testing.T) {
	a, b := newMigMach(t), newMigMach(t)
	g := startApp(t, a, "app")
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}
	w := newMigWire(t, a, b, g.ID)
	sup := core.NewSupervisor(a.o, core.SupervisorConfig{})
	sup.Watch(g)

	var last uint64
	workload := func() error {
		if _, err := a.k.Run(2); err != nil {
			return err
		}
		last = counterOn(t, a, g)
		return nil
	}
	mig := &core.Migrator{
		Src: a.o, Dst: b.o, G: g,
		Link: w.Backend(), Target: w.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Sup:       sup,
		Reconnect: func() error { return w.Reset(g.ID) },
		Cfg:       core.MigratorConfig{Name: "migrated"},
	}
	rep, err := mig.Run(workload)
	if err != nil {
		t.Fatalf("migration failed: %v", err)
	}

	if rep.Group == nil || rep.Gen < 2 || rep.Floor == 0 {
		t.Fatalf("report = %+v, want restored group, gen >= 2, nonzero floor", rep)
	}
	if rep.Blackout <= 0 || rep.Blackout > 5*time.Millisecond {
		t.Fatalf("blackout = %v, want within single-barrier order (< 5ms virtual)", rep.Blackout)
	}
	if d := rep.Group.Durable(); d < rep.Floor {
		t.Fatalf("target durable %d below handover floor %d", d, rep.Floor)
	}
	// The migrated state is bit-identical, demand-paged through the
	// lazy tail.
	if got := counterOn(t, b, rep.Group); got != last {
		t.Fatalf("target counter = %d, want %d", got, last)
	}
	// And restores bit-identical from the target store alone.
	if got := restoreCounter(t, b.sb, g.ID, rep.Floor); got != last {
		t.Fatalf("restore from target store = %d, want %d", got, last)
	}
	// The fenced source refuses the barrier and lost its watch.
	if _, err := a.o.Checkpoint(g, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		t.Fatalf("fenced source checkpoint = %v, want ErrStaleGeneration", err)
	}
	if watched := sup.Watched(); len(watched) != 0 {
		t.Fatalf("source supervisor still watches %v after handover", watched)
	}
	assertSolePrimary(t, g.ID, b, a, b)
	// The target can keep running and checkpointing at the new
	// generation.
	if _, err := b.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.o.Checkpoint(rep.Group, core.CheckpointOpts{}); err != nil {
		t.Fatalf("post-migration checkpoint on target: %v", err)
	}
	if err := b.o.Sync(rep.Group); err != nil {
		t.Fatalf("post-migration sync on target: %v", err)
	}
}

func TestMigrateAbortTargetDeadPreCopy(t *testing.T) {
	a, b := newMigMach(t), newMigMach(t)
	g := startApp(t, a, "app")
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}
	w := newMigWire(t, a, b, g.ID)
	before := counterOn(t, a, g)

	// The target dies for good before the first ship: the link is
	// partitioned and reconnects never succeed.
	w.Link().Partition()
	mig := &core.Migrator{
		Src: a.o, Dst: b.o, G: g,
		Link: w.Backend(), Target: w.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Reconnect: func() error {
			return fmt.Errorf("target unreachable: %w", netback.ErrDisconnected)
		},
		Cfg: core.MigratorConfig{Retries: 2},
	}
	_, err := mig.Run(nil)
	if err == nil {
		t.Fatal("migration to a dead target succeeded")
	}
	if !errors.Is(err, core.ErrMigrationAborted) {
		t.Fatalf("err = %v, want ErrMigrationAborted wrap", err)
	}
	// The real netback sentinel survives the phase-tagged wrap.
	if !errors.Is(err, netback.ErrDisconnected) {
		t.Fatalf("err = %v, want netback.ErrDisconnected preserved", err)
	}
	var me *core.MigrationError
	if !errors.As(err, &me) || me.Phase != core.PhasePreCopy || me.Group != g.ID {
		t.Fatalf("err = %v, want *MigrationError{Phase: pre-copy, Group: %d}", err, g.ID)
	}
	if me.Retries == 0 {
		t.Fatalf("MigrationError.Retries = 0, want retry attempts recorded")
	}

	// The source is untouched: unfenced, sole primary, still advancing
	// durable state once the dead link is abandoned.
	if _, _, fenced := g.Fenced(); fenced {
		t.Fatal("source fenced by an aborted pre-copy")
	}
	mig.Abandon()
	durable := g.Durable()
	if _, err := a.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatalf("source checkpoint after abort: %v", err)
	}
	if err := a.o.Sync(g); err != nil {
		t.Fatalf("source sync after abort: %v", err)
	}
	if d := g.Durable(); d <= durable {
		t.Fatalf("source durable stuck at %d after abort", d)
	}
	assertSolePrimary(t, g.ID, a, a, b)
	if got := counterOn(t, a, g); got != before+2 {
		t.Fatalf("source counter = %d, want %d", got, before+2)
	}
	if got := restoreCounter(t, a.sb, g.ID, g.Durable()); got != before+2 {
		t.Fatalf("restore from source store = %d, want %d", got, before+2)
	}
}

func TestMigrateAbortMidBlackoutThenRetry(t *testing.T) {
	a, b := newMigMach(t), newMigMach(t)
	g := startApp(t, a, "app")
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}
	w := newMigWire(t, a, b, g.ID)

	dead := true
	mig := &core.Migrator{
		Src: a.o, Dst: b.o, G: g,
		Link: w.Backend(), Target: w.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Reconnect: func() error {
			if dead {
				return fmt.Errorf("target unreachable: %w", netback.ErrDisconnected)
			}
			return w.Reset(g.ID)
		},
		Cfg: core.MigratorConfig{Retries: 2},
	}
	// Pre-copy converges while the target is healthy…
	if residual, err := mig.PreCopyRound(nil); err != nil || residual != 0 {
		t.Fatalf("pre-copy: residual=%d err=%v", residual, err)
	}
	// …then the target dies right before the blackout.
	w.Link().Partition()
	before := counterOn(t, a, g)
	_, err := mig.Cutover()
	var me *core.MigrationError
	if !errors.As(err, &me) || me.Phase != core.PhaseBlackout {
		t.Fatalf("cutover on dead target = %v, want *MigrationError{Phase: blackout}", err)
	}
	if _, _, fenced := g.Fenced(); fenced {
		t.Fatal("source fenced by an aborted blackout")
	}
	assertSolePrimary(t, g.ID, a, a, b)

	// The target comes back: the same migrator retries to completion.
	dead = false
	rep, err := mig.Run(nil)
	if err != nil {
		t.Fatalf("retried migration: %v", err)
	}
	if got := counterOn(t, b, rep.Group); got != before {
		t.Fatalf("target counter after retried migration = %d, want %d", got, before)
	}
	assertSolePrimary(t, g.ID, b, a, b)
}

// flakyHandoff eats handoff announcements until fails hits zero, then
// delegates to the real in-band announcer.
type flakyHandoff struct {
	core.Backend
	fails int
}

func (f *flakyHandoff) Handoff(group, gen, floor uint64) error {
	if f.fails > 0 {
		f.fails--
		return fmt.Errorf("handoff eaten: %w", netback.ErrDisconnected)
	}
	return f.Backend.(core.HandoffAnnouncer).Handoff(group, gen, floor)
}

func TestMigrateHandoverFlakyCompletes(t *testing.T) {
	a, b := newMigMach(t), newMigMach(t)
	g := startApp(t, a, "app")
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}
	w := newMigWire(t, a, b, g.ID)
	want := counterOn(t, a, g)
	mig := &core.Migrator{
		Src: a.o, Dst: b.o, G: g,
		Link:     &flakyHandoff{Backend: w.Backend(), fails: 2},
		Target:   w.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Cfg: core.MigratorConfig{Retries: 4},
	}
	rep, err := mig.Run(nil)
	if err != nil {
		t.Fatalf("migration with flaky handover: %v", err)
	}
	if rep.Retries < 2 {
		t.Fatalf("retries = %d, want the two eaten announcements paid for", rep.Retries)
	}
	if got := counterOn(t, b, rep.Group); got != want {
		t.Fatalf("target counter = %d, want %d", got, want)
	}
	assertSolePrimary(t, g.ID, b, a, b)
}

func TestMigrateAbortAfterAnnounceRemintsSource(t *testing.T) {
	a, b := newMigMach(t), newMigMach(t)
	g := startApp(t, a, "app")
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}
	w := newMigWire(t, a, b, g.ID)
	sup := core.NewSupervisor(a.o, core.SupervisorConfig{})
	sup.Watch(g)
	mig := &core.Migrator{
		Src: a.o, Dst: b.o, G: g,
		Link:     &flakyHandoff{Backend: w.Backend(), fails: 1 << 20},
		Target:   w.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Sup: sup,
		Cfg: core.MigratorConfig{Retries: 2},
	}
	_, err := mig.Run(nil)
	var me *core.MigrationError
	if !errors.As(err, &me) || me.Phase != core.PhaseHandover {
		t.Fatalf("err = %v, want *MigrationError{Phase: handover}", err)
	}

	// The announcement may have reached the target before the ack was
	// lost, so the source is re-minted strictly above the handover
	// generation: it remains the sole max-generation primary.
	announced := mig.Report().Gen
	remint := announced + 1
	if got := g.Generation(); got != remint {
		t.Fatalf("source generation = %d, want re-minted %d (above announced %d)", got, remint, announced)
	}
	if _, _, fenced := g.Fenced(); fenced {
		t.Fatal("source still fenced after re-mint")
	}
	if gen, primary := a.sb.Store().PrimaryGen(g.ID); !primary || gen != remint {
		t.Fatalf("source store primary = (%d, %v), want (%d, true)", gen, primary, remint)
	}
	assertSolePrimary(t, g.ID, a, a, b)
	if watched := sup.Watched(); len(watched) != 1 || watched[0] != g.ID {
		t.Fatalf("supervisor watches = %v, want the source still supervised", watched)
	}
	// The source keeps checkpointing at its re-minted generation.
	durable := g.Durable()
	if _, err := a.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatalf("source checkpoint after re-mint: %v", err)
	}
	if err := a.o.Sync(g); err != nil {
		t.Fatalf("source sync after re-mint: %v", err)
	}
	if d := g.Durable(); d <= durable {
		t.Fatalf("source durable stuck at %d after re-mint", d)
	}
}

func TestMigrateDoubleHopOneLineage(t *testing.T) {
	a, b, c := newMigMach(t), newMigMach(t), newMigMach(t)
	gA := startApp(t, a, "app")
	lineage := gA.ID
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}

	wAB := newMigWire(t, a, b, gA.ID)
	mig1 := &core.Migrator{
		Src: a.o, Dst: b.o, G: gA,
		Link: wAB.Backend(), Target: wAB.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Reconnect: func() error { return wAB.Reset(gA.ID) },
		Cfg:       core.MigratorConfig{Lineage: lineage, Name: "hop1"},
	}
	rep1, err := mig1.Run(nil)
	if err != nil {
		t.Fatalf("hop A→B: %v", err)
	}
	gB := rep1.Group

	// The workload advances on B before the second hop.
	if _, err := b.k.Run(3); err != nil {
		t.Fatal(err)
	}
	want := counterOn(t, b, gB)
	if _, err := b.o.Checkpoint(gB, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := b.o.Sync(gB); err != nil {
		t.Fatal(err)
	}

	wBC := newMigWire(t, b, c, gB.ID)
	mig2 := &core.Migrator{
		Src: b.o, Dst: c.o, G: gB,
		Link: wBC.Backend(), Target: wBC.Receiver(),
		SrcStore: b.sb, DstStore: c.sb,
		Reconnect: func() error { return wBC.Reset(gB.ID) },
		Cfg:       core.MigratorConfig{Lineage: lineage, Name: "hop2"},
	}
	rep2, err := mig2.Run(nil)
	if err != nil {
		t.Fatalf("hop B→C: %v", err)
	}

	if rep2.Gen <= rep1.Gen {
		t.Fatalf("generations not strictly increasing across hops: %d then %d", rep1.Gen, rep2.Gen)
	}
	if got := counterOn(t, c, rep2.Group); got != want {
		t.Fatalf("counter at C = %d, want %d", got, want)
	}
	// Exactly one primary on the shared lineage key: C.
	assertSolePrimary(t, lineage, c, a, b, c)
	// Both predecessors are fenced and refuse the barrier.
	if _, err := a.o.Checkpoint(gA, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		t.Fatalf("fenced A checkpoint = %v, want ErrStaleGeneration", err)
	}
	if _, err := b.o.Checkpoint(gB, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		t.Fatalf("fenced B checkpoint = %v, want ErrStaleGeneration", err)
	}
}

func TestStandbyPromoteAfterSourceCrash(t *testing.T) {
	a, b := newMigMach(t), newMigMach(t)
	g := startApp(t, a, "app")
	if _, err := a.k.Run(4); err != nil {
		t.Fatal(err)
	}
	w := newMigWire(t, a, b, g.ID)
	sup := core.NewSupervisor(a.o, core.SupervisorConfig{})
	sup.Watch(g)

	var last uint64
	mig := &core.Migrator{
		Src: a.o, Dst: b.o, G: g,
		Link: w.Backend(), Target: w.Receiver(),
		SrcStore: a.sb, DstStore: b.sb,
		Sup:       sup,
		Reconnect: func() error { return w.Reset(g.ID) },
		Cfg:       core.MigratorConfig{Name: "standby"},
	}
	for i := 0; i < 3; i++ {
		if err := mig.StandbyRound(func() error {
			if _, err := a.k.Run(2); err != nil {
				return err
			}
			last = counterOn(t, a, g)
			return nil
		}); err != nil {
			t.Fatalf("standby round %d: %v", i, err)
		}
	}

	// Unplanned death: every member crashes.
	for _, pid := range g.PIDs() {
		p, err := a.k.Process(pid)
		if err != nil {
			t.Fatal(err)
		}
		a.k.Exit(p, 2)
	}

	rep, err := mig.PromoteStandby()
	if err != nil {
		t.Fatalf("standby promotion: %v", err)
	}
	if rep.TTR <= 0 || rep.TTR >= time.Second {
		t.Fatalf("TTR = %v, want sub-second virtual recovery", rep.TTR)
	}
	if got := counterOn(t, b, rep.Group); got != last {
		t.Fatalf("promoted counter = %d, want %d", got, last)
	}
	assertSolePrimary(t, g.ID, b, a, b)
	// The source supervisor must not resurrect the fenced corpse.
	for _, ev := range sup.Poll() {
		if ev.NewGroup != 0 {
			t.Fatalf("supervisor restored fenced zombie group %d as %d", ev.Group, ev.NewGroup)
		}
	}
	if watched := sup.Watched(); len(watched) != 0 {
		t.Fatalf("supervisor watches = %v after promotion", watched)
	}
}

func runMigrateChaos(t *testing.T, seed int64) {
	t.Helper()
	rep, err := bench.MigrateChaosRun(bench.MigrateChaosConfig{
		Seed:          seed,
		LinkDrop:      0.02,
		LinkDup:       0.01,
		LinkCorrupt:   0.01,
		StoreWriteErr: 0.01,
		StoreReadErr:  0.005,
		Retries:       8,
		PartitionMid:  true,
		Standby:       true,
	})
	if err != nil {
		t.Fatalf("migrate chaos seed %d: %v", seed, err)
	}
	if rep.TTR <= 0 || rep.TTR >= time.Second {
		t.Fatalf("seed %d: TTR = %v, want sub-second", seed, rep.TTR)
	}
	if rep.BlackoutMax <= 0 {
		t.Fatalf("seed %d: no blackout recorded", seed)
	}
	if rep.FencedRejects < rep.Hops+1 {
		t.Fatalf("seed %d: fenced rejects = %d, want one per handover", seed, rep.FencedRejects)
	}
	if rep.RestoresVerified < 2*(rep.Hops+1) {
		t.Fatalf("seed %d: restores verified = %d, want lazy-tail + store check per handover", seed, rep.RestoresVerified)
	}
	if rep.SupervisorSkips < 1 {
		t.Fatalf("seed %d: supervisor never refused the fenced zombie", seed)
	}
	if rep.Retries < 1 {
		t.Fatalf("seed %d: the scripted partition cost no retries", seed)
	}
	if rep.Durable == 0 || rep.FinalCounter == 0 {
		t.Fatalf("seed %d: durable=%d counter=%d, want nonzero", seed, rep.Durable, rep.FinalCounter)
	}
}

func TestMigrateChaosSeed1(t *testing.T)  { runMigrateChaos(t, 1) }
func TestMigrateChaosSeed7(t *testing.T)  { runMigrateChaos(t, 7) }
func TestMigrateChaosSeed42(t *testing.T) { runMigrateChaos(t, 42) }
