package core

import (
	"sync"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// spaceRig is a rig whose store sits on a bounded fault device with a
// reclaimer attached: the minimal machine for space-pressure tests.
type spaceRig struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *Orchestrator
	fd    *storage.FaultDevice
	store *StoreBackend
	rec   *Reclaimer
}

func newSpaceRig(t *testing.T, capacity int64, policy RetentionPolicy, marks Watermarks) *spaceRig {
	t.Helper()
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	params := storage.ParamsOptaneNVMe
	params.Capacity = capacity
	fd := storage.NewFaultDevice(storage.NewMemDevice(params, clock), clock, storage.FaultConfig{Seed: 1})
	sb := NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)
	rec := NewReclaimer(o, sb, policy, marks)
	rec.Audit = (*objstore.Store).AuditReachability
	sb.SetReclaimer(rec)
	return &spaceRig{clock: clock, k: k, o: o, fd: fd, store: sb, rec: rec}
}

// pageCounter is the counter rewriting its whole page each step — the
// same bytes, as the rest of the page stays zero — so every epoch
// stores the page as a fresh block: the space tests need epochs that
// cost space, and a counter's 8-byte write is a line entry's patch.
type pageCounter struct{ counter }

func (c *pageCounter) ProgName() string { return "page-counter" }

func (c *pageCounter) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	page := make([]byte, vm.PageSize)
	if err := p.ReadMem(c.addr, page[:4]); err != nil {
		return err
	}
	v := uint32(page[0]) | uint32(page[1])<<8 | uint32(page[2])<<16 | uint32(page[3])<<24
	v++
	page[0], page[1], page[2], page[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return p.WriteMem(c.addr, page)
}

func init() {
	kernel.RegisterProgram("page-counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &pageCounter{counter{addr: vm.Addr(d.U64())}}, nil
	})
}

func (r *spaceRig) spawnGroup(t *testing.T) *Group {
	t.Helper()
	p, err := r.k.Spawn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&pageCounter{counter{addr: p.HeapBase()}})
	g, err := r.o.Persist("counter", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)
	return g
}

// ckpt runs a slice of work and takes one synced checkpoint.
func (r *spaceRig) ckpt(t *testing.T, g *Group, opts CheckpointOpts) CheckpointBreakdown {
	t.Helper()
	if _, err := r.k.Run(2); err != nil {
		t.Fatal(err)
	}
	bd, err := r.o.Checkpoint(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	return bd
}

// floorBackend is a minimal partition-aware stand-in: a backend whose
// only job is to report a contiguous catch-up floor to the reclaimer.
type floorBackend struct{ floor uint64 }

func (f *floorBackend) Name() string                                          { return "floor" }
func (f *floorBackend) Flush(img *Image, _ NamedBytes) (time.Duration, error) { return 0, nil }
func (f *floorBackend) Load(g, e uint64) (*Image, time.Duration, error)       { return nil, 0, ErrNoImage }
func (f *floorBackend) Ephemeral() bool                                       { return true }
func (f *floorBackend) CatchUpFloor(group uint64) uint64                      { return f.floor }

// TestReclaimerProtectionFloors drives an aggressive scan (KeepLast 1,
// watermarks at zero so any usage is emergency-level) against a
// lineage with a named snapshot and a replica floor, and checks every
// safety floor held: the named epoch, everything at or above the
// replica's contiguous catch-up floor, and the newest manifest survive
// while the unprotected middle is merged away.
func TestReclaimerProtectionFloors(t *testing.T) {
	r := newSpaceRig(t, 512<<20, RetentionPolicy{KeepLast: 1},
		Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9})
	r.o.ShedAdmitEvery = 1 // admit every barrier: this test isolates reclamation
	g := r.spawnGroup(t)

	fb := &floorBackend{floor: 6}
	r.o.Attach(g, fb)

	for i := 1; i <= 8; i++ {
		opts := CheckpointOpts{}
		if i == 3 {
			opts.Name = "keepsake"
		}
		r.ckpt(t, g, opts)
	}

	r.rec.Scan()
	if err := r.store.Store().AuditReachability(); err != nil {
		t.Fatalf("audit after scan: %v", err)
	}

	left := map[uint64]bool{}
	for _, m := range r.store.Store().Manifests(g.ID) {
		left[m.Epoch] = true
	}
	for _, want := range []uint64{3, 6, 7, 8} {
		if !left[want] {
			t.Errorf("protected epoch %d was reclaimed (left: %v)", want, left)
		}
	}
	for _, gone := range []uint64{1, 2, 4, 5} {
		if left[gone] {
			t.Errorf("unprotected epoch %d survived an emergency-level scan (left: %v)", gone, left)
		}
	}
	if _, err := r.store.Store().NamedManifest("keepsake"); err != nil {
		t.Errorf("named snapshot lost: %v", err)
	}

	// The floor is not forever: once the replica catches up, the same
	// scan reclaims what it previously protected.
	fb.floor = 9
	r.rec.Scan()
	left = map[uint64]bool{}
	for _, m := range r.store.Store().Manifests(g.ID) {
		left[m.Epoch] = true
	}
	for _, gone := range []uint64{6, 7} {
		if left[gone] {
			t.Errorf("epoch %d still held after the floor advanced (left: %v)", gone, left)
		}
	}
	if !left[3] || !left[8] {
		t.Errorf("named/newest epochs lost after floor advance (left: %v)", left)
	}
}

// TestReclaimerDropNamedPolicy checks that DropNamed is an explicit
// opt-in: with it set, a named snapshot is reclaimable like any epoch.
func TestReclaimerDropNamedPolicy(t *testing.T) {
	r := newSpaceRig(t, 512<<20, RetentionPolicy{KeepLast: 1, DropNamed: true},
		Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9})
	r.o.ShedAdmitEvery = 1
	g := r.spawnGroup(t)
	for i := 1; i <= 4; i++ {
		opts := CheckpointOpts{}
		if i == 2 {
			opts.Name = "expendable"
		}
		r.ckpt(t, g, opts)
		if i == 2 {
			if _, err := r.store.Store().NamedManifest("expendable"); err != nil {
				t.Fatalf("named checkpoint not recorded: %v", err)
			}
		}
	}
	r.rec.Scan()
	if _, err := r.store.Store().NamedManifest("expendable"); err == nil {
		t.Error("DropNamed policy did not release the named snapshot")
	}
}

// TestAdmissionShedStreak pins the admission-control contract under
// sustained emergency pressure: barriers shed (no epoch minted, Shed
// breakdowns, counters advancing) but every ShedAdmitEvery-th barrier
// is admitted, so the durable frontier keeps moving and never
// regresses.
func TestAdmissionShedStreak(t *testing.T) {
	// Watermarks near zero: any resident byte reads as emergency, and
	// KeepLast 4 on four retained epochs means scans cannot fix it.
	r := newSpaceRig(t, 512<<20, RetentionPolicy{KeepLast: 8},
		Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9})
	g := r.spawnGroup(t)

	r.ckpt(t, g, CheckpointOpts{}) // epoch 1: below pressure only before data lands

	admitted, shed := 0, 0
	prevDurable := g.Durable()
	for i := 0; i < 12; i++ {
		bd := r.ckpt(t, g, CheckpointOpts{})
		if bd.Shed {
			shed++
			if bd.Epoch != g.Epoch() {
				t.Fatalf("shed breakdown carries epoch %d, group at %d", bd.Epoch, g.Epoch())
			}
		} else {
			admitted++
		}
		if d := g.Durable(); d < prevDurable {
			t.Fatalf("durable regressed %d -> %d", prevDurable, d)
		} else {
			prevDurable = d
		}
	}
	// Streak cap 4 (default): of every 4 pressured barriers, 3 shed and
	// the 4th goes through.
	if admitted != 3 || shed != 9 {
		t.Fatalf("admitted %d, shed %d; want 3 admitted / 9 shed under the default streak cap", admitted, shed)
	}
	total, emergency := g.Sheds()
	if total != 9 || emergency != 9 {
		t.Fatalf("Sheds() = (%d, %d), want (9, 9)", total, emergency)
	}
	if g.Durable() != g.Epoch() {
		t.Fatalf("durable %d below epoch %d after synced barriers", g.Durable(), g.Epoch())
	}
}

// TestAdmissionZeroConfigNeutral checks the no-pressure contract: with
// no reclaimer attached, admission control never sheds and the
// checkpoint cadence is exactly the legacy one.
func TestAdmissionZeroConfigNeutral(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("counter", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)
	for i := 0; i < 5; i++ {
		if _, err := r.k.Run(2); err != nil {
			t.Fatal(err)
		}
		bd, err := r.o.Checkpoint(g, CheckpointOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if bd.Shed {
			t.Fatal("barrier shed without any pressure source configured")
		}
	}
	if total, _ := g.Sheds(); total != 0 {
		t.Fatalf("Sheds() = %d on an unpressured group", total)
	}
	if g.Epoch() != 5 {
		t.Fatalf("epoch %d, want 5", g.Epoch())
	}
}

// TestFlushENOSPCDegradedNotDown drives the flusher into an injected
// full device: the backend must degrade (not go down), trigger
// emergency reclamation, surface no error to the checkpoint caller,
// and recover to healthy — durable catching all the way up — once
// space returns.
func TestFlushENOSPCDegradedNotDown(t *testing.T) {
	r := newSpaceRig(t, 0, RetentionPolicy{}, Watermarks{})
	g := r.spawnGroup(t)
	r.ckpt(t, g, CheckpointOpts{})

	r.fd.SetFull(true)
	for i := 0; i < 8; i++ {
		if _, err := r.k.Run(2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatalf("checkpoint surfaced an error on a full device: %v", err)
		}
		r.o.Drain(g)
	}
	found := false
	for _, h := range g.Health() {
		if h.Name != r.store.Name() {
			continue
		}
		found = true
		if h.State != BackendDegraded {
			t.Fatalf("backend %s on a full device, want degraded: %v", h.State, h)
		}
		if h.Pending == 0 {
			t.Fatal("no epochs queued for catch-up while the device was full")
		}
	}
	if !found {
		t.Fatal("store backend missing from health report")
	}
	if st := r.rec.Stats(); st.EmergencyScans == 0 {
		t.Fatal("ENOSPC never triggered an emergency reclamation")
	}
	if g.Durable() >= g.Epoch() {
		t.Fatal("durable frontier advanced through a full device")
	}

	r.fd.SetFull(false)
	var err error
	for i := 0; i < 12 && g.Durable() != g.Epoch(); i++ {
		err = r.o.Sync(g)
	}
	if err != nil {
		t.Fatalf("sync after space returned: %v", err)
	}
	if g.Durable() != g.Epoch() {
		t.Fatalf("durable %d stuck below epoch %d after space returned", g.Durable(), g.Epoch())
	}
	for _, h := range g.Health() {
		if h.Name == r.store.Name() && h.State != BackendHealthy {
			t.Fatalf("backend %s after recovery, want healthy", h.State)
		}
	}
}

// TestFlushENOSPCNeverPoisonsStore checks the failure-atomicity claim
// behind the reclaim-and-retry loop: a flush refused for space leaves
// no partial record, no dedup entry pointing at unwritten bytes, and a
// clean audit — so the eventual retry is a clean re-delivery.
func TestFlushENOSPCNeverPoisonsStore(t *testing.T) {
	r := newSpaceRig(t, 0, RetentionPolicy{}, Watermarks{})
	g := r.spawnGroup(t)
	r.ckpt(t, g, CheckpointOpts{})

	r.fd.SetFull(true)
	if _, err := r.k.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	r.o.Drain(g)
	if err := r.store.Store().AuditReachability(); err != nil {
		t.Fatalf("full-device flush poisoned the store: %v", err)
	}
	if got := len(r.store.Store().Manifests(g.ID)); got != 1 {
		t.Fatalf("%d manifests after a refused flush, want 1", got)
	}
	r.fd.SetFull(false)
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if err := r.store.Store().AuditReachability(); err != nil {
		t.Fatalf("audit after recovery: %v", err)
	}
	if _, _, err := r.store.Load(g.ID, 0); err != nil {
		t.Fatalf("restore after ENOSPC recovery: %v", err)
	}
}

// TestSyncWithReclaimRetries checks the control-plane path: a
// superblock Sync that hits device full retries after emergency
// reclamation instead of failing the fence write.
func TestSyncWithReclaimRetries(t *testing.T) {
	r := newSpaceRig(t, 512<<20, RetentionPolicy{KeepLast: 1},
		Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9})
	g := r.spawnGroup(t)
	for i := 0; i < 4; i++ {
		r.ckpt(t, g, CheckpointOpts{})
	}
	// A plain failing sync (no space to reclaim, device errors) must
	// still surface: syncWithReclaim only swallows what reclamation can
	// actually fix.
	r.fd.Down()
	if err := r.o.syncWithReclaim(r.store); err == nil {
		t.Fatal("sync on a dead device reported success")
	}
	r.fd.Up()
	if err := r.o.syncWithReclaim(r.store); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
}

// TestReclaimerEmergencyWaitsForScanInFlight: an emergency caller holds
// an ENOSPC and reads "0 bytes freed" as "the epoch cannot be stored",
// so it must not coalesce into a scan already in flight. The ordinary
// scan is held open through the Audit hook; Emergency, called
// meanwhile, blocks until it finishes, then runs — and reports — a scan
// of its own.
func TestReclaimerEmergencyWaitsForScanInFlight(t *testing.T) {
	r := newSpaceRig(t, 512<<20, RetentionPolicy{KeepLast: 4},
		Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9})
	r.o.ShedAdmitEvery = 1
	g := r.spawnGroup(t)
	fb := &floorBackend{floor: 1} // pins all history while it accumulates
	r.o.Attach(g, fb)
	for i := 0; i < 8; i++ {
		r.ckpt(t, g, CheckpointOpts{})
	}
	fb.floor = 9
	base := r.rec.Stats()

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	r.rec.Audit = func(s *objstore.Store) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return s.AuditReachability()
	}
	scanned := make(chan int64, 1)
	go func() { scanned <- r.rec.Scan() }()
	<-entered

	freed := make(chan int64, 1)
	go func() { freed <- r.rec.Emergency() }()
	select {
	case n := <-freed:
		t.Fatalf("Emergency returned %d with a scan in flight: it coalesced instead of waiting", n)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if n := <-scanned; n <= 0 {
		t.Fatalf("the held scan freed %d bytes, want > 0", n)
	}
	// The ordinary scan stopped at KeepLast 4; the emergency scan's own
	// pass (KeepLast forced to 1) is what frees the rest.
	if n := <-freed; n <= 0 {
		t.Fatalf("Emergency freed %d bytes, want the bytes of its own scan", n)
	}
	st := r.rec.Stats()
	if got := st.EmergencyScans - base.EmergencyScans; got != 1 {
		t.Fatalf("EmergencyScans advanced by %d, want 1", got)
	}
	if got := st.Scans - base.Scans; got != 2 {
		t.Fatalf("Scans advanced by %d, want 2 (the held scan, then the emergency one)", got)
	}
	if st.LastAuditErr != "" {
		t.Fatalf("audit: %s", st.LastAuditErr)
	}
}

// TestSpaceBoundedStoreSurvivesFailedFlushWithoutSync: on a device that
// only holds a dozen epochs, one failed background flush must not wedge
// the stream. The failed epoch is retried by the next checkpoint, so
// the durable frontier — which the reclaimer's floor follows — keeps
// moving without any Sync, space keeps coming back, and no ErrOutOfSpace
// is left standing.
func TestSpaceBoundedStoreSurvivesFailedFlushWithoutSync(t *testing.T) {
	// Size the device from an unbounded control run of the same workload.
	ctl := newSpaceRig(t, 0, RetentionPolicy{}, Watermarks{})
	cg := ctl.spawnGroup(t)
	for i := 0; i < 12; i++ {
		ctl.ckpt(t, cg, CheckpointOpts{})
	}
	capacity, _, _ := ctl.store.Store().Usage()

	r := newSpaceRig(t, capacity, RetentionPolicy{}, Watermarks{})
	g := r.spawnGroup(t)
	const ckpts, failAt = 80, 20
	var prev uint64
	for i := 1; i <= ckpts; i++ {
		if i == failAt {
			r.fd.FailOps(storage.FaultWrite, r.fd.OpCount()+1, 1<<62)
		}
		if _, err := r.k.Run(2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		r.o.Drain(g)
		if i == failAt {
			if g.Durable() == g.Epoch() {
				t.Fatal("the scripted fault did not fail the background flush")
			}
			r.fd.ClearScripts()
		}
		if d := g.Durable(); d < prev {
			t.Fatalf("durable regressed %d -> %d", prev, d)
		} else {
			prev = d
		}
	}
	if d, e := g.Durable(), g.Epoch(); d != e {
		t.Fatalf("durable %d stuck below epoch %d with no Sync (last error: %q)", d, e, g.Health()[0].LastErr)
	}
	for _, h := range g.Health() {
		if h.State != BackendHealthy || h.Pending != 0 {
			t.Fatalf("backend not healthy at the end: %+v", h)
		}
	}
	st := r.rec.Stats()
	if st.EpochsReclaimed == 0 {
		t.Fatal("nothing was reclaimed: the device was not actually bounded")
	}
	if st.LastAuditErr != "" {
		t.Fatalf("audit during reclamation: %s", st.LastAuditErr)
	}
	if err := r.store.Store().AuditReachability(); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}
