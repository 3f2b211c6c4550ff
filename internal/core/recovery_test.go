package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// --- Crash-at-every-op recovery harness -------------------------------
//
// One instrumented reference run records, via the fault device's op
// log with data capture, the exact bytes every write landed on media.
// Crashing at op N is then equivalent to a fresh device holding the
// effects of the logged writes with op number <= N: the harness
// replays that prefix incrementally and cold-boots a whole machine
// from it — objstore.Open, manifest discovery, restore — asserting
// that every single crash point recovers to at least the last durable
// epoch, bit-identical to that epoch's captured state. A torn-prefix
// variant additionally lands the first half of the next write,
// modeling a power cut mid-write, before booting.

// syncMark records the device-op frontier of one durable epoch.
type syncMark struct {
	op    int64 // fd.OpCount() right after store.Sync returned
	epoch uint64
	val   uint64
}

// lastDurableAt returns the newest epoch whose full durability barrier
// completed at or before op n — the epoch recovery must reach at
// minimum when crashing right after op n.
func lastDurableAt(marks []syncMark, n int64) uint64 {
	var ep uint64
	for _, m := range marks {
		if m.op <= n {
			ep = m.epoch
		}
	}
	return ep
}

func TestRecoveryCrashAtEveryOp(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			crashAtEveryOp(t, seed, 100)
		})
	}
}

func crashAtEveryOp(t *testing.T, seed int64, ckpts int) {
	t.Helper()
	// --- Instrumented reference run ---
	clock := storage.NewClock()
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock,
		storage.FaultConfig{Seed: seed})
	fd.SetLogging(true)
	fd.SetDataLogging(true)

	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	store := objstore.Create(fd, clock)
	sb := NewStoreBackend(store, k.Mem, clock)

	p, err := k.Spawn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	g, err := o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	o.Attach(g, sb)

	var marks []syncMark
	vals := make(map[uint64]uint64)
	for i := 0; i < ckpts; i++ {
		k.Run(2)
		if _, err := o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		v := counterValue(p)
		if err := o.Sync(g); err != nil {
			t.Fatalf("sync %d: %v", i+1, err)
		}
		if err := store.Sync(); err != nil {
			t.Fatalf("store sync %d: %v", i+1, err)
		}
		marks = append(marks, syncMark{op: fd.OpCount(), epoch: g.Durable(), val: v})
		vals[g.Durable()] = v
	}
	groupID := g.ID
	log := fd.Log()
	maxOp := fd.OpCount()

	// --- Crash at every op index ---
	// Media state only changes at write ops; crashing between two
	// writes boots the identical device, so each distinct media state
	// is booted once while every op index is still accounted for.
	replayClock := storage.NewClock()
	media := storage.NewMemDevice(storage.ParamsOptaneNVMe, replayClock)
	li := 0
	boots := 0
	for n := int64(0); n <= maxOp; n++ {
		changed := n == 0
		for li < len(log) && log[li].N <= n {
			if log[li].Data != nil {
				if _, err := media.WriteAt(log[li].Data, log[li].Off); err != nil {
					t.Fatal(err)
				}
				changed = true
			}
			li++
		}
		if !changed && n != maxOp {
			continue
		}
		boots++
		assertRecoversTo(t, media, replayClock, groupID, lastDurableAt(marks, n), vals, n, false)

		// Torn-prefix variant: a power cut midway through the next
		// write. The next loop iteration overwrites the prefix with
		// the full buffer, so the shared media converges again.
		if li < len(log) && log[li].Data != nil && len(log[li].Data) > 1 {
			cut := len(log[li].Data) / 2
			if _, err := media.WriteAt(log[li].Data[:cut], log[li].Off); err != nil {
				t.Fatal(err)
			}
			assertRecoversTo(t, media, replayClock, groupID, lastDurableAt(marks, n), vals, n, true)
		}
	}
	if boots < ckpts {
		t.Fatalf("harness booted only %d times for %d checkpoints", boots, ckpts)
	}
	if len(vals) < ckpts {
		t.Fatalf("only %d distinct durable epochs recorded", len(vals))
	}
}

// assertRecoversTo cold-boots a machine from the media state and
// checks the recovery contract: the restored epoch is at least the
// last durable one, and the restored memory is bit-identical to what
// that epoch captured.
func assertRecoversTo(t *testing.T, dev storage.Device, clock *storage.Clock, groupID, lower uint64, vals map[uint64]uint64, n int64, torn bool) {
	t.Helper()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	store, err := objstore.Open(dev, clock)
	if err != nil {
		if lower != 0 {
			t.Fatalf("crash at op %d (torn=%v): store unmountable though epoch %d was durable: %v", n, torn, lower, err)
		}
		return
	}
	sb := NewStoreBackend(store, k.Mem, clock)
	img, readTime, err := sb.Load(groupID, 0)
	if err != nil {
		if lower != 0 {
			t.Fatalf("crash at op %d (torn=%v): no image though epoch %d was durable: %v", n, torn, lower, err)
		}
		return
	}
	if img.Epoch < lower {
		t.Fatalf("crash at op %d (torn=%v): recovered epoch %d < durable %d", n, torn, img.Epoch, lower)
	}
	want, ok := vals[img.Epoch]
	if !ok {
		t.Fatalf("crash at op %d (torn=%v): recovered unknown epoch %d", n, torn, img.Epoch)
	}
	ng, _, err := o.RestoreImage(img, readTime, RestoreOpts{})
	if err != nil {
		t.Fatalf("crash at op %d (torn=%v): restore of epoch %d: %v", n, torn, img.Epoch, err)
	}
	np, err := k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(np); got != want {
		t.Fatalf("crash at op %d (torn=%v): epoch %d restored counter %d, want %d — not bit-identical", n, torn, img.Epoch, got, want)
	}
}

// --- Lazy paging failover ---------------------------------------------

// dataPages is the number of extra patterned heap pages the failover
// workload writes beyond the counter page.
const dataPages = 6

func patternPage(page int, seed int64) []byte {
	b := make([]byte, vm.PageSize)
	for i := range b {
		b[i] = byte(int64(page)*31 + int64(i)*7 + seed)
	}
	return b
}

// failoverWorkload runs a counter plus several patterned data pages
// through n checkpoints on a faultRig, returning the group.
func failoverWorkload(t *testing.T, fr *faultRig, n int, seed int64) (*Group, *kernel.Process) {
	t.Helper()
	p, err := fr.k.Spawn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	for pg := 1; pg <= dataPages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), patternPage(pg, seed)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := fr.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	fr.o.Attach(g, fr.primary)
	fr.o.Attach(g, fr.secondary)
	for i := 0; i < n; i++ {
		fr.k.Run(2)
		if _, err := fr.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
	}
	if err := fr.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	return g, p
}

// readHeapPages demand-pages every data page (and the counter page) of
// the restored process, returning their contents.
func readHeapPages(t *testing.T, p *kernel.Process) [][]byte {
	t.Helper()
	out := make([][]byte, dataPages+1)
	for pg := 0; pg <= dataPages; pg++ {
		buf := make([]byte, vm.PageSize)
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			t.Fatalf("demand-paging page %d: %v", pg, err)
		}
		out[pg] = buf
	}
	return out
}

// TestRecoveryLazyFailover is the ISSUE acceptance scenario: a lazy
// restore whose primary store goes down mid-demand-paging completes by
// failing every remaining page over to the healthy peer backend, and
// the result is bit-identical to an eager, fault-free restore.
func TestRecoveryLazyFailover(t *testing.T) {
	const ckpts = 20
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Eager fault-free reference.
			ref := newFaultRig(seed, 0)
			gRef, _ := failoverWorkload(t, ref, ckpts, seed)
			ngRef, _, err := ref.o.Restore(gRef, 0, RestoreOpts{})
			if err != nil {
				t.Fatal(err)
			}
			refProc, _ := ref.k.Process(ngRef.PIDs()[0])
			refPages := readHeapPages(t, refProc)

			// Lazy restore; primary dies before demand paging starts.
			fr := newFaultRig(seed, 0)
			g, orig := failoverWorkload(t, fr, ckpts, seed)
			fr.k.Exit(orig, 0) // only the restored incarnation runs on
			ng, bd, err := fr.o.Restore(g, 0, RestoreOpts{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bd.Lazy {
				t.Fatal("restore was not lazy")
			}
			fr.fd.Down()

			np, _ := fr.k.Process(ng.PIDs()[0])
			gotPages := readHeapPages(t, np)
			for pg := range refPages {
				if !bytes.Equal(gotPages[pg], refPages[pg]) {
					t.Fatalf("page %d differs from eager fault-free restore", pg)
				}
			}
			stats := ng.RecoveryStats()
			if stats.Failovers == 0 {
				t.Fatal("no page failed over to the peer")
			}
			// The application keeps running against the peer-served state.
			before := counterValue(np)
			fr.k.Run(10)
			if got := counterValue(np); got != before+10 {
				t.Fatalf("counter after failover run = %d, want %d", got, before+10)
			}
		})
	}
}

// TestRecoveryLazyFailoverRepairsPrimary: when the primary is only
// degraded (transient read faults), peer-served pages are written back
// onto it, so the fault heals the primary instead of abandoning it.
func TestRecoveryLazyFailoverRepairsPrimary(t *testing.T) {
	const ckpts = 10
	fr := newFaultRig(7, 0)
	g, _ := failoverWorkload(t, fr, ckpts, 7)

	// All reads on the primary fail from now on — but the device is
	// not down, so read-repair writes can land.
	ng, _, err := fr.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	fr.fd.FailOps(storage.FaultRead, fr.fd.OpCount()+1, fr.fd.OpCount()+1_000_000)

	np, _ := fr.k.Process(ng.PIDs()[0])
	readHeapPages(t, np)
	stats := ng.RecoveryStats()
	if stats.Failovers == 0 {
		t.Fatal("no failover under read faults")
	}
	if stats.PagesRepaired == 0 {
		t.Fatal("peer pages were not written back to the primary")
	}
	if stats.Retries == 0 {
		t.Fatal("primary was not retried before failover")
	}
}

// --- Supervisor -------------------------------------------------------

// crasher is a counter that crashes once: the `armed` fuse is runtime
// state deliberately NOT captured in Snapshot, so the restored
// incarnation runs clean — a heisencrash the SLS recovers from.
type crasher struct {
	addr  vm.Addr
	fuse  int // crash after this many incarnation-local steps
	steps int
	armed bool
}

func (c *crasher) ProgName() string { return "crasher" }
func (c *crasher) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	e.I64(int64(c.fuse))
	return e.Bytes()
}
func (c *crasher) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	c.steps++
	if c.armed && c.steps >= c.fuse {
		return fmt.Errorf("crasher: synthetic fault at step %d", c.steps)
	}
	return (&counter{addr: c.addr}).Step(k, p, t)
}

// hardCrasher crashes whenever the persisted counter reaches its
// limit: restored state re-crashes deterministically — a crash loop.
type hardCrasher struct {
	addr  vm.Addr
	limit uint64
}

func (c *hardCrasher) ProgName() string { return "hardcrasher" }
func (c *hardCrasher) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	e.U64(c.limit)
	return e.Bytes()
}
func (c *hardCrasher) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	if err := (&counter{addr: c.addr}).Step(k, p, t); err != nil {
		return err
	}
	if counterValue(p) >= c.limit {
		return fmt.Errorf("hardcrasher: counter hit %d", c.limit)
	}
	return nil
}

func init() {
	kernel.RegisterProgram("crasher", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &crasher{addr: vm.Addr(d.U64()), fuse: int(d.I64()), armed: false}, nil
	})
	kernel.RegisterProgram("hardcrasher", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &hardCrasher{addr: vm.Addr(d.U64()), limit: d.U64()}, nil
	})
}

// TestRecoverySupervisorRestoresCrash: a watched group whose process
// dies is auto-restored from the last durable epoch and runs on.
func TestRecoverySupervisorRestoresCrash(t *testing.T) {
	r := newRig(t)
	p, err := r.k.Spawn(0, "app")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&crasher{addr: p.HeapBase(), fuse: 20, armed: true})
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)

	r.k.Run(10)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	ckptVal := counterValue(p)

	sup := NewSupervisor(r.o, SupervisorConfig{})
	sup.Watch(g)
	if evs := sup.Poll(); len(evs) != 0 {
		t.Fatalf("healthy group produced events: %v", evs)
	}

	// Run into the crash.
	r.k.Run(30)
	if p.State() != kernel.ProcZombie || p.ExitCode == 0 {
		t.Fatalf("process did not crash: state=%v code=%d", p.State(), p.ExitCode)
	}

	evs := sup.Poll()
	if len(evs) != 1 || evs[0].Err != nil || evs[0].NewGroup == 0 {
		t.Fatalf("recovery events = %+v", evs)
	}
	ng, err := r.o.Group(evs[0].NewGroup)
	if err != nil {
		t.Fatal(err)
	}
	np, err := r.k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(np); got != ckptVal {
		t.Fatalf("restored counter = %d, want checkpoint's %d", got, ckptVal)
	}
	// The restored incarnation is disarmed (the fuse was runtime
	// state): it runs past the old crash point.
	r.k.Run(40)
	if np.State() == kernel.ProcZombie {
		t.Fatal("restored process crashed again")
	}
	if got := counterValue(np); got != ckptVal+40 {
		t.Fatalf("restored counter after run = %d, want %d", got, ckptVal+40)
	}
	// The watch followed the group: old ID gone, new ID supervised.
	ids := sup.Watched()
	if len(ids) != 1 || ids[0] != ng.ID {
		t.Fatalf("watched = %v, want [%d]", ids, ng.ID)
	}
}

// TestRecoverySupervisorCrashLoop: a group whose persisted state
// deterministically re-crashes exhausts its restart budget and is
// given up on instead of restarting forever.
func TestRecoverySupervisorCrashLoop(t *testing.T) {
	r := newRig(t)
	p, err := r.k.Spawn(0, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&hardCrasher{addr: p.HeapBase(), limit: 15})
	g, err := r.o.Persist("doomed", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)

	r.k.Run(10)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}

	const budget = 3
	// A wide window so the budget never refills mid-test.
	sup := NewSupervisor(r.o, SupervisorConfig{MaxRestarts: budget, Window: time.Hour})
	sup.Watch(g)

	restarts := 0
	var gaveUp bool
	for i := 0; i < budget+3 && !gaveUp; i++ {
		r.k.Run(50) // run into the (re-)crash
		for _, ev := range sup.Poll() {
			if ev.GaveUp {
				gaveUp = true
			} else if ev.Err == nil {
				restarts++
			}
		}
	}
	if !gaveUp {
		t.Fatalf("crash loop was never given up on (restarts=%d)", restarts)
	}
	if restarts != budget {
		t.Fatalf("restarts before giving up = %d, want %d", restarts, budget)
	}
	if len(sup.Watched()) != 0 {
		t.Fatalf("crash-looped group still watched: %v", sup.Watched())
	}
}
