package core

// Typed-error round trips: every sentinel the public API documents
// must survive its wrap sites so callers dispatch with errors.Is, not
// string matching. Each test drives a real end-to-end path — the
// wrap chain under test is the one production callers actually see.

import (
	"errors"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// TestErrNoImageRoundTrip: a store that never flushed anything
// surfaces ErrNoImage both from the backend Load and through the full
// Restore resolution loop (which wraps it again per chain searched).
func TestErrNoImageRoundTrip(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)
	if _, _, err := r.store.Load(g.ID, 7); !errors.Is(err, ErrNoImage) {
		t.Fatalf("store Load = %v, want ErrNoImage wrap", err)
	}
	if _, _, err := r.o.Restore(g, 0, RestoreOpts{}); !errors.Is(err, ErrNoImage) {
		t.Fatalf("Restore = %v, want ErrNoImage wrap", err)
	}
}

// TestQuarantineCorruptionRoundTrip: corruption caught by the eager
// load's hash-verified reads surfaces BOTH sentinels when the chain
// runs dry — ErrEpochQuarantined (the epoch was poisoned) and
// objstore.ErrCorruptBlock (why) — through one wrap chain.
func TestQuarantineCorruptionRoundTrip(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)
	r.k.Run(2)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	corruptEpochBlock(t, r.store, g.ID, 1)
	_, _, rerr := r.o.Restore(g, 1, RestoreOpts{})
	if !errors.Is(rerr, ErrEpochQuarantined) {
		t.Fatalf("Restore = %v, want ErrEpochQuarantined wrap", rerr)
	}
	if !errors.Is(rerr, objstore.ErrCorruptBlock) {
		t.Fatalf("Restore = %v, must keep the ErrCorruptBlock cause", rerr)
	}
}

// heldBackend is a failing non-ephemeral backend whose next Flush can
// be held open, to keep one prober inside the backend while another
// caller arrives.
type heldBackend struct {
	ledgerBackend
	hold    chan struct{} // non-nil: the next Flush blocks until closed
	entered chan struct{} // closed when that Flush starts
}

func (b *heldBackend) Flush(img *Image) (time.Duration, error) {
	b.mu.Lock()
	hold, entered := b.hold, b.entered
	b.hold, b.entered = nil, nil
	b.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	return b.ledgerBackend.Flush(img)
}

// TestFlushAllDeferredRoundTrip: an epoch every backend deferred (the
// lone backend is down and another caller holds its probe) surfaces
// the typed ErrBackendDown through Sync, selectable with errors.Is,
// and stays counted in QueueDepth until it retires.
func TestFlushAllDeferredRoundTrip(t *testing.T) {
	r := newRig(t)
	r.o.FlushRetries = 1
	r.o.DownAfter = 1
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	hb := &heldBackend{}
	hb.setErr(errors.New("dead controller"))
	r.o.Attach(g, hb)

	for i := 0; i < 2; i++ {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		// Epoch 1 fails on the device and the backend goes down
		// (DownAfter=1); the second barrier's retry of it skip-defers.
		r.o.Drain(g)
	}
	if st := g.Health()[0].State; st != BackendDown {
		t.Fatalf("backend state %s, want down", st)
	}
	if d, depth := g.Durable(), g.QueueDepth(); d != 0 || depth != 2 {
		t.Fatalf("durable %d depth %d, want 0 and 2 (deferred epochs stay queued)", d, depth)
	}

	// An explicit Resync takes the probe and sticks inside the backend.
	hold, entered := make(chan struct{}), make(chan struct{})
	hb.mu.Lock()
	hb.hold, hb.entered = hold, entered
	hb.mu.Unlock()
	resyncDone := make(chan struct{})
	go func() {
		defer close(resyncDone)
		_ = r.o.Resync(g) // fails: the controller is still dead
	}()
	<-entered

	// Sync's retry of the head finds the probe taken: no backend held
	// the epoch, and the failure carries the typed sentinel.
	err = r.o.Sync(g)
	if !errors.Is(err, ErrBackendDown) {
		t.Fatalf("all-deferred epoch: Sync = %v, want ErrBackendDown wrap", err)
	}
	if d, depth := g.Durable(), g.QueueDepth(); d != 0 || depth != 2 {
		t.Fatalf("durable %d depth %d after the deferred Sync, want 0 and 2", d, depth)
	}
	close(hold)
	<-resyncDone

	hb.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	if d, depth := g.Durable(), g.QueueDepth(); d != 2 || depth != 0 {
		t.Fatalf("durable %d depth %d after recovery, want 2 and 0", d, depth)
	}
}

// TestRestoreFallsBackWhenDurableEpochElsewhere: durability is a group
// property — an epoch retires once ANY non-ephemeral backend holds it.
// When the store's flush of the durable epoch was still deferred at
// crash time, a flexible restore (epoch 0) must fall back to the
// newest epoch the store does hold instead of failing outright.
func TestRestoreFallsBackWhenDurableEpochElsewhere(t *testing.T) {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock, storage.FaultConfig{Seed: 5})
	store := NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)

	p, err := k.Spawn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	g, err := o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	lb := &ledgerBackend{} // the healthy non-ephemeral peer (a replica stand-in)
	o.Attach(g, store)
	o.Attach(g, lb)

	k.Run(2)
	if _, err := o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := o.Sync(g); err != nil {
		t.Fatal(err) // epoch 1 on both backends
	}

	// Every further store write fails: epoch 2 lands only on the peer.
	fd.FailOps(storage.FaultWrite, fd.OpCount()+1, 1<<62)
	k.Run(2)
	if _, err := o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	o.Drain(g)
	if got := g.Durable(); got != 2 {
		t.Fatalf("durable = %d, want 2 (the peer held it)", got)
	}

	ng, bd, err := o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatalf("flexible restore must fall back, got %v", err)
	}
	if ng.Epoch() != 1 {
		t.Fatalf("restored epoch = %d, want 1 (the store's newest)", ng.Epoch())
	}
	if bd.FallbackFrom != 2 {
		t.Fatalf("FallbackFrom = %d, want 2", bd.FallbackFrom)
	}

	// An explicit epoch request keeps its strict meaning: epoch 2 is
	// not on this store, so the restore fails with ErrNoImage.
	if _, _, err := o.Restore(g, 2, RestoreOpts{}); !errors.Is(err, ErrNoImage) {
		t.Fatalf("explicit restore of a missing epoch = %v, want ErrNoImage", err)
	}
}

// TestErrQuorumLostRoundTrip: with a 3-of-3 write quorum and two dead
// members, the epoch must not retire — the background flush records
// ErrQuorumLost and Sync surfaces it, still wrapped, alongside the
// first member failure that caused it.
func TestErrQuorumLostRoundTrip(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	lb1, lb2 := &ledgerBackend{}, &ledgerBackend{}
	injected := errors.New("backplane gone")
	lb1.setErr(injected)
	lb2.setErr(injected)
	r.o.Attach(g, r.store)
	r.o.Attach(g, lb1)
	r.o.Attach(g, lb2)
	g.SetQuorum(QuorumPolicy{W: 3})

	r.k.Run(2)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	err = r.o.Sync(g)
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("Sync = %v, want ErrQuorumLost wrap", err)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("Sync = %v, want the member failure preserved in the wrap", err)
	}
	if g.Durable() != 0 {
		t.Fatalf("durable = %d after a lost quorum, want 0", g.Durable())
	}

	// Quorum restored: the same epoch retires on the next Sync.
	lb1.setErr(nil)
	lb2.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatalf("Sync after quorum restored: %v", err)
	}
	if g.Durable() != 1 {
		t.Fatalf("durable = %d after quorum restored, want 1", g.Durable())
	}
}

// TestStaleGenerationUnderQuorumRoundTrip: a fenced member that makes
// the write quorum unreachable surfaces BOTH sentinels through one
// wrap chain — ErrQuorumLost (the epoch cannot retire) and
// ErrStaleGeneration with its *FenceError detail (why: this primary
// was superseded).
func TestStaleGenerationUnderQuorumRoundTrip(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	fenced := &latencyBackend{err: &FenceError{Gen: 7, Err: ErrStaleGeneration}}
	r.o.Attach(g, r.store)
	r.o.Attach(g, fenced)
	g.SetQuorum(QuorumPolicy{W: 2})

	r.k.Run(2)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	err = r.o.Sync(g)
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("Sync = %v, want ErrQuorumLost wrap", err)
	}
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("Sync = %v, want ErrStaleGeneration preserved through the quorum wrap", err)
	}
	var fe *FenceError
	if !errors.As(err, &fe) || fe.Gen != 7 {
		t.Fatalf("Sync = %v, want *FenceError{Gen: 7} recoverable with errors.As", err)
	}
}

// fakeReplicaSource is a minimal migration target for error-path
// tests: it never holds any epoch.
type fakeReplicaSource struct{ fence uint64 }

func (f *fakeReplicaSource) ImageAt(group, epoch uint64) (*Image, error) { return nil, ErrNoImage }
func (f *fakeReplicaSource) ContiguousEpoch(group uint64) uint64         { return 0 }
func (f *fakeReplicaSource) ReplicaEpochs(group uint64) []uint64         { return nil }
func (f *fakeReplicaSource) FenceGen(group uint64) uint64                { return f.fence }
func (f *fakeReplicaSource) AdoptFence(group, gen uint64)                { f.fence = gen }

// TestMigrationAbortedRoundTrip: a migration whose pre-copy dies on a
// fenced quorum member surfaces EVERY sentinel through one wrap chain —
// ErrMigrationAborted (identity for "the migration failed"),
// ErrQuorumLost (why the epoch could not retire), ErrStaleGeneration
// (why the member refused), plus *MigrationError (which phase) and
// *FenceError (which generation) via errors.As.
func TestMigrationAbortedRoundTrip(t *testing.T) {
	src, dst := newRig(t), newRig(t)
	p := spawnCounter(t, src)
	g, err := src.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	fenced := &latencyBackend{err: &FenceError{Gen: 7, Err: ErrStaleGeneration}}
	src.o.Attach(g, src.store)
	src.o.Attach(g, fenced)
	g.SetQuorum(QuorumPolicy{W: 2})
	src.k.Run(2)

	m := &Migrator{
		Src: src.o, Dst: dst.o, G: g,
		Link:   fenced,
		Target: &fakeReplicaSource{},
		Cfg:    MigratorConfig{Retries: 1},
	}
	_, err = m.Run(nil)
	if err == nil {
		t.Fatal("migration over a fenced quorum succeeded")
	}
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("err = %v, want ErrMigrationAborted wrap", err)
	}
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost preserved through the migration wrap", err)
	}
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("err = %v, want ErrStaleGeneration preserved through the migration wrap", err)
	}
	var me *MigrationError
	if !errors.As(err, &me) || me.Phase != PhasePreCopy || me.Group != g.ID {
		t.Fatalf("err = %v, want *MigrationError{Phase: pre-copy, Group: %d}", err, g.ID)
	}
	var fe *FenceError
	if !errors.As(err, &fe) || fe.Gen != 7 {
		t.Fatalf("err = %v, want *FenceError{Gen: 7} recoverable with errors.As", err)
	}
	// A fencing rejection is terminal: the bounded retry budget must
	// not have been burned on it.
	if me.Retries != 0 {
		t.Fatalf("retries = %d, want 0 — fences do not heal", me.Retries)
	}
}

// TestMigrationErrorIsNotGenericAborted: MigrationError matches only
// the migration sentinel by identity — it does not swallow unrelated
// Is targets.
func TestMigrationErrorIsNotGenericAborted(t *testing.T) {
	me := &MigrationError{Phase: PhaseHandover, Group: 3, Err: ErrNoImage}
	if !errors.Is(me, ErrMigrationAborted) {
		t.Fatal("MigrationError does not match ErrMigrationAborted")
	}
	if !errors.Is(me, ErrNoImage) {
		t.Fatal("MigrationError hides its cause from errors.Is")
	}
	if errors.Is(me, ErrQuorumLost) {
		t.Fatal("MigrationError matches an unrelated sentinel")
	}
}
