package core

import (
	"cmp"
	"errors"
	"sync"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// ledgerBackend is a non-ephemeral backend recording the order of
// epochs it was offered and accepted, failing while err is set — or,
// with failFirst > 0, only for its first failFirst calls.
type ledgerBackend struct {
	name      string // "" = "ledger"
	mu        sync.Mutex
	err       error
	failFirst int
	calls     []uint64 // epoch of every Flush call, in order
	epochs    []uint64 // epoch of every successful Flush, in order
}

func (b *ledgerBackend) setErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.err = err
}

func (b *ledgerBackend) accepted() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.epochs...)
}

func (b *ledgerBackend) offered() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.calls...)
}

func (b *ledgerBackend) Name() string    { return cmp.Or(b.name, "ledger") }
func (b *ledgerBackend) Ephemeral() bool { return false }

func (b *ledgerBackend) Flush(img *Image, _ NamedBytes) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, img.Epoch)
	if b.err != nil && (b.failFirst == 0 || len(b.calls) <= b.failFirst) {
		return 0, b.err
	}
	b.epochs = append(b.epochs, img.Epoch)
	return time.Microsecond, nil
}

func (b *ledgerBackend) Load(group, epoch uint64) (*Image, time.Duration, error) {
	return nil, 0, ErrNoImage
}

// TestDegradedModeKeepsDurableAdvancing is degraded durability: with a
// healthy store and a sick peer, g.durable keeps advancing while the
// sick backend queues missed epochs, and Sync resyncs it in order.
func TestDegradedModeKeepsDurableAdvancing(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	lb := &ledgerBackend{}
	r.o.Attach(g, r.store)
	r.o.Attach(g, lb)

	r.k.Run(3)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	r.o.Drain(g)

	injected := errors.New("cable unplugged")
	lb.setErr(injected)
	for i := 0; i < 2; i++ {
		r.k.Run(3)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	r.o.Drain(g)

	// The healthy store carried epochs 2 and 3 to retirement.
	if got := g.Durable(); got != 3 {
		t.Fatalf("durable = %d, want 3 (degraded mode must keep advancing)", got)
	}
	infos := g.Health()
	if len(infos) != 2 {
		t.Fatalf("health entries = %d, want 2", len(infos))
	}
	if infos[0].State != BackendHealthy || infos[0].Pending != 0 {
		t.Fatalf("store health = %+v, want healthy/0", infos[0])
	}
	if infos[1].State == BackendHealthy || infos[1].Pending != 2 {
		t.Fatalf("ledger health = %+v, want degraded with 2 queued", infos[1])
	}
	if infos[1].LastErr == "" {
		t.Fatal("degraded backend must surface its last error")
	}

	// Recovery: Sync forces the resync, replaying missed epochs in order.
	lb.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	infos = g.Health()
	if infos[1].State != BackendHealthy || infos[1].Pending != 0 {
		t.Fatalf("ledger health after resync = %+v, want healthy/0", infos[1])
	}
	if infos[1].Resyncs != 2 {
		t.Fatalf("resyncs = %d, want 2", infos[1].Resyncs)
	}
	if got := lb.accepted(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ledger accepted %v, want [1 2 3] in order", got)
	}
}

// TestBackendDownTypedErrors walks a lone backend down the
// healthy → degraded → down ladder and checks the typed error chain
// surfaces through Sync via errors.Is.
func TestBackendDownTypedErrors(t *testing.T) {
	r := newRig(t)
	r.o.FlushRetries = 1
	r.o.DownAfter = 2
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	lb := &ledgerBackend{}
	r.o.Attach(g, lb)

	injected := errors.New("dead controller")
	lb.setErr(injected)
	for i := 0; i < 3; i++ {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		r.o.Drain(g)
	}
	// The only backend failed every epoch: nothing retired.
	if got := g.Durable(); got != 0 {
		t.Fatalf("durable = %d, want 0 with all flushes failing", got)
	}
	if infos := g.Health(); infos[0].State != BackendDown {
		t.Fatalf("health = %+v, want down after repeated failures", infos[0])
	}
	err := r.o.Sync(g)
	if err == nil {
		t.Fatal("Sync with a down backend must fail")
	}
	if !errors.Is(err, injected) {
		t.Fatalf("Sync error %v must wrap the injected fault", err)
	}

	// Queued-while-down epochs carry the typed ErrBackendDown.
	r.k.Run(2)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	r.o.Drain(g)
	lb.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	if got := g.Durable(); got != 4 {
		t.Fatalf("durable = %d, want 4 after recovery", got)
	}
	if got := lb.accepted(); len(got) != 4 {
		t.Fatalf("ledger accepted %v, want all four epochs replayed", got)
	}
	for i, e := range lb.accepted() {
		if e != uint64(i+1) {
			t.Fatalf("replay out of order: %v", lb.accepted())
		}
	}
	if infos := g.Health(); infos[0].State != BackendHealthy {
		t.Fatalf("health after recovery = %+v", infos[0])
	}
}

// TestErrBackendDownIsTyped checks the skip-path error directly.
func TestErrBackendDownIsTyped(t *testing.T) {
	r := newRig(t)
	r.o.FlushRetries = 1
	r.o.DownAfter = 1
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	lb := &ledgerBackend{}
	lb.setErr(errors.New("boom"))
	r.o.Attach(g, lb)

	r.k.Run(2)
	r.o.Checkpoint(g, CheckpointOpts{})
	r.o.Drain(g) // epoch 1 fails, backend now down (DownAfter=1)

	// Background epochs offered to the down backend stay owed, with the
	// typed sentinel (probe pacing skips the device entirely).
	r.k.Run(2)
	r.o.Checkpoint(g, CheckpointOpts{})
	r.o.Drain(g)
	calls := len(lb.offered())
	_, err := r.o.flushBackend(g, lb, nil, g.LastImage(), false, nil)
	if !errors.Is(err, ErrBackendDown) || len(lb.offered()) != calls {
		t.Fatalf("err=%v after %d new calls, want ErrBackendDown without touching the backend", err, len(lb.offered())-calls)
	}
}

// TestMemoryBackendLoadTypedErrors is the satellite bugfix: both Load
// miss paths must wrap ErrNoImage for errors.Is.
func TestMemoryBackendLoadTypedErrors(t *testing.T) {
	r := newRig(t)
	if _, _, err := r.mem.Load(99, 0); !errors.Is(err, ErrNoImage) {
		t.Fatalf("empty-chain Load = %v, want ErrNoImage wrap", err)
	}
	if _, _, err := r.mem.Load(99, 7); !errors.Is(err, ErrNoImage) {
		t.Fatalf("missing-epoch Load = %v, want ErrNoImage wrap", err)
	}
	if _, _, err := r.store.Load(99, 0); !errors.Is(err, ErrNoImage) {
		t.Fatalf("store Load = %v, want ErrNoImage wrap", err)
	}
}

// faultRig is a machine whose primary store backend sits on a seeded
// fault-injecting device, with a clean secondary store.
type faultRig struct {
	clock     *storage.Clock
	k         *kernel.Kernel
	o         *Orchestrator
	fd        *storage.FaultDevice
	primary   *StoreBackend
	secondary *StoreBackend
}

func newFaultRig(seed int64, writeErr float64) *faultRig {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock,
		storage.FaultConfig{Seed: seed, WriteErr: writeErr, SyncErr: writeErr})
	return &faultRig{
		clock:     clock,
		k:         k,
		o:         o,
		fd:        fd,
		primary:   NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock),
		secondary: NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock), k.Mem, clock),
	}
}

// runFaultWorkload checkpoints a counter group n times and returns the
// group and the live counter value.
func runFaultWorkload(t *testing.T, fr *faultRig, n int) (*Group, uint64) {
	t.Helper()
	p, err := fr.k.Spawn(0, "counter")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
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
		t.Fatalf("final sync: %v", err)
	}
	return g, counterValue(p)
}

// TestFaultMatrixAcceptance is the ISSUE acceptance criterion: with a
// 1% seeded transient-fault rate on the primary backend of a
// two-backend group, a 200-checkpoint run completes with g.durable at
// the last epoch, the degraded backend fully caught up, and the state
// restored from the faulty primary bit-identical to a fault-free run.
func TestFaultMatrixAcceptance(t *testing.T) {
	const ckpts = 200
	// Fault-free reference run.
	cleanRig := newFaultRig(1, 0)
	_, cleanVal := runFaultWorkload(t, cleanRig, ckpts)

	for _, seed := range []int64{1, 7, 42} {
		fr := newFaultRig(seed, 0.01)
		g, liveVal := runFaultWorkload(t, fr, ckpts)

		if got := g.Epoch(); got != ckpts {
			t.Fatalf("seed %d: epoch = %d, want %d", seed, got, ckpts)
		}
		if got := g.Durable(); got != ckpts {
			t.Fatalf("seed %d: durable = %d, want %d", seed, got, ckpts)
		}
		if fr.fd.InjectedCount() == 0 {
			t.Fatalf("seed %d: no faults injected — the run proved nothing", seed)
		}
		for i, info := range g.Health() {
			if info.State != BackendHealthy || info.Pending != 0 {
				t.Fatalf("seed %d: backend %d not fully caught up: %+v", seed, i, info)
			}
		}
		if liveVal != cleanVal {
			t.Fatalf("seed %d: live counter %d diverged from fault-free %d", seed, liveVal, cleanVal)
		}

		// Zero data divergence on restore — from the faulty primary.
		img, dur, err := fr.primary.Load(g.ID, 0)
		if err != nil {
			t.Fatalf("seed %d: load from primary: %v", seed, err)
		}
		ng, _, err := fr.o.RestoreImage(img, dur, RestoreOpts{})
		if err != nil {
			t.Fatalf("seed %d: restore from primary: %v", seed, err)
		}
		np, err := fr.k.Process(ng.PIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(np); got != cleanVal {
			t.Fatalf("seed %d: restored counter %d, want %d (fault-free run)", seed, got, cleanVal)
		}
	}
}

// TestFaultMatrixSeeds is the fast fault-matrix sweep run by `make
// faultcheck`: several fixed seeds, higher fault rate, fewer epochs.
func TestFaultMatrixSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		fr := newFaultRig(seed, 0.05)
		g, _ := runFaultWorkload(t, fr, 40)
		if got := g.Durable(); got != 40 {
			t.Fatalf("seed %d: durable = %d, want 40", seed, got)
		}
		for i, info := range g.Health() {
			if info.State != BackendHealthy || info.Pending != 0 {
				t.Fatalf("seed %d: backend %d not caught up: %+v", seed, i, info)
			}
		}
	}
}
