package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// This file tests the background flush pipeline: Checkpoint must
// return at barrier completion (resume) while durability — and with it
// external consistency — advances only when the flusher retires the
// epoch on every backend. All tests here are meant to run under
// `go test -race`.

// gateBackend is a non-ephemeral backend whose Flush blocks on
// per-epoch gates, letting tests hold a flush in flight deliberately.
type gateBackend struct {
	mu      sync.Mutex
	gates   map[uint64]chan struct{} // epoch -> release gate
	entered map[uint64]chan struct{} // epoch -> closed when Flush starts
	flushed map[uint64]bool
}

func newGateBackend() *gateBackend {
	return &gateBackend{
		gates:   make(map[uint64]chan struct{}),
		entered: make(map[uint64]chan struct{}),
		flushed: make(map[uint64]bool),
	}
}

// gate arranges for the given epoch's Flush to block until release.
// Must be called before the epoch is checkpointed.
func (b *gateBackend) gate(epoch uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gates[epoch] = make(chan struct{})
	b.entered[epoch] = make(chan struct{})
}

func (b *gateBackend) release(epoch uint64) {
	b.mu.Lock()
	ch := b.gates[epoch]
	delete(b.gates, epoch)
	b.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// awaitEntered blocks until the epoch's Flush has been picked up by a
// pipeline worker.
func (b *gateBackend) awaitEntered(t *testing.T, epoch uint64) {
	t.Helper()
	b.mu.Lock()
	ch := b.entered[epoch]
	b.mu.Unlock()
	if ch == nil {
		t.Fatalf("epoch %d was never gated", epoch)
	}
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("flush of epoch %d never started", epoch)
	}
}

func (b *gateBackend) hasFlushed(epoch uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushed[epoch]
}

func (b *gateBackend) Name() string    { return "gate" }
func (b *gateBackend) Ephemeral() bool { return false }

func (b *gateBackend) Flush(img *Image) (time.Duration, error) {
	b.mu.Lock()
	gate := b.gates[img.Epoch]
	entered := b.entered[img.Epoch]
	b.mu.Unlock()
	if entered != nil {
		close(entered)
	}
	if gate != nil {
		<-gate
	}
	b.mu.Lock()
	b.flushed[img.Epoch] = true
	b.mu.Unlock()
	return 42 * time.Microsecond, nil
}

func (b *gateBackend) Load(group, epoch uint64) (*Image, time.Duration, error) {
	return nil, 0, ErrNoImage
}

// flakyBackend is a non-ephemeral backend whose Flush fails while an
// injected error is set.
type flakyBackend struct {
	mu       sync.Mutex
	err      error
	attempts int
}

func (b *flakyBackend) setErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.err = err
}

func (b *flakyBackend) tries() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempts
}

func (b *flakyBackend) Name() string    { return "flaky" }
func (b *flakyBackend) Ephemeral() bool { return false }

func (b *flakyBackend) Flush(img *Image) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempts++
	if b.err != nil {
		return 0, b.err
	}
	return time.Microsecond, nil
}

func (b *flakyBackend) Load(group, epoch uint64) (*Image, time.Duration, error) {
	return nil, 0, ErrNoImage
}

// TestCheckpointReturnsBeforeFlush is the acceptance criterion:
// Checkpoint returns as soon as the group resumes, while the epoch's
// flush is still in flight, and Released stays false until the
// non-ephemeral backend has durably flushed the covering epoch.
func TestCheckpointReturnsBeforeFlush(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	gb := newGateBackend()
	gb.gate(1)
	r.o.Attach(g, gb)

	r.k.Run(5)
	bd, err := r.o.Checkpoint(g, CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint returned while the backend flush is still blocked.
	if gb.hasFlushed(1) {
		t.Fatal("flush completed before Checkpoint returned; pipeline is synchronous")
	}
	if bd.StopTime == 0 {
		t.Fatal("no stop time recorded")
	}
	if bd.FlushTime != 0 {
		t.Fatalf("breakdown carries flush time %v at barrier completion", bd.FlushTime)
	}
	if d := g.Durable(); d != 0 {
		t.Fatalf("durable = %d while flush in flight, want 0", d)
	}
	if depth := g.QueueDepth(); depth != 1 {
		t.Fatalf("queue depth = %d, want 1", depth)
	}
	if r.o.Released(g.ID, 0) {
		t.Fatal("epoch released before the backend flushed it")
	}
	// The application keeps running during the flush.
	r.k.Run(5)
	if got := counterValue(p); got != 10 {
		t.Fatalf("counter = %d, want 10 (group stalled during background flush)", got)
	}

	gb.release(1)
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if d := g.Durable(); d != 1 {
		t.Fatalf("durable = %d after sync, want 1", d)
	}
	if !r.o.Released(g.ID, 0) {
		t.Fatal("epoch not released after durable flush")
	}
	if depth := g.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth = %d after sync, want 0", depth)
	}
	// Retirement patched the modeled flush time into the record.
	if got := g.Breakdowns()[0].FlushTime; got != 42*time.Microsecond {
		t.Fatalf("patched flush time = %v, want 42µs", got)
	}
}

// TestDurableNeverPassesAnUnflushedEpoch: while an epoch's flush is in
// flight its successor is not even started, so the durable frontier
// cannot advance past it.
func TestDurableNeverPassesAnUnflushedEpoch(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	gb := newGateBackend()
	gb.gate(1) // epoch 1 blocks; epoch 2 would flush immediately
	r.o.Attach(g, gb)

	r.k.Run(1)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	gb.awaitEntered(t, 1)
	r.k.Run(1)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	// Give an out-of-order pipeline every chance to start epoch 2.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if gb.hasFlushed(2) {
		t.Fatal("epoch 2 flushed with epoch 1 still in flight (overtaken)")
	}
	if d := g.Durable(); d != 0 {
		t.Fatalf("durable = %d with epoch 1 still in flight, want 0 (hole in history)", d)
	}
	if depth := g.QueueDepth(); depth != 2 {
		t.Fatalf("queue depth = %d, want 2", depth)
	}

	gb.release(1)
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if d := g.Durable(); d != 2 {
		t.Fatalf("durable = %d after sync, want 2", d)
	}
}

// TestFailedHeadIsNeverOvertaken: an epoch whose background flush
// failed stays at the head of the pipeline and is retried by the next
// checkpoint — the backend never sees a later epoch before the failed
// one succeeded, and the durable frontier passes it without any Sync.
func TestFailedHeadIsNeverOvertaken(t *testing.T) {
	r := newRig(t)
	r.o.FlushRetries = 1
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	// Epoch 1's background flush fails both of its attempts, once.
	lb := &ledgerBackend{failFirst: 2}
	lb.setErr(errors.New("transient"))
	r.o.Attach(g, lb)

	r.k.Run(1)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	r.o.Drain(g)
	if d, depth := g.Durable(), g.QueueDepth(); d != 0 || depth != 1 {
		t.Fatalf("durable %d depth %d after the failed flush, want 0 and 1", d, depth)
	}
	for i := 0; i < 2; i++ {
		r.k.Run(1)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "durable to reach 3 with no Sync", func() bool { return g.Durable() == 3 })

	if got, want := lb.offered(), []uint64{1, 1, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("backend saw epochs %v, want %v (a failed head retried before its successors)", got, want)
	}
	if got, want := lb.accepted(), []uint64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("backend accepted %v, want %v", got, want)
	}
	if depth := g.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth = %d after everything retired, want 0", depth)
	}
}

// TestNoHangBehindDeadBackend: with the sole backend failing every
// flush, more checkpoints than the admission window holds all return
// (Enqueue never waits behind a stalled head), Sync surfaces the typed
// failure, and once the fault clears one Sync retires every epoch in
// order.
func TestNoHangBehindDeadBackend(t *testing.T) {
	r := newRig(t)
	r.o.FlushRetries = 1
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	injected := errors.New("dead controller")
	lb := &ledgerBackend{}
	lb.setErr(injected)
	r.o.Attach(g, lb)

	const n = 1 + defaultFlushQueue + 3
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			r.k.Run(1)
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a checkpoint blocked behind a failed head")
	}
	r.o.Drain(g)
	if d, depth := g.Durable(), g.QueueDepth(); d != 0 || depth != n {
		t.Fatalf("durable %d depth %d, want 0 and %d", d, depth, n)
	}
	if err := r.o.Sync(g); !errors.Is(err, injected) {
		t.Fatalf("Sync = %v, want the injected fault", err)
	}
	if d := g.Durable(); d != 0 {
		t.Fatalf("durable = %d after a failed Sync, want 0", d)
	}

	lb.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	if d, depth := g.Durable(), g.QueueDepth(); d != n || depth != 0 {
		t.Fatalf("durable %d depth %d after recovery, want %d and 0", d, depth, n)
	}
	got := lb.accepted()
	if len(got) != n {
		t.Fatalf("ledger accepted %v, want epochs 1..%d", got, n)
	}
	for i, e := range got {
		if e != uint64(i+1) {
			t.Fatalf("epochs retired out of order: %v", got)
		}
	}
}

// TestFlushErrorStallsDurabilityAndGating is the failure-injection
// satellite: a failing backend leaves Durable unadvanced, keeps
// external-consistency buffering in place, and surfaces the error on
// the next Sync; clearing the fault and syncing again recovers.
func TestFlushErrorStallsDurabilityAndGating(t *testing.T) {
	r := newRig(t)
	srv := spawnCounter(t, r)
	ext, _ := r.k.Spawn(0, "client") // outside any group
	a, b, _ := r.k.NewSocketPair(srv)
	fdB, _ := srv.FDs.Get(b)
	extFD, _ := ext.FDs.Install(r.k, fdB.File, kernel.ORdWr)

	g, _ := r.o.Persist("srv", srv)
	fb := &flakyBackend{}
	r.o.Attach(g, r.mem)
	r.o.Attach(g, fb)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil { // epoch 1 durable
		t.Fatal(err)
	}

	// Output written during epoch 1 waits for epoch 2's durability.
	r.k.Write(srv, a, []byte("held"))
	buf := make([]byte, 8)
	if _, err := r.k.Read(ext, extFD, buf); err != kernel.ErrWouldBlock {
		t.Fatalf("pre-checkpoint read err = %v, want would-block", err)
	}

	injected := errors.New("device offline")
	fb.setErr(injected)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err) // the barrier itself succeeds; the flush fails later
	}
	r.o.Drain(g) // wait out the failing background attempt
	if d := g.Durable(); d != 1 {
		t.Fatalf("durable = %d after failed flush, want 1", d)
	}
	if _, err := r.k.Read(ext, extFD, buf); err != kernel.ErrWouldBlock {
		t.Fatalf("gated read err = %v after failed flush, want would-block", err)
	}

	// The failure surfaces on the next sync, naming the backend.
	err := r.o.Sync(g)
	if err == nil {
		t.Fatal("sync succeeded over a failed epoch")
	}
	if !errors.Is(err, injected) || !strings.Contains(err.Error(), "flaky") {
		t.Fatalf("sync err = %v, want wrapped %v naming the backend", err, injected)
	}
	if d := g.Durable(); d != 1 {
		t.Fatalf("durable = %d after failed sync, want 1", d)
	}

	// Clearing the fault: Sync retries the stalled epoch and recovers.
	fb.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if d := g.Durable(); d != 2 {
		t.Fatalf("durable = %d after recovery, want 2", d)
	}
	n, err := r.k.Read(ext, extFD, buf)
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("post-recovery read = %q, %v", buf[:n], err)
	}
	if fb.tries() < 3 {
		t.Fatalf("flaky backend saw %d attempts, want >= 3 (ok, fail, retry)", fb.tries())
	}
}

// TestCheckpointBackpressure: the bounded queue makes a checkpoint
// storm block once the pipeline is full, instead of building an
// unbounded backlog of unflushed epochs.
func TestCheckpointBackpressure(t *testing.T) {
	r := newRig(t)
	r.o.FlushQueueDepth = 1
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	gb := newGateBackend()
	gb.gate(1)
	r.o.Attach(g, gb)

	r.k.Run(1)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	gb.awaitEntered(t, 1) // the lone worker is now stuck on epoch 1
	r.k.Run(1)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err) // fills the single queue slot
	}
	r.k.Run(1)
	done := make(chan error, 1)
	go func() {
		_, err := r.o.Checkpoint(g, CheckpointOpts{})
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("checkpoint returned with the pipeline full; no backpressure")
	case <-time.After(50 * time.Millisecond):
	}
	// Depth counts every un-retired epoch, including the one blocked in
	// Enqueue (registered before the channel send so Sync covers it).
	if depth := g.QueueDepth(); depth != 3 {
		t.Fatalf("queue depth = %d, want 3", depth)
	}

	gb.release(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint never unblocked after flush drained")
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if d := g.Durable(); d != 3 {
		t.Fatalf("durable = %d, want 3", d)
	}
}

// TestCheckpointStormUnderConcurrentWrites is the concurrency stress
// satellite: writers mutate distinct heap pages while checkpoints
// stream at high frequency. The durable epoch must only ever move
// forward, and no update may be lost — the final durable image must
// hold every writer's last value.
func TestCheckpointStormUnderConcurrentWrites(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)
	r.o.Attach(g, r.store)

	const writers = 4
	const rounds = 300
	const storms = 20

	// Observer: the durable frontier is monotone throughout the storm.
	stop := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		var prev uint64
		for {
			d := g.Durable()
			if d < prev {
				t.Errorf("durable epoch went backwards: %d -> %d", prev, d)
				return
			}
			prev = d
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer owns one heap page past the counter's.
			addr := p.HeapBase() + vm.Addr((w+1)<<vm.PageShift)
			var buf [8]byte
			for i := 1; i <= rounds; i++ {
				binary.LittleEndian.PutUint64(buf[:], uint64(i))
				if err := p.WriteMem(addr, buf[:]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for i := 0; i < storms; i++ {
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// One more barrier now that the writers are done: it captures their
	// final values.
	if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-obsDone

	if e, d := g.Epoch(), g.Durable(); e != d {
		t.Fatalf("after sync: epoch %d != durable %d", e, d)
	}

	// Restore the newest durable epoch and check for lost updates.
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	for w := 0; w < writers; w++ {
		var buf [8]byte
		if err := np.ReadMem(np.HeapBase()+vm.Addr((w+1)<<vm.PageShift), buf[:]); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != rounds {
			t.Fatalf("writer %d: restored value %d, want %d (lost update)", w, got, rounds)
		}
	}
}

// TestSkipFlushEpochNeverQueued: rollback points stay in memory — the
// pipeline never sees them, and a later Sync makes them durable via
// the foreground path.
func TestSkipFlushEpochNeverQueued(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.mem)

	r.k.Run(3)
	if _, err := r.o.Checkpoint(g, CheckpointOpts{SkipFlush: true}); err != nil {
		t.Fatal(err)
	}
	if depth := g.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth = %d for a SkipFlush epoch, want 0", depth)
	}
	if d := g.Durable(); d != 0 {
		t.Fatalf("durable = %d, want 0", d)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if d := g.Durable(); d != 1 {
		t.Fatalf("durable = %d after sync, want 1", d)
	}
	if _, _, err := r.mem.Load(g.ID, 0); err != nil {
		t.Fatalf("sync did not flush the SkipFlush image: %v", err)
	}
}
