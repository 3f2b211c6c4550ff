package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// latencyBackend is a non-ephemeral backend with a scripted ack
// latency — the slow replica whose pace quorum durability exists to
// stop setting.
type latencyBackend struct {
	mu  sync.Mutex
	lat time.Duration
	err error
}

func (b *latencyBackend) Name() string    { return "slow" }
func (b *latencyBackend) Ephemeral() bool { return false }
func (b *latencyBackend) Flush(img *Image) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lat, b.err
}
func (b *latencyBackend) Load(group, epoch uint64) (*Image, time.Duration, error) {
	return nil, 0, ErrNoImage
}

func TestQuorumNeedAndFloor(t *testing.T) {
	cases := []struct {
		w, nonEph int
		want      int
	}{
		{0, 3, 0}, {1, 3, 1}, {2, 3, 2}, {3, 3, 3},
		{4, 3, 3}, // W clamps down to the attached non-ephemeral count
		{2, 1, 1}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := QuorumNeed(c.w, c.nonEph); got != c.want {
			t.Errorf("QuorumNeed(%d, %d) = %d, want %d", c.w, c.nonEph, got, c.want)
		}
	}
	floors := []uint64{2, 8, 7}
	if got := QuorumFloor(floors, 1); got != 8 {
		t.Errorf("QuorumFloor need=1 = %d, want 8", got)
	}
	if got := QuorumFloor(floors, 2); got != 7 {
		t.Errorf("QuorumFloor need=2 = %d, want 7", got)
	}
	if got := QuorumFloor(floors, 3); got != 2 {
		t.Errorf("QuorumFloor need=3 = %d, want 2", got)
	}
	if got := QuorumFloor(floors, 9); got != 2 {
		t.Errorf("QuorumFloor need over len = %d, want min 2", got)
	}
	if floors[0] != 2 || floors[1] != 8 || floors[2] != 7 {
		t.Errorf("QuorumFloor mutated its input: %v", floors)
	}
}

// TestQuorumPolicyClamp: SetQuorum normalizes negative W to the legacy
// zero value, and QuorumStatus reports W/N over non-ephemeral backends.
func TestQuorumPolicyClamp(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Quorum(); ok {
		t.Fatal("fresh group reports a quorum policy")
	}
	g.SetQuorum(QuorumPolicy{W: -3})
	if _, ok := g.Quorum(); ok {
		t.Fatal("negative W was not normalized to the legacy zero value")
	}
	g.SetQuorum(QuorumPolicy{W: 2})
	r.o.Attach(g, r.store)
	r.o.Attach(g, &latencyBackend{})
	r.o.Attach(g, r.mem) // ephemeral: must not count toward N
	w, _, n := g.QuorumStatus()
	if w != 2 || n != 2 {
		t.Fatalf("QuorumStatus = W%d N%d, want W2 N2 (ephemeral excluded)", w, n)
	}
}

// TestQuorumLatencyIsWthFastestAck: the modeled durable latency under
// a quorum is the W-th fastest non-ephemeral ack, not the slowest
// backend — attach a 5ms replica next to a microsecond store and the
// W=1 flush stops paying the 5ms.
func TestQuorumLatencyIsWthFastestAck(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	slow := &latencyBackend{lat: 5 * time.Millisecond}
	r.o.Attach(g, r.store)
	r.o.Attach(g, slow)

	flushTime := func() time.Duration {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
		bds := g.Breakdowns()
		return bds[len(bds)-1].FlushTime
	}

	legacy := flushTime() // all-backends: pays the slow replica
	if legacy < slow.lat {
		t.Fatalf("legacy flush %v did not wait for the 5ms backend", legacy)
	}
	g.SetQuorum(QuorumPolicy{W: 1})
	quorum := flushTime() // W=1: the store's ack alone retires the epoch
	if quorum >= slow.lat {
		t.Fatalf("W=1 flush %v still pays the slow backend (legacy %v)", quorum, legacy)
	}
	g.SetQuorum(QuorumPolicy{W: 2})
	full := flushTime() // W=2 of 2: back to waiting for the straggler
	if full < slow.lat {
		t.Fatalf("W=2 flush %v did not wait for both acks", full)
	}
}

// TestReplicatedQuorumFloor: Replicated() under a quorum is the W-th
// highest per-backend contiguous floor — a straggler owing its
// catch-up queue stops dragging the release frontier once W members
// are current. Clearing the policy reverts to the legacy minimum.
func TestReplicatedQuorumFloor(t *testing.T) {
	r := newRig(t)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	lb1, lb2 := &ledgerBackend{}, &ledgerBackend{}
	r.o.Attach(g, r.store)
	r.o.Attach(g, lb1)
	r.o.Attach(g, lb2)
	g.SetQuorum(QuorumPolicy{W: 2})

	ckpt := func() {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		r.o.Drain(g)
	}
	ckpt()
	ckpt()
	if got := g.Replicated(); got != 2 {
		t.Fatalf("healthy Replicated = %d, want 2", got)
	}

	lb2.setErr(errors.New("cable unplugged"))
	ckpt()
	ckpt()
	if d := g.Durable(); d != 4 {
		t.Fatalf("durable = %d, want 4 (quorum of store+lb1 held)", d)
	}
	if got := g.Replicated(); got != 4 {
		t.Fatalf("quorum Replicated = %d, want 4 (lb2's backlog is a minority)", got)
	}
	g.SetQuorum(QuorumPolicy{})
	if got := g.Replicated(); got != 2 {
		t.Fatalf("legacy Replicated = %d, want 2 (minimum floor)", got)
	}

	// Straggler recovers: both rules agree again.
	lb2.setErr(nil)
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if got := g.Replicated(); got != 4 {
		t.Fatalf("post-heal Replicated = %d, want 4", got)
	}
}

// TestReclaimerQuorumFloorCap is the retention-GC satellite: a
// permanently-down minority's contiguous catch-up floor must not pin
// the group's safety floor forever once a quorum policy is set — the
// reclaimer holds the W-th highest floor instead of the minimum.
func TestReclaimerQuorumFloorCap(t *testing.T) {
	r := newSpaceRig(t, 512<<20, RetentionPolicy{KeepLast: 1},
		Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9})
	r.o.ShedAdmitEvery = 1
	g := r.spawnGroup(t)

	dead := &floorBackend{floor: 2} // never catches up past epoch 2
	ok1 := &floorBackend{floor: 7}
	ok2 := &floorBackend{floor: 8}
	r.o.Attach(g, dead)
	r.o.Attach(g, ok1)
	r.o.Attach(g, ok2)

	for i := 1; i <= 8; i++ {
		r.ckpt(t, g, CheckpointOpts{})
	}

	// Legacy rule first: the dead member's floor pins everything.
	r.rec.Scan()
	left := map[uint64]bool{}
	for _, m := range r.store.Store().Manifests(g.ID) {
		left[m.Epoch] = true
	}
	for _, want := range []uint64{2, 3, 4, 5, 6, 7, 8} {
		if !left[want] {
			t.Fatalf("legacy scan reclaimed epoch %d pinned by the floor-2 member (left: %v)", want, left)
		}
	}

	// Under a 2-of-3 quorum the safety floor is the 2nd-highest member
	// floor (7): the scan reclaims the dead member's backlog, which it
	// will replay from its in-memory catch-up queue, not the store.
	g.SetQuorum(QuorumPolicy{W: 2})
	r.rec.Scan()
	if err := r.store.Store().AuditReachability(); err != nil {
		t.Fatalf("audit after quorum scan: %v", err)
	}
	left = map[uint64]bool{}
	for _, m := range r.store.Store().Manifests(g.ID) {
		left[m.Epoch] = true
	}
	for _, want := range []uint64{7, 8} {
		if !left[want] {
			t.Errorf("quorum-protected epoch %d was reclaimed (left: %v)", want, left)
		}
	}
	for _, gone := range []uint64{2, 3, 4, 5, 6} {
		if left[gone] {
			t.Errorf("epoch %d still pinned by the dead minority under quorum (left: %v)", gone, left)
		}
	}
}
