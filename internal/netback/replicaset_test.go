package netback

import (
	"errors"
	"maps"
	"net"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

var _ core.ReplicaRepairTarget = (*Receiver)(nil)

// setMember is one replica link of a test set: its own machine,
// receiver, backend, and pipe.
type setMember struct {
	m    *machine
	recv *Receiver
	rb   *ReplicaBackend
	conn net.Conn
	done chan error
}

func dialMember(t *testing.T, src *machine, group uint64, mem *setMember) {
	t.Helper()
	local, remote := net.Pipe()
	mem.conn = local
	mem.done = serveReplica(mem.recv, remote)
	if _, err := mem.rb.Connect(local, group); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaSetQuorumFloorAndLagging drives a 3-member set with a
// 2-of-3 write quorum: the quorum floor tracks the W-th highest acked
// frontier, durability keeps advancing with one member severed, and
// Lagging names the straggler behind an ErrReplicaLagging wrap that
// callers select on with errors.Is.
func TestReplicaSetQuorumFloorAndLagging(t *testing.T) {
	src := newMachine()
	_, g := spawn(t, src)

	rs := NewReplicaSet(2)
	members := make([]*setMember, 3)
	for i := range members {
		mem := &setMember{m: newMachine()}
		mem.recv = NewReceiver(mem.m.k.Mem, mem.m.clock)
		mem.rb = NewReplicaBackend(src.clock)
		rs.Add([]string{"r0", "r1", "r2"}[i], mem.rb, mem.recv)
		members[i] = mem
	}
	rs.AttachAll(src.o, g)
	if w, _, n := g.QuorumStatus(); w != 2 || n != 3 {
		t.Fatalf("QuorumStatus = W%d N%d, want W2 N3", w, n)
	}
	for _, mem := range members {
		dialMember(t, src, g.ID, mem)
	}

	ckpt := func() {
		src.k.Run(3)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		ckpt()
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if floors := rs.AckedFloors(g.ID); floors[0] != 3 || floors[1] != 3 || floors[2] != 3 {
		t.Fatalf("healthy acked floors = %v, want [3 3 3]", floors)
	}
	if qf := rs.QuorumFloor(g.ID); qf != 3 {
		t.Fatalf("healthy quorum floor = %d, want 3", qf)
	}
	if err := rs.Lagging(g.ID, 0); err != nil {
		t.Fatalf("healthy Lagging = %v, want nil", err)
	}

	// Sever r2: the quorum of r0+r1 keeps the group durable while r2's
	// frontier freezes, and Lagging reports exactly that member.
	members[2].conn.Close()
	if err := <-members[2].done; err != nil {
		t.Fatalf("serve after hangup: %v", err)
	}
	ckpt()
	ckpt()
	if err := src.o.Sync(g); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Sync with severed member = %v, want ErrDisconnected wrap", err)
	}
	if got := g.Durable(); got != 5 {
		t.Fatalf("durable = %d with a severed minority, want 5", got)
	}
	if qf := rs.QuorumFloor(g.ID); qf != 5 {
		t.Fatalf("quorum floor = %d with a severed minority, want 5", qf)
	}
	err := rs.Lagging(g.ID, 1)
	if !errors.Is(err, ErrReplicaLagging) {
		t.Fatalf("Lagging = %v, want ErrReplicaLagging wrap", err)
	}
	if !strings.Contains(err.Error(), "r2@3") {
		t.Fatalf("Lagging = %v, want the straggler named as r2@3", err)
	}
	if err := rs.Lagging(g.ID, 10); err != nil {
		t.Fatalf("Lagging within tolerance = %v, want nil", err)
	}

	// Reconnect and resync: the straggler catches up and the report
	// clears.
	dialMember(t, src, g.ID, members[2])
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if err := rs.Lagging(g.ID, 0); err != nil {
		t.Fatalf("post-heal Lagging = %v, want nil", err)
	}
	if f := members[2].rb.AckedFloor(g.ID); f != 5 {
		t.Fatalf("post-heal acked floor = %d, want 5", f)
	}
	if len(rs.Sources()) != 3 {
		t.Fatalf("Sources() = %d members, want 3", len(rs.Sources()))
	}
}

// TestAckedFloorFollowsRestartedReceiver: a member killed and restarted
// empty starts its chain wherever the next delta lands, and the
// sender's ledger must follow the receiver's own count of contiguous
// from there — not wait for an epoch 1 that will never be re-sent,
// reporting floor 0 (so the reclaimer pins the primary's whole history)
// while it remembers every ack above it.
func TestAckedFloorFollowsRestartedReceiver(t *testing.T) {
	src := newMachine()
	_, g := spawn(t, src)
	rs := NewReplicaSet(2)
	members := make([]*setMember, 3)
	for i := range members {
		mem := &setMember{m: newMachine()}
		mem.recv = NewReceiver(mem.m.k.Mem, mem.m.clock)
		mem.rb = NewReplicaBackend(src.clock)
		rs.Add([]string{"r0", "r1", "r2"}[i], mem.rb, mem.recv)
		members[i] = mem
	}
	rs.AttachAll(src.o, g)
	for _, mem := range members {
		dialMember(t, src, g.ID, mem)
	}
	ckpt := func(n int, opts core.CheckpointOpts) {
		t.Helper()
		for i := 0; i < n; i++ {
			src.k.Run(3)
			if _, err := src.o.Checkpoint(g, opts); err != nil {
				t.Fatal(err)
			}
			opts.Full = false
		}
		if err := src.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	ckpt(3, core.CheckpointOpts{})

	// r2 dies and comes back empty.
	r2 := members[2]
	r2.conn.Close()
	if err := <-r2.done; err != nil {
		t.Fatalf("serve after hangup: %v", err)
	}
	r2.m = newMachine()
	r2.recv = NewReceiver(r2.m.k.Mem, r2.m.clock)
	dialMember(t, src, g.ID, r2)
	if f := r2.rb.AckedFloor(g.ID); f != 0 {
		t.Fatalf("acked ledger = %d after the floor regressed to 0, want reset", f)
	}

	ckpt(6, core.CheckpointOpts{Full: true}) // one full, five incremental
	held := r2.recv.ContiguousEpoch(g.ID)
	if held != 9 {
		t.Fatalf("restarted receiver holds epochs through %d contiguously, want 9", held)
	}
	if f := r2.rb.AckedFloor(g.ID); f != held {
		t.Fatalf("AckedFloor = %d, the receiver itself reports %d", f, held)
	}
	if f := r2.rb.CatchUpFloor(g.ID); f != held+1 {
		t.Fatalf("CatchUpFloor = %d, want %d: the reclaimer would pin history the replica holds", f, held+1)
	}
	if err := rs.Lagging(g.ID, 1); err != nil {
		t.Fatalf("Lagging = %v, want nil: every member acked epoch 9", err)
	}
	r2.rb.core.ackMu.Lock()
	entries := len(r2.rb.core.acked)
	r2.rb.core.ackMu.Unlock()
	if entries != 1 {
		t.Fatalf("ledger holds %d entries for one group: per-epoch state left behind", entries)
	}
}

// TestCompactDeltaSkipAndNeedResend pins the compact-delta protocol:
// pages the receiver already acked travel as 32-byte content-hash
// refs; a receiver that cannot resolve a ref answers with a need
// frame, which forces a full resend and resets the sender's cache —
// the cache is an optimization, never a correctness input.
func TestCompactDeltaSkipAndNeedResend(t *testing.T) {
	src := newMachine()
	p, g := spawn(t, src)
	// A static working set beside the counter page: these pages never
	// change again, so a full recapture can elide them as refs.
	page := make([]byte, vm.PageSize)
	for pg := 1; pg <= 4; pg++ {
		for i := range page {
			page[i] = byte(pg * 31)
		}
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), page); err != nil {
			t.Fatal(err)
		}
	}
	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, src.clock)
	sb := core.NewStoreBackend(objstore.Create(dev, src.clock), src.k.Mem, src.clock)
	src.o.Attach(g, sb)
	rb := NewReplicaBackend(src.clock)
	src.o.Attach(g, rb)

	dstA := newMachine()
	recvA := NewReceiver(dstA.k.Mem, dstA.clock)
	local, remote := net.Pipe()
	doneA := serveReplica(recvA, remote)
	if _, err := rb.Connect(local, g.ID); err != nil {
		t.Fatal(err)
	}

	// Epoch 1, then a forced-full epoch 2: the full recapture ships
	// its unchanged pages as refs against the epoch-1 acks.
	src.k.Run(3)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	src.k.Run(3)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{Full: true}); err != nil {
		t.Fatal(err)
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	_, skipped, resends := rb.DeltaStats()
	if skipped == 0 {
		t.Fatal("full recapture skipped no pages by content hash")
	}
	if resends != 0 {
		t.Fatalf("resends = %d against a receiver that has every ref, want 0", resends)
	}
	if img, err := recvA.ImageAt(g.ID, 2); err != nil || img.Epoch != 2 {
		t.Fatalf("receiver A at epoch 2: img=%v err=%v", img, err)
	}

	// Simulate a stale mirror: receiver A dies; a brand-new empty
	// receiver B takes over, and we resurrect the pre-crash mirror of A
	// behind the protocol's back (Connect correctly reset it on the
	// floor regression). Replayed compact deltas now carry refs B
	// cannot resolve — the need/full-resend path must repair it.
	rb.core.mu.Lock()
	saved, savedHeld := rb.core.mirrors[g.ID], maps.Clone(rb.core.held)
	rb.core.mu.Unlock()
	if saved == nil || len(savedHeld) == 0 {
		t.Fatal("no mirror accumulated over two acked epochs")
	}
	local.Close()
	if err := <-doneA; err != nil {
		t.Fatalf("serve A at shutdown: %v", err)
	}

	dstB := newMachine()
	recvB := NewReceiver(dstB.k.Mem, dstB.clock)
	local, remote = net.Pipe()
	doneB := serveReplica(recvB, remote)
	floor, err := rb.Connect(local, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 0 {
		t.Fatalf("fresh receiver floor = %d, want 0", floor)
	}
	if f := rb.AckedFloor(g.ID); f != 0 {
		t.Fatalf("acked ledger = %d after floor regression, want reset to 0", f)
	}
	rb.core.mu.Lock()
	rb.core.mirrors[g.ID], rb.core.held = saved, savedHeld // the lie under test
	rb.core.mu.Unlock()

	for epoch := uint64(1); epoch <= 2; epoch++ {
		img, _, err := sb.Load(g.ID, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rb.Flush(img); err != nil {
			t.Fatalf("replaying epoch %d: %v", epoch, err)
		}
	}
	if n := recvB.NeedsSent(); n == 0 {
		t.Fatal("receiver B never sent a need frame for an unresolvable ref")
	}
	if _, _, resends := rb.DeltaStats(); resends == 0 {
		t.Fatal("sender never fell back to a full resend")
	}
	if f := rb.AckedFloor(g.ID); f != 2 {
		t.Fatalf("acked floor after repair = %d, want 2", f)
	}
	if got := recvB.ContiguousEpoch(g.ID); got != 2 {
		t.Fatalf("receiver B contiguous epoch = %d, want 2", got)
	}

	// The repaired replica restores bit-identically.
	img, err := recvB.ImageAt(g.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := dstB.o.RestoreImage(img, 0, core.RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := dstB.k.Process(ng.PIDs()[0])
	var c [1]byte
	np.ReadMem(np.HeapBase(), c[:])
	if c[0] != 6 {
		t.Fatalf("restored counter = %d, want 6", c[0])
	}

	local.Close()
	if err := <-doneB; err != nil {
		t.Fatalf("serve B at shutdown: %v", err)
	}
}
