package netback

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"aurora/internal/core"
	"aurora/internal/storage"
)

// testWire strings a wire from src to a receiver on dst.
func testWire(src, dst *machine, cfg LinkFaultConfig) (*Wire, *ReplicaBackend, *Receiver, *FaultLink) {
	w := NewWire(cfg, src.clock, NewReceiver(dst.k.Mem, dst.clock))
	return w, w.Backend(), w.Receiver(), w.Link()
}

func TestFaultLinkCleanDelivery(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	w, rb, recv, link := testWire(src, dst, LinkFaultConfig{Seed: 1})
	src.o.Attach(g, rb)

	if err := w.Connect(g.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src.k.Run(2)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if img, err := recv.Latest(g.ID); err != nil || img.Epoch != 3 {
		t.Fatalf("replica over clean link: img=%v err=%v", img, err)
	}
	if link.DroppedCount() != 0 || link.InjectedCount() != 0 {
		t.Fatalf("clean link injected faults: dropped=%d injected=%d",
			link.DroppedCount(), link.InjectedCount())
	}
	if link.FrameCount(AtoB) == 0 || link.FrameCount(BtoA) == 0 {
		t.Fatal("link saw no frames")
	}
}

func TestFaultLinkScriptedDropAndResume(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	w, rb, recv, link := testWire(src, dst, LinkFaultConfig{Seed: 7})
	src.o.Attach(g, rb)

	if err := w.Connect(g.ID); err != nil {
		t.Fatal(err)
	}

	src.k.Run(2)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}

	// Frames so far: hello + delta 1 = 2 in a->b. Drop the next delta.
	link.DropFrames(AtoB, 3, 3)
	src.k.Run(2)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	err := src.o.Sync(g)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Sync across dropped frame = %v, want ErrDisconnected", err)
	}
	// The drop ended the session on both sides: the receiver never saw
	// the delta, and the link stays cut until a reset heals it.
	if !link.Partitioned() {
		t.Fatal("session survived a dropped frame")
	}
	if link.DroppedCount() != 1 {
		t.Fatalf("dropped = %d, want 1", link.DroppedCount())
	}

	// Reconnect over the same link; the handshake resumes at epoch 1
	// and a resync replays the lost epoch.
	if err := w.Reset(g.ID); err != nil {
		t.Fatal(err)
	}
	if floor := rb.Floor(); floor != 1 {
		t.Fatalf("resume floor = %d, want 1", floor)
	}
	if err := src.o.Resync(g); err != nil {
		t.Fatal(err)
	}
	if img, err := recv.Latest(g.ID); err != nil || img.Epoch != 2 {
		t.Fatalf("replica after resync: img=%v err=%v", img, err)
	}
	if rb.Partitions() != 1 {
		t.Fatalf("partitions = %d, want 1", rb.Partitions())
	}
}

func TestFaultLinkPartitionHealDegradedNotDown(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	w, rb, recv, link := testWire(src, dst, LinkFaultConfig{Seed: 42})
	src.o.Attach(g, rb)

	if err := w.Connect(g.ID); err != nil {
		t.Fatal(err)
	}
	src.k.Run(2)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}

	link.Partition()
	if !link.Partitioned() {
		t.Fatal("link not partitioned")
	}
	// Many epochs across the partition: enough consecutive failures to
	// cross the down threshold — a partition-aware backend must stay
	// degraded anyway.
	for i := 0; i < 8; i++ {
		src.k.Run(1)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		src.o.Sync(g)
	}
	for _, info := range g.Health() {
		if info.Name != "replica" {
			continue
		}
		if info.State != core.BackendDegraded {
			t.Fatalf("partitioned replica state = %v, want degraded", info.State)
		}
		if info.Partitions == 0 {
			t.Fatalf("partition counter not surfaced: %+v", info)
		}
	}
	// The group advanced on local memory only; replication is behind.
	if rep := g.Replicated(); rep != 1 {
		t.Fatalf("replicated frontier during partition = %d, want 1", rep)
	}

	link.Heal()
	floor, err := rb.Connect(link, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 1 {
		t.Fatalf("post-heal floor = %d, want 1", floor)
	}
	if err := src.o.Resync(g); err != nil {
		t.Fatal(err)
	}
	// Resync replayed the queue; a Sync retries the stalled pipeline
	// epochs (now no-ops) so the durable frontier retires them.
	if err := src.o.Sync(g); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	if img, err := recv.Latest(g.ID); err != nil || img.Epoch != 9 {
		t.Fatalf("replica after heal+resync: img=%v err=%v", img, err)
	}
	if rep := g.Replicated(); rep != 9 {
		t.Fatalf("replicated frontier after heal = %d, want 9", rep)
	}
	for _, info := range g.Health() {
		if info.Name == "replica" && (info.State != core.BackendHealthy || info.Pending != 0) {
			t.Fatalf("replica not recovered after heal: %+v", info)
		}
	}
}

func TestFaultLinkCorruptFrame(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	_, rb, recv, link := testWire(src, dst, LinkFaultConfig{Seed: 3, Corrupt: 1})
	src.o.Attach(g, rb)

	// The hello itself is corrupted: the receiver fails its CRC and
	// hangs up before the protocol sees a byte; the sender observes a
	// failed handshake.
	if _, err := rb.Connect(link, g.ID); err == nil {
		t.Fatal("handshake succeeded over fully corrupting link")
	}
	if !link.Partitioned() || recv.ReceivedBytes() != 0 {
		t.Fatalf("corrupt hello: session ended %v, receiver took %d bytes; want a hang-up before any byte counts",
			link.Partitioned(), recv.ReceivedBytes())
	}
	if link.InjectedCount() == 0 {
		t.Fatal("no corruption recorded")
	}
}

// TestDuplicatedAcksDoNotAdvanceFloor is the satellite regression for
// the resume handshake under a duplicating, reordering link: every
// frame is delivered twice, so acks and hello acks arrive as stale
// duplicates interleaved with live replies. The sender must never let
// a duplicated ack stand in for the hello ack (or vice versa), and the
// resume floor must equal the deltas the receiver actually holds.
func TestDuplicatedAcksDoNotAdvanceFloor(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	w, rb, recv, link := testWire(src, dst, LinkFaultConfig{Seed: 11, Dup: 1, Reorder: 0.5})
	src.o.Attach(g, rb)

	if err := w.Connect(g.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src.k.Run(2)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := src.o.Sync(g); err != nil {
			t.Fatalf("sync epoch %d under dup acks: %v", i+1, err)
		}
	}

	// Reconnect with duplicated acks still queued: they must be
	// skipped, and the floor must match the received chain exactly.
	rb.Disconnect()
	floor, err := rb.Connect(link, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := recv.ContiguousEpoch(g.ID); floor != want {
		t.Fatalf("resume floor = %d, receiver contiguous = %d", floor, want)
	}
	if floor != 3 {
		t.Fatalf("floor = %d, want 3 (deltas actually received)", floor)
	}
}

// TestDuplicatedAcksScriptedPeer drives the sender against a
// hand-scripted peer — a plain function at the far end of the link —
// that duplicates every reply, pinning the exact skip rules: a second
// hello ack is not an ack, and a stale ack for an earlier epoch is not
// the awaited one.
func TestDuplicatedAcksScriptedPeer(t *testing.T) {
	rb := NewReplicaBackend(storage.NewClock())
	var ep uint64
	twice := func(w io.Writer, typ byte, group, v uint64) {
		for i := 0; i < 2; i++ {
			if err := writePair(w, typ, group, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	link := newFaultLink(LinkFaultConfig{Seed: 5}, nil, func(w io.Writer, typ byte, payload []byte) error {
		switch typ {
		case frameHello: // two hello acks (floor 0)
			twice(w, frameHelloAck, binary.LittleEndian.Uint64(payload), 0)
		case frameDeltaC: // each delta acked twice
			ep++
			twice(w, frameAck, 1, ep)
		default:
			t.Fatalf("peer got frame type %d", typ)
		}
		return nil
	})

	floor, err := rb.Connect(link, 1)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 0 {
		t.Fatalf("floor = %d, want 0", floor)
	}
	// Flush epoch 1: the duplicate hello ack arrives first and must be
	// skipped; then the real ack, leaving its duplicate queued.
	if _, err := rb.Flush(&core.Image{Group: 1, Epoch: 1, Gen: 1}); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	// Flush epoch 2: the stale duplicated ack(1) arrives first and
	// must not satisfy the wait for ack(2).
	if _, err := rb.Flush(&core.Image{Group: 1, Epoch: 2, Gen: 1}); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	if ep != 2 || rb.AckedFloor(1) != 2 {
		t.Fatalf("peer saw %d deltas, acked floor %d; want 2 and 2", ep, rb.AckedFloor(1))
	}
}

func TestReplicaFencedFlush(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	w, rb, recv, _ := testWire(src, dst, LinkFaultConfig{Seed: 9})
	if err := w.Connect(g.ID); err != nil {
		t.Fatal(err)
	}

	// A promotion elsewhere raised the fence to generation 5: this
	// sender's generation-1 deltas are rejected, not acked.
	recv.AdoptFence(g.ID, 5)
	_, err := rb.Flush(&core.Image{Group: g.ID, Epoch: 1, Gen: 1})
	if !errors.Is(err, core.ErrStaleGeneration) {
		t.Fatalf("fenced flush err = %v, want ErrStaleGeneration", err)
	}
	var fe *core.FenceError
	if !errors.As(err, &fe) || fe.Gen != 5 {
		t.Fatalf("fence error detail = %+v", err)
	}
	if _, err := recv.ImageAt(g.ID, 1); err == nil {
		t.Fatal("fenced delta was installed")
	}
	// The connection survives a fencing rejection: a new-generation
	// delta passes.
	if _, err := rb.Flush(&core.Image{Group: g.ID, Epoch: 1, Gen: 5}); err != nil {
		t.Fatalf("new-generation flush after fence: %v", err)
	}
	if recv.FenceGen(g.ID) != 5 {
		t.Fatalf("receiver fence = %d, want 5", recv.FenceGen(g.ID))
	}
}
