package netback

import (
	"errors"
	"net"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// serveReplica runs ServeReplica in the background and reports its
// result on the returned channel.
func serveReplica(recv *Receiver, conn net.Conn) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := recv.ServeReplica(conn)
		done <- err
	}()
	return done
}

func TestReplicaAcksAndResume(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	p, g := spawn(t, src)
	_ = p

	// Local durability plus an acknowledged replica.
	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, src.clock)
	sb := core.NewStoreBackend(objstore.Create(dev, src.clock), src.k.Mem, src.clock)
	src.o.Attach(g, sb)
	rb := NewReplicaBackend(src.clock)
	src.o.Attach(g, rb)

	recv := NewReceiver(dst.k.Mem, dst.clock)
	local, remote := net.Pipe()
	done := serveReplica(recv, remote)
	floor, err := rb.Connect(local, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 0 {
		t.Fatalf("fresh replica floor = %d, want 0", floor)
	}

	for i := 0; i < 3; i++ {
		src.k.Run(3)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if img, err := recv.Latest(g.ID); err != nil || img.Epoch != 3 {
		t.Fatalf("replica after 3 epochs: img=%v err=%v", img, err)
	}
	if rb.SentBytes() == 0 {
		t.Fatal("replica sent no bytes")
	}

	// The connection drops. The local store keeps the group advancing
	// (degraded durability) while the replica queues missed epochs.
	local.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve after hangup: %v", err)
	}
	for i := 0; i < 2; i++ {
		src.k.Run(3)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	err = src.o.Sync(g)
	if err == nil {
		t.Fatal("Sync succeeded with replica disconnected")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Sync err = %v, want ErrDisconnected", err)
	}
	if got := g.Durable(); got != 5 {
		t.Fatalf("durable = %d during outage, want 5", got)
	}
	sawSick := false
	for _, info := range g.Health() {
		if info.Name == "replica" {
			sawSick = info.State != core.BackendHealthy && info.Pending == 2
		}
	}
	if !sawSick {
		t.Fatalf("replica health during outage = %+v", g.Health())
	}

	// Reconnect: the handshake reports the receiver's last contiguous
	// epoch, and a resync replays only what the outage missed.
	local, remote = net.Pipe()
	done = serveReplica(recv, remote)
	floor, err = rb.Connect(local, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 3 {
		t.Fatalf("resume floor = %d, want 3", floor)
	}
	if err := src.o.Resync(g); err != nil {
		t.Fatal(err)
	}
	if img, err := recv.Latest(g.ID); err != nil || img.Epoch != 5 {
		t.Fatalf("replica after resync: img=%v err=%v", img, err)
	}
	for _, info := range g.Health() {
		if info.Name == "replica" {
			if info.State != core.BackendHealthy || info.Pending != 0 {
				t.Fatalf("replica not recovered: %+v", info)
			}
			if info.Resyncs != 2 {
				t.Fatalf("resyncs = %d, want 2", info.Resyncs)
			}
		}
	}

	// The primary dies; the standby restores the acked replica chain.
	img, err := recv.Latest(g.ID)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := dst.o.RestoreImage(img, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := dst.k.Process(ng.PIDs()[0])
	var c [1]byte
	np.ReadMem(np.HeapBase(), c[:])
	if c[0] != 15 {
		t.Fatalf("standby counter = %d, want 15", c[0])
	}

	local.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve at shutdown: %v", err)
	}
}

func TestReplicaFlushWhileDisconnected(t *testing.T) {
	src := newMachine()
	_, g := spawn(t, src)
	rb := NewReplicaBackend(src.clock)
	src.o.Attach(g, rb)

	src.k.Run(2)
	_, err := src.o.Checkpoint(g, core.CheckpointOpts{})
	if err != nil {
		t.Fatal(err)
	}
	err = src.o.Sync(g)
	if err == nil {
		t.Fatal("Sync succeeded with no connection ever made")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestReplicaFloorSkipsAckedEpochs(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)
	rb := NewReplicaBackend(src.clock)
	src.o.Attach(g, rb)

	recv := NewReceiver(dst.k.Mem, dst.clock)
	local, remote := net.Pipe()
	done := serveReplica(recv, remote)
	if _, err := rb.Connect(local, g.ID); err != nil {
		t.Fatal(err)
	}
	src.k.Run(2)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	sent := rb.SentBytes()

	// Reconnect with the receiver already holding epoch 1: the floor
	// makes a re-flush of that epoch a no-op on the wire.
	local.Close()
	<-done
	local, remote = net.Pipe()
	done = serveReplica(recv, remote)
	floor, err := rb.Connect(local, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 1 {
		t.Fatalf("floor = %d, want 1", floor)
	}
	if d, err := rb.Flush(g.LastImage(), nil); err != nil || d != 0 {
		t.Fatalf("re-flush below floor: d=%v err=%v", d, err)
	}
	if rb.SentBytes() != sent {
		t.Fatalf("bytes sent grew across a floor skip: %d -> %d", sent, rb.SentBytes())
	}

	local.Close()
	<-done
}

func TestReplicaHandshakeValidation(t *testing.T) {
	rb := NewReplicaBackend(storage.NewClock())
	local, remote := net.Pipe()
	defer local.Close()
	go func() {
		// A peer that answers hello with garbage.
		typ, _, _ := readFrame(remote)
		if typ == frameHello {
			writeFrame(remote, frameDelta, []byte{1})
		}
		remote.Close()
	}()
	if _, err := rb.Connect(local, 1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad handshake err = %v, want ErrBadFrame", err)
	}
	rb.Disconnect()
	if _, err := rb.Flush(&core.Image{Group: 1, Epoch: 9}, nil); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("flush on dead replica err = %v", err)
	}
}
