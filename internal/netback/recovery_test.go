package netback

import (
	"bytes"
	"net"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// TestRecoveryReceiverServesAsRestorePeer: a netback replica registered
// as a restore peer serves demand-paged blocks by content hash when the
// local store dies mid-lazy-restore. This is the cross-machine half of
// the self-healing restore: any backend holding bit-identical blocks
// can stand in for a failed primary.
func TestRecoveryReceiverServesAsRestorePeer(t *testing.T) {
	src := newMachine()
	p, g := spawn(t, src)

	// Primary: an object store on a fault-injectable device.
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, src.clock), src.clock,
		storage.FaultConfig{Seed: 1})
	sb := core.NewStoreBackend(objstore.Create(fd, src.clock), src.k.Mem, src.clock)
	src.o.Attach(g, sb)

	// Replica: continuous replication to a receiver over a pipe.
	recv := NewReceiver(src.k.Mem, src.clock)
	near, far := net.Pipe()
	served := serveReplica(recv, far)
	rb := NewReplicaBackend(src.clock)
	if _, err := rb.Connect(near, g.ID); err != nil {
		t.Fatal(err)
	}
	src.o.Attach(g, rb)

	p.WriteMem(p.HeapBase()+8, []byte("replica saves the day"))
	for i := 0; i < 10; i++ {
		src.k.Run(3)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	near.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	// The receiver becomes a failover peer for this group's restores.
	src.o.AddRestorePeer(g, recv)

	src.k.Exit(p, 0) // only the restored incarnation runs on
	ng, bd, err := src.o.Restore(g, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bd.Lazy {
		t.Fatal("restore was not lazy")
	}

	// The local store dies before the first demand fault: every page
	// must come off the replica.
	fd.Down()
	np, err := src.k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	var c [1]byte
	if err := np.ReadMem(np.HeapBase(), c[:]); err != nil {
		t.Fatalf("demand paging through the replica: %v", err)
	}
	if c[0] != 30 {
		t.Fatalf("restored counter = %d, want 30", c[0])
	}
	buf := make([]byte, 21)
	if err := np.ReadMem(np.HeapBase()+8, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("replica saves the day")) {
		t.Fatalf("restored data = %q", buf)
	}
	if stats := ng.RecoveryStats(); stats.Failovers == 0 {
		t.Fatal("no page was served by the replica")
	}
	// The application keeps running against replica-served state.
	src.k.Run(3)
	np.ReadMem(np.HeapBase(), c[:])
	if c[0] != 33 {
		t.Fatalf("counter after failover run = %d, want 33", c[0])
	}
}
