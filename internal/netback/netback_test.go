package netback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// machine is one simulated host.
type machine struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
}

func newMachine() *machine {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	return &machine{clock: clock, k: k, o: core.NewOrchestrator(k)}
}

// counter mirrors the core test program.
type counter struct{ addr vm.Addr }

func (c *counter) ProgName() string { return "nb-counter" }
func (c *counter) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	return e.Bytes()
}
func (c *counter) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(c.addr, b[:]); err != nil {
		return err
	}
	b[0]++
	return p.WriteMem(c.addr, b[:])
}

func init() {
	kernel.RegisterProgram("nb-counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &counter{addr: vm.Addr(d.U64())}, nil
	})
}

func spawn(t testing.TB, m *machine) (*kernel.Process, *core.Group) {
	t.Helper()
	p, err := m.k.Spawn(0, "app")
	if err != nil {
		t.Fatal(err)
	}
	p.SetProgram(&counter{addr: p.HeapBase()})
	g, err := m.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

// TestImageFileRoundTrip is the `sls send` / `sls recv` path: a
// consolidated image encoded on one machine, decoded on another and
// restored there.
func TestImageFileRoundTrip(t *testing.T) {
	src := newMachine()
	dst := newMachine()
	p, g := spawn(t, src)
	src.o.Attach(g, core.NewMemoryBackend(src.k.Mem, 4))
	p.WriteMem(p.HeapBase()+8, []byte("travels the wire"))
	src.k.Run(7)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}

	file := g.LastImage().Encode()
	img, err := core.DecodeImage(file, dst.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := dst.o.RestoreImage(img, 0, core.RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := dst.k.Process(ng.PIDs()[0])
	buf := make([]byte, 16)
	np.ReadMem(np.HeapBase()+8, buf)
	if string(buf) != "travels the wire" {
		t.Fatalf("remote state = %q", buf)
	}
	var c [1]byte
	np.ReadMem(np.HeapBase(), c[:])
	if c[0] != 7 {
		t.Fatalf("remote counter = %d, want 7", c[0])
	}
}

// rawFrame hand-builds a wire frame, optionally with a bogus CRC.
func rawFrame(typ byte, payload []byte, badCRC bool) []byte {
	f := make([]byte, frameHdrSize+len(payload))
	f[0] = typ
	binary.LittleEndian.PutUint64(f[1:9], uint64(len(payload)))
	crc := crc32.Checksum(payload, frameCRC)
	if badCRC {
		crc ^= 0xdeadbeef
	}
	binary.LittleEndian.PutUint32(f[9:13], crc)
	copy(f[frameHdrSize:], payload)
	return f
}

// oneWay feeds ServeReplica a canned byte stream and swallows replies.
type oneWay struct {
	io.Reader
	io.Writer
}

func serveBytes(recv *Receiver, stream []byte) error {
	_, err := recv.ServeReplica(oneWay{bytes.NewReader(stream), io.Discard})
	return err
}

func TestFrameCorruption(t *testing.T) {
	recv := NewReceiver(vm.NewPhysMem(0), storage.NewClock())
	oversized := rawFrame(frameDelta, nil, false)
	binary.LittleEndian.PutUint64(oversized[1:9], 1<<40)
	if err := serveBytes(recv, oversized); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if err := serveBytes(recv, rawFrame(99, []byte{0}, false)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown frame type err = %v, want ErrBadFrame", err)
	}
	// Type 1 was the consolidated-image frame of the retired one-shot
	// wire; the number stays reserved and is refused.
	if err := serveBytes(recv, rawFrame(1, []byte{0}, false)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("reserved frame type 1 err = %v, want ErrBadFrame", err)
	}
	err := serveBytes(recv, rawFrame(frameDelta, []byte{1, 2, 3}, true))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("bad CRC err = %v, want ErrCorruptFrame", err)
	}
	// A frame that promises 2 GiB and sends three bytes costs what it
	// sent, not what it promised.
	truncated := rawFrame(frameDelta, []byte{1, 2, 3}, false)
	binary.LittleEndian.PutUint64(truncated[1:9], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = serveBytes(recv, truncated)
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, io.ErrUnexpectedEOF) || spent > 16<<20 {
		t.Fatalf("truncated 2 GiB frame: err = %v after allocating %d bytes, want ErrUnexpectedEOF for a few MiB", err, spent)
	}
}

func TestReceiverGroups(t *testing.T) {
	recv := NewReceiver(vm.NewPhysMem(0), storage.NewClock())
	if len(recv.Groups()) != 0 {
		t.Fatal("fresh receiver has groups")
	}
	if _, err := recv.Latest(1); err != core.ErrNoImage {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicationOverRealTCP(t *testing.T) {
	// The replication path over a real TCP socket: the transport
	// abstraction is an io.ReadWriter, so production deployments use
	// net.Conn exactly like the in-memory pipe used elsewhere.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer ln.Close()

	src := newMachine()
	dst := newMachine()
	_, g := spawn(t, src)

	recv := NewReceiver(dst.k.Mem, dst.clock)
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		_, err = recv.ServeReplica(conn)
		served <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rb := NewReplicaBackend(src.clock)
	if rb.Ephemeral() {
		t.Fatal("an acked replica must count as durable")
	}
	if _, _, err := rb.Load(g.ID, 0); !errors.Is(err, core.ErrNoImage) {
		t.Fatalf("Load err = %v, want ErrNoImage (replica state lives on the far side)", err)
	}
	if _, err := rb.Connect(conn, g.ID); err != nil {
		t.Fatal(err)
	}
	src.o.Attach(g, rb)

	for i := 0; i < 3; i++ {
		src.k.Run(4)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the background flushes before hanging up on the standby.
	if err := src.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	if rb.SentBytes() == 0 || recv.ReceivedBytes() < rb.SentBytes() {
		t.Fatalf("wire accounting: sent=%d recvd=%d", rb.SentBytes(), recv.ReceivedBytes())
	}
	conn.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	// The source machine "fails"; the standby restores the replica.
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
	if c[0] != 12 {
		t.Fatalf("TCP-replicated counter = %d, want 12", c[0])
	}
	// The standby continues where the primary died.
	dst.k.Run(5)
	np.ReadMem(np.HeapBase(), c[:])
	if c[0] != 17 {
		t.Fatalf("standby did not resume: %d", c[0])
	}
}
