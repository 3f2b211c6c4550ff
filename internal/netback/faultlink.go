package netback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"aurora/internal/storage"
)

// FaultLink is the network twin of storage.FaultDevice: a seeded,
// deterministic in-memory link between two endpoints that injects
// per-frame faults — drops, duplicates, reorders, payload corruption,
// latency spikes — plus scripted drops and full or asymmetric
// partitions with heal. It is frame-aware: writes are reassembled into
// wire frames ([type][len][crc32c][payload]) and each frame's fate is
// drawn from a per-direction RNG with a fixed number of draws, so the
// schedule is a pure function of (seed, frame number) in that
// direction.
//
// The replication protocol is synchronous (one frame in flight per
// direction, the sender blocks on the ack), so a dropped frame would
// deadlock both sides. A drop therefore models a timeout: it raises a
// one-shot ErrLinkDropped on BOTH directions, waking any blocked
// reader; each side treats that as a connection loss and re-runs the
// hello/hello-ack resume handshake. A side that writes has, by
// definition, moved past any earlier loss, so a write clears the
// writer's stale read-side error — the handshake itself scrubs
// leftover flags.

// ErrLinkDropped reports a frame lost on a FaultLink (injected drop or
// partition). The replication layer treats it as a connection loss.
var ErrLinkDropped = errors.New("netback: link dropped frame")

// LinkDir names one direction of a FaultLink.
type LinkDir int

const (
	AtoB LinkDir = iota
	BtoA
)

func (d LinkDir) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// LinkFaultConfig holds the per-frame fault probabilities, all in
// [0, 1] and drawn from a seeded RNG per direction.
type LinkFaultConfig struct {
	Seed int64

	// Drop is the probability a frame vanishes in flight (both sides
	// see ErrLinkDropped, modeling the protocol timeout).
	Drop float64
	// Dup delivers the frame twice.
	Dup float64
	// Reorder delivers the frame ahead of an already-queued one (the
	// synchronous protocol rarely queues two frames in one direction,
	// so this mostly composes with Dup).
	Reorder float64
	// Corrupt flips one payload byte in flight; the frame CRC catches
	// it on the receiving side (ErrCorruptFrame).
	Corrupt float64
	// LatencyProb/LatencyCost inject latency spikes charged to the
	// link's virtual clock.
	LatencyProb float64
	LatencyCost time.Duration
}

// linkScript is one scripted "drop frames N..M" directive.
type linkScript struct {
	from, to int64 // inclusive frame numbers, 1-based
}

// linkDir is one direction's state.
type linkDir struct {
	rng         *rand.Rand
	wpend       []byte   // partial frame bytes accumulating from writes
	queue       [][]byte // complete frames awaiting the reader
	rbuf        []byte   // frame bytes currently being read
	frames      int64    // frames written into this direction, 1-based
	partitioned bool
	pendingErr  bool // one-shot ErrLinkDropped for this direction's reader
	scripts     []linkScript
	partitionAt int64 // partition when this frame number crosses (0: unset)
}

// FaultLink owns both endpoints of a faulty in-memory connection.
type FaultLink struct {
	mu       sync.Mutex
	cond     *sync.Cond
	cfg      LinkFaultConfig
	clock    *storage.Clock
	dirs     [2]*linkDir
	closed   bool
	dropped  int64
	injected int64
	ops      []string
}

// NewFaultLink creates a link charging latency spikes to clock (which
// may be nil).
func NewFaultLink(cfg LinkFaultConfig, clock *storage.Clock) *FaultLink {
	l := &FaultLink{cfg: cfg, clock: clock}
	l.cond = sync.NewCond(&l.mu)
	// Distinct per-direction RNGs: each direction's schedule depends
	// only on its own frame sequence, which the writer totally orders.
	l.dirs[AtoB] = &linkDir{rng: rand.New(rand.NewSource(cfg.Seed))}
	l.dirs[BtoA] = &linkDir{rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))}
	return l
}

// linkEnd is one endpoint; writes feed writeDir, reads drain readDir.
type linkEnd struct {
	l        *FaultLink
	writeDir LinkDir
	readDir  LinkDir
}

// A returns the endpoint whose writes travel a->b (the sender side in
// the tests' convention).
func (l *FaultLink) A() io.ReadWriteCloser { return &linkEnd{l: l, writeDir: AtoB, readDir: BtoA} }

// B returns the endpoint whose writes travel b->a (the receiver side).
func (l *FaultLink) B() io.ReadWriteCloser { return &linkEnd{l: l, writeDir: BtoA, readDir: AtoB} }

func (e *linkEnd) Write(p []byte) (int, error) {
	l := e.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, io.ErrClosedPipe
	}
	// Note: writing must NOT scrub a pending loss error on the
	// direction this side reads. It is tempting ("this side is alive
	// and making progress, any loss it was due to observe is stale"),
	// but a writer can be answering a *duplicated* frame while the
	// pending error signals a *later* loss — scrubbing then leaves
	// this side blocked forever on a read its peer already abandoned.
	// Stale errors are cheap (one spurious reconnect) and Heal clears
	// them on the re-handshake path; a lost wake-up deadlocks.
	d := l.dirs[e.writeDir]
	d.wpend = append(d.wpend, p...)
	// Reassemble and process every complete frame.
	for len(d.wpend) >= frameHdrSize {
		n := binary.LittleEndian.Uint64(d.wpend[1:9])
		if n > 1<<32 {
			break
		}
		total := frameHdrSize + int(n)
		if len(d.wpend) < total {
			break
		}
		frame := append([]byte(nil), d.wpend[:total]...)
		d.wpend = d.wpend[total:]
		l.processFrame(e.writeDir, frame)
	}
	l.cond.Broadcast()
	return len(p), nil
}

// processFrame rolls the dice for one frame and delivers, mutates, or
// drops it. Every frame consumes a fixed number of RNG draws so the
// schedule stays a pure function of (seed, frame number). Callers
// hold l.mu.
func (l *FaultLink) processFrame(dir LinkDir, frame []byte) {
	d := l.dirs[dir]
	d.frames++
	n := d.frames
	dropRoll := d.rng.Float64()
	dupRoll := d.rng.Float64()
	reorderRoll := d.rng.Float64()
	corruptRoll := d.rng.Float64()
	latRoll := d.rng.Float64()
	frac := d.rng.Float64()

	if d.partitionAt != 0 && n >= d.partitionAt {
		d.partitioned = true
		d.partitionAt = 0
		l.logf("partition %s at frame %d", dir, n)
	}
	scripted := false
	for _, s := range d.scripts {
		if n >= s.from && n <= s.to {
			scripted = true
		}
	}
	if d.partitioned || scripted || dropRoll < l.cfg.Drop {
		l.dropped++
		if scripted || dropRoll < l.cfg.Drop {
			l.injected++
		}
		l.logf("drop %s #%d type=%d", dir, n, frame[0])
		l.signalDropLocked()
		return
	}
	if corruptRoll < l.cfg.Corrupt {
		c := append([]byte(nil), frame...)
		if len(c) > frameHdrSize {
			c[frameHdrSize+int(frac*float64(len(c)-frameHdrSize))%(len(c)-frameHdrSize)] ^= 0x80
		} else {
			// Headers-only frame: damage the CRC field itself.
			c[9+int(frac*4)%4] ^= 0x80
		}
		frame = c
		l.injected++
		l.logf("corrupt %s #%d type=%d", dir, n, frame[0])
		// The receiver of a corrupt frame fails its CRC and hangs up,
		// so whatever reply this side is waiting for will never come:
		// raise the timeout on the opposite direction now.
		l.dirs[1-dir].pendingErr = true
	}
	if latRoll < l.cfg.LatencyProb && l.cfg.LatencyCost > 0 {
		if l.clock != nil {
			l.clock.Advance(l.cfg.LatencyCost)
		}
		l.logf("latency %s #%d +%v", dir, n, l.cfg.LatencyCost)
	}
	if reorderRoll < l.cfg.Reorder && len(d.queue) > 0 {
		// Deliver ahead of the most recently queued frame. Reordering
		// never holds a frame back (the synchronous protocol would
		// deadlock waiting for it), it only jumps the queue.
		d.queue = append(d.queue, nil)
		copy(d.queue[len(d.queue)-1:], d.queue[len(d.queue)-2:])
		d.queue[len(d.queue)-2] = frame
		l.injected++
		l.logf("reorder %s #%d type=%d", dir, n, frame[0])
	} else {
		d.queue = append(d.queue, frame)
	}
	if dupRoll < l.cfg.Dup {
		d.queue = append(d.queue, append([]byte(nil), frame...))
		l.injected++
		l.logf("dup %s #%d type=%d", dir, n, frame[0])
	}
}

// signalDropLocked raises the one-shot loss error on both directions:
// with a synchronous protocol both sides end up blocked after a loss
// (the receiver waiting for the frame, the sender for its reply), so
// both must observe the timeout. Callers hold l.mu.
func (l *FaultLink) signalDropLocked() {
	l.dirs[AtoB].pendingErr = true
	l.dirs[BtoA].pendingErr = true
	l.cond.Broadcast()
}

func (e *linkEnd) Read(p []byte) (int, error) {
	l := e.l
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.dirs[e.readDir]
	for {
		if len(d.rbuf) > 0 {
			n := copy(p, d.rbuf)
			d.rbuf = d.rbuf[n:]
			return n, nil
		}
		if len(d.queue) > 0 {
			d.rbuf = d.queue[0]
			d.queue = d.queue[1:]
			continue
		}
		if d.pendingErr {
			d.pendingErr = false
			return 0, fmt.Errorf("%w: direction %s", ErrLinkDropped, e.readDir)
		}
		if l.closed {
			return 0, io.EOF
		}
		if d.partitioned {
			return 0, fmt.Errorf("%w: direction %s partitioned", ErrLinkDropped, e.readDir)
		}
		l.cond.Wait()
	}
}

// Close tears down the whole link: blocked readers drain what is
// buffered and then see EOF.
func (e *linkEnd) Close() error {
	e.l.mu.Lock()
	e.l.closed = true
	e.l.cond.Broadcast()
	e.l.mu.Unlock()
	return nil
}

// Partition cuts one direction: frames written into it are dropped
// and reads against it fail fast, until Heal.
func (l *FaultLink) Partition(dir LinkDir) {
	l.mu.Lock()
	l.dirs[dir].partitioned = true
	l.logf("partition %s", dir)
	l.signalDropLocked()
	l.mu.Unlock()
}

// PartitionBoth cuts the link symmetrically.
func (l *FaultLink) PartitionBoth() {
	l.mu.Lock()
	l.dirs[AtoB].partitioned = true
	l.dirs[BtoA].partitioned = true
	l.logf("partition both")
	l.signalDropLocked()
	l.mu.Unlock()
}

// Heal reopens both directions and clears any unobserved loss errors;
// the endpoints re-handshake from here.
func (l *FaultLink) Heal() {
	l.mu.Lock()
	for _, d := range l.dirs {
		d.partitioned = false
		d.pendingErr = false
		d.partitionAt = 0
	}
	l.logf("heal")
	l.cond.Broadcast()
	l.mu.Unlock()
}

// DrainPending discards everything buffered in both directions —
// queued frames, half-read frame bytes, and half-written partial
// frames. A harness calls it between tearing a connection down and
// re-handshaking, so a stale hello-ack left over from a failed attempt
// cannot satisfy the next handshake while the serving side is dead.
func (l *FaultLink) DrainPending() {
	l.mu.Lock()
	for _, d := range l.dirs {
		d.queue = nil
		d.rbuf = nil
		d.wpend = nil
	}
	l.logf("drain")
	l.mu.Unlock()
}

// Partitioned reports whether either direction is currently cut.
func (l *FaultLink) Partitioned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirs[AtoB].partitioned || l.dirs[BtoA].partitioned
}

// DropFrames scripts deterministic drops: frames numbered from..to
// (inclusive, 1-based, per direction) vanish in flight.
func (l *FaultLink) DropFrames(dir LinkDir, from, to int64) {
	l.mu.Lock()
	l.dirs[dir].scripts = append(l.dirs[dir].scripts, linkScript{from: from, to: to})
	l.mu.Unlock()
}

// PartitionAt scripts a partition that begins when frame number n
// (1-based) crosses the given direction; that frame is the first one
// lost.
func (l *FaultLink) PartitionAt(dir LinkDir, n int64) {
	l.mu.Lock()
	l.dirs[dir].partitionAt = n
	l.mu.Unlock()
}

// ClearScripts removes all scripted drops.
func (l *FaultLink) ClearScripts() {
	l.mu.Lock()
	l.dirs[AtoB].scripts = nil
	l.dirs[BtoA].scripts = nil
	l.mu.Unlock()
}

// FrameCount reports frames written into a direction so far.
func (l *FaultLink) FrameCount(dir LinkDir) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirs[dir].frames
}

// DroppedCount reports frames lost (injected, scripted, or
// partitioned).
func (l *FaultLink) DroppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// InjectedCount reports faults injected by probability or script
// (drops, dups, reorders, corruptions), excluding partition losses.
func (l *FaultLink) InjectedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.injected
}

// Ops returns a copy of the fault op log.
func (l *FaultLink) Ops() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ops...)
}

func (l *FaultLink) logf(format string, args ...any) {
	l.ops = append(l.ops, fmt.Sprintf(format, args...))
}
