package netback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"aurora/internal/storage"
)

// FaultLink is the network twin of storage.FaultDevice: a seeded,
// deterministic in-process link from a sender to a peer's frame handler
// that injects per-frame faults — drops, duplicates, reorders, payload
// corruption, latency spikes — plus scripted drops and partitions with
// heal. It is frame-aware: writes are reassembled into wire frames
// ([type][len][crc32c][payload]) and each frame's fate is drawn from a
// per-direction RNG with a fixed six draws, so the schedule is a pure
// function of (seed, frame number) in that direction.
//
// The replication protocol is synchronous (one frame in flight per
// direction, the sender waits for the reply), so the far end needs no
// goroutine: the link is the sender's io.ReadWriter, and each request
// frame that survives its draws is handed to the peer by the Write that
// completes it, on the writer's own goroutine. The replies the peer
// writes cross b->a into the one queue Read drains. A read never
// blocks: an empty queue means no reply is coming — the timeout
// ErrLinkDropped. Requests are delivered as they arrive, so Reorder
// only ever jumps a reply ahead of one already queued.
//
// One rule covers every loss: a frame dropped in flight (either
// direction), a request the peer cannot take (a corrupt one fails its
// CRC) and a partition end the session — every later frame is lost and
// reads fail — until Heal opens a new one. A corrupt reply is the
// sender's to detect: it fails the CRC and drops its connection.

// ErrLinkDropped reports a frame lost on a FaultLink (injected drop or
// partition). The replication layer treats it as a connection loss.
var ErrLinkDropped = errors.New("netback: link dropped frame")

// LinkDir names one direction of a FaultLink.
type LinkDir int

const (
	AtoB LinkDir = iota // sender -> peer: requests
	BtoA                // peer -> sender: replies
)

// LinkFaultConfig holds the per-frame fault probabilities, all in
// [0, 1] and drawn from a seeded RNG per direction.
type LinkFaultConfig struct {
	Seed int64

	// Drop is the probability a frame vanishes in flight, ending the
	// session (the protocol timeout).
	Drop float64
	// Dup delivers the frame twice.
	Dup float64
	// Reorder delivers a reply ahead of one already queued (two replies
	// are queued at once only when a request or a reply was duplicated,
	// so this composes with Dup).
	Reorder float64
	// Corrupt flips one payload byte in flight; the frame CRC catches
	// it on the receiving side (ErrCorruptFrame).
	Corrupt float64
	// LatencyProb/LatencyCost inject latency spikes charged to the
	// link's virtual clock.
	LatencyProb float64
	LatencyCost time.Duration
}

// handler is a link's far end: it takes one request frame and writes
// its replies, if any, to w. An error hangs up, ending the session.
type handler func(w io.Writer, typ byte, payload []byte) error

// linkScript is one scripted "drop frames N..M" directive.
type linkScript struct {
	from, to int64 // inclusive frame numbers, 1-based
}

// linkDir is one direction's state.
type linkDir struct {
	rng     *rand.Rand
	wpend   []byte   // partial frame bytes accumulating from writes
	queue   [][]byte // whole frames not yet delivered (a->b) or read (b->a)
	frames  int64    // frames written into this direction, 1-based
	scripts []linkScript
}

// FaultLink is the sender's end of a faulty in-process connection.
type FaultLink struct {
	mu       sync.Mutex
	cfg      LinkFaultConfig
	clock    *storage.Clock
	peer     handler
	dirs     [2]*linkDir
	rbuf     []byte // reply bytes being read
	cut      bool   // the session ended: frames are lost until Heal
	dropped  int64
	injected int64
}

// newFaultLink creates a link to peer, charging latency spikes to clock
// (which may be nil).
func newFaultLink(cfg LinkFaultConfig, clock *storage.Clock, peer handler) *FaultLink {
	l := &FaultLink{cfg: cfg, clock: clock, peer: peer}
	// Distinct per-direction RNGs: each direction's schedule depends
	// only on its own frame sequence, which its writer totally orders.
	l.dirs[AtoB] = &linkDir{rng: rand.New(rand.NewSource(cfg.Seed))}
	l.dirs[BtoA] = &linkDir{rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))}
	return l
}

// Write takes the sender's bytes. Every request frame they complete
// crosses a->b and, surviving, is handed to the peer before Write
// returns — its replies are queued by then.
func (l *FaultLink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cross(AtoB, p)
	for d := l.dirs[AtoB]; len(d.queue) > 0 && !l.cut; {
		frame := d.queue[0]
		d.queue = d.queue[1:]
		l.mu.Unlock()
		typ, payload, err := readFrame(bytes.NewReader(frame))
		if err == nil {
			err = l.peer((*replyEnd)(l), typ, payload)
		}
		l.mu.Lock()
		if err != nil {
			l.cut = true // the peer hung up
		}
	}
	return len(p), nil
}

// replyEnd is the writer the peer answers on: its frames cross b->a.
type replyEnd FaultLink

func (r *replyEnd) Write(p []byte) (int, error) {
	l := (*FaultLink)(r)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cross(BtoA, p)
	return len(p), nil
}

// Read returns queued reply bytes. Replies are written before the
// request's Write returns, so with nothing queued none is coming: Read
// fails at once, as does every read in an ended session.
func (l *FaultLink) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cut {
		return 0, fmt.Errorf("%w: session ended", ErrLinkDropped)
	}
	if q := &l.dirs[BtoA].queue; len(l.rbuf) == 0 && len(*q) > 0 {
		l.rbuf, *q = (*q)[0], (*q)[1:]
	}
	if len(l.rbuf) == 0 {
		return 0, fmt.Errorf("%w: no reply", ErrLinkDropped)
	}
	n := copy(p, l.rbuf)
	l.rbuf = l.rbuf[n:]
	return n, nil
}

// cross reassembles bytes written into dir and sends every frame they
// complete through its fault draws. Callers hold l.mu.
func (l *FaultLink) cross(dir LinkDir, p []byte) {
	d := l.dirs[dir]
	d.wpend = append(d.wpend, p...)
	for len(d.wpend) >= frameHdrSize {
		n := binary.LittleEndian.Uint64(d.wpend[1:9])
		if n > 1<<32 || uint64(len(d.wpend)-frameHdrSize) < n {
			break
		}
		total := frameHdrSize + int(n)
		frame := slices.Clone(d.wpend[:total])
		d.wpend = d.wpend[total:]
		l.draw(d, frame)
	}
}

// draw rolls the dice for one frame and queues, mutates, or drops it.
// Every frame consumes the same six draws, so the schedule stays a
// pure function of (seed, frame number). Callers hold l.mu.
func (l *FaultLink) draw(d *linkDir, frame []byte) {
	d.frames++
	n := d.frames
	dropRoll := d.rng.Float64()
	dupRoll := d.rng.Float64()
	reorderRoll := d.rng.Float64()
	corruptRoll := d.rng.Float64()
	latRoll := d.rng.Float64()
	frac := d.rng.Float64()

	injected := dropRoll < l.cfg.Drop
	for _, s := range d.scripts {
		injected = injected || (n >= s.from && n <= s.to)
	}
	if l.cut || injected {
		l.dropped++
		if injected {
			l.injected++
		}
		l.cut = true
		return
	}
	if corruptRoll < l.cfg.Corrupt {
		if len(frame) > frameHdrSize {
			frame[frameHdrSize+int(frac*float64(len(frame)-frameHdrSize))%(len(frame)-frameHdrSize)] ^= 0x80
		} else {
			// Headers-only frame: damage the CRC field itself.
			frame[9+int(frac*4)%4] ^= 0x80
		}
		l.injected++
	}
	if latRoll < l.cfg.LatencyProb && l.cfg.LatencyCost > 0 && l.clock != nil {
		l.clock.Advance(l.cfg.LatencyCost)
	}
	if reorderRoll < l.cfg.Reorder && len(d.queue) > 0 {
		// Deliver ahead of the most recently queued frame. Reordering
		// never holds a frame back (the synchronous protocol would
		// wait for it), it only jumps the queue.
		d.queue = slices.Insert(d.queue, len(d.queue)-1, frame)
		l.injected++
	} else {
		d.queue = append(d.queue, frame)
	}
	if dupRoll < l.cfg.Dup {
		d.queue = append(d.queue, slices.Clone(frame))
		l.injected++
	}
}

// Partition cuts the link: the session ends, frames written are lost
// and reads fail, until Heal.
func (l *FaultLink) Partition() {
	l.mu.Lock()
	l.cut = true
	l.mu.Unlock()
}

// Heal opens a new session: the link carries frames again, and
// whatever the old one left queued or half-written is discarded, so a
// stale reply can never answer a new request.
func (l *FaultLink) Heal() {
	l.mu.Lock()
	l.cut = false
	l.rbuf = nil
	for _, d := range l.dirs {
		d.queue, d.wpend = nil, nil
	}
	l.mu.Unlock()
}

// Partitioned reports whether the session has ended (a partition or a
// loss) and not yet been healed.
func (l *FaultLink) Partitioned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cut
}

// DropFrames scripts deterministic drops: frames numbered from..to
// (inclusive, 1-based, per direction) vanish in flight.
func (l *FaultLink) DropFrames(dir LinkDir, from, to int64) {
	l.mu.Lock()
	l.dirs[dir].scripts = append(l.dirs[dir].scripts, linkScript{from: from, to: to})
	l.mu.Unlock()
}

// FrameCount reports frames written into a direction so far.
func (l *FaultLink) FrameCount(dir LinkDir) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirs[dir].frames
}

// DroppedCount reports frames lost (injected, scripted, or in an ended
// session).
func (l *FaultLink) DroppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// InjectedCount reports faults injected by probability or script
// (drops, dups, reorders, corruptions), excluding losses to an ended
// session.
func (l *FaultLink) InjectedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.injected
}
