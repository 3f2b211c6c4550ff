package netback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// This file implements acknowledged replication: a ReplicaBackend
// waits for a per-delta ack from the receiver, so a flush only succeeds
// once the epoch is safely on the standby. A resume handshake (hello / hello-ack carrying the
// receiver's last contiguous epoch) lets a dropped connection
// reconnect and skip epochs the replica already holds; the core health
// machinery replays the rest from the flush window.

// Replica frame types, continuing the base protocol's numbering.
const (
	frameAck        byte = iota + 4 // receiver -> sender: [group u64][epoch u64]
	frameHello                      // sender -> receiver: [group u64]
	frameHelloAck                   // receiver -> sender: [group u64][last contiguous epoch u64]
	frameFenced                     // receiver -> sender: [group u64][fence gen u64][floor epoch u64]
	frameDeltaC                     // sender -> receiver: compact delta (hash refs for pages the receiver holds)
	frameNeed                       // receiver -> sender: [group u64][epoch u64] — refs missing, resend full
	frameHandoff                    // sender -> receiver: [group u64][gen u64][floor u64] — migration handover announcement
	frameHandoffAck                 // receiver -> sender: [group u64][gen u64] — fence adopted
)

// ErrDisconnected is wrapped into replica flush errors once the
// connection is gone; callers select on it with errors.Is and
// reconnect with Connect.
var ErrDisconnected = errors.New("netback: replica disconnected")

// ServeReplica consumes an acknowledged replication stream: every
// delta applied is acked with its (group, epoch), and a hello
// is answered with the group's last contiguous epoch so the sender can
// resume where it left off. A frame stamped with a store generation
// behind the group's fence (see AdoptFence) is not applied: it is
// answered with a fenced frame carrying the fence generation and the
// replica's contiguous floor, so a stale primary learns it has been
// superseded. It returns the number of frames applied; the error is
// nil on a clean bye or EOF.
func (r *Receiver) ServeReplica(conn io.ReadWriter) (int, error) {
	applied := 0
	for {
		typ, payload, err := readFrame(conn)
		if err == io.EOF || errors.Is(err, io.ErrClosedPipe) {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		ok, err := r.handle(conn, typ, payload)
		if ok {
			applied++
		}
		if err != nil {
			if err == io.EOF {
				err = nil // bye
			}
			return applied, err
		}
	}
}

// handle is the replica protocol's one step, whatever carries the
// frames: it charges one verified frame to the receiver's NIC and
// answers it on w — a hello with its hello ack, a delta with an ack (or
// a need for pages it cannot resolve, or a fenced reply), a handoff with
// its handoff ack. ServeReplica calls it for each frame it reads off a
// connection; a Wire's link calls it for each request it delivers.
// applied reports a delta linked into its chain; a bye is io.EOF.
func (r *Receiver) handle(w io.Writer, typ byte, payload []byte) (applied bool, err error) {
	r.mu.Lock()
	r.recvd += int64(len(payload))
	r.mu.Unlock()
	if r.clock != nil {
		r.clock.Advance(r.nic.Latency + time.Duration(int64(len(payload))*int64(time.Second)/r.nic.ReadBW))
	}
	switch typ {
	case frameBye:
		return false, io.EOF
	case frameHello:
		if len(payload) != 8 {
			return false, fmt.Errorf("%w: hello payload %d bytes", ErrBadFrame, len(payload))
		}
		group := binary.LittleEndian.Uint64(payload)
		return false, writePair(w, frameHelloAck, group, r.lastContiguous(group))
	case frameDelta:
		img, err := core.DecodeDelta(payload, r.pm)
		if err != nil {
			return false, err
		}
		return r.apply(w, img)
	case frameDeltaC:
		img, missing, err := core.DecodeDeltaCompact(payload, r.pm, r.resolveBlock, r.basePage)
		if err != nil {
			return false, err
		}
		if len(missing) == 0 || r.holdsFolded(img.Group, img.Epoch) {
			// Complete, or a re-delivery of an epoch the base already
			// holds, which apply acks and link releases.
			return r.apply(w, img)
		}
		// The sender's mirror of this receiver was wrong (e.g. this
		// replica restarted empty), or a line entry's base is not here or
		// did not rebuild the page it was sent for. Ask for the full delta;
		// the sender resets its mirror and resends literals.
		group, epoch := img.Group, img.Epoch
		img.Release(r.pm)
		r.mu.Lock()
		r.needsSent++
		r.mu.Unlock()
		return false, writePair(w, frameNeed, group, epoch)
	case frameHandoff:
		// Migration handover: the sender is giving us the lineage at a
		// new generation. Adopt the fence — from here any frame stamped
		// below it (a zombie source) is answered fenced — and
		// acknowledge, so the sender knows the fence stands before it
		// flips the primary role.
		if len(payload) != 24 {
			return false, fmt.Errorf("%w: handoff payload %d bytes", ErrBadFrame, len(payload))
		}
		group := binary.LittleEndian.Uint64(payload[:8])
		gen := binary.LittleEndian.Uint64(payload[8:16])
		r.AdoptFence(group, gen)
		return false, writePair(w, frameHandoffAck, group, gen)
	}
	return false, fmt.Errorf("%w: type %d", ErrBadFrame, typ)
}

// apply links a decoded delta into its chain and acks it — or, if its
// generation is behind the group's fence, releases it and answers
// fenced instead.
func (r *Receiver) apply(w io.Writer, img *core.Image) (bool, error) {
	if rejected, err := r.fenceCheck(w, img); rejected || err != nil {
		img.Release(r.pm)
		return false, err
	}
	r.link(img)
	return true, writePair(w, frameAck, img.Group, img.Epoch)
}

// writePair emits a reply frame whose payload is two u64s.
func writePair(w io.Writer, typ byte, a, b uint64) error {
	var p [16]byte
	binary.LittleEndian.PutUint64(p[:8], a)
	binary.LittleEndian.PutUint64(p[8:], b)
	return writeFrame(w, typ, p[:])
}

// fenceCheck rejects an image stamped with a generation behind the
// group's fence, answering with a fenced frame instead of an ack. The
// unstamped generation 0 only passes while no fence is raised (a
// legacy stream to a replica that never saw a promotion).
func (r *Receiver) fenceCheck(conn io.Writer, img *core.Image) (rejected bool, err error) {
	r.mu.Lock()
	fence := r.fences[img.Group]
	r.mu.Unlock()
	if fence == 0 || img.Gen >= fence {
		return false, nil
	}
	var p [24]byte
	binary.LittleEndian.PutUint64(p[:8], img.Group)
	binary.LittleEndian.PutUint64(p[8:16], fence)
	binary.LittleEndian.PutUint64(p[16:], r.lastContiguous(img.Group))
	return true, writeFrame(conn, frameFenced, p[:])
}

// lastContiguous reports the newest epoch e such that the receiver
// holds every epoch from the start of the group's chain through e. A
// gap (an epoch lost with the connection) stops the walk: resuming
// past it would leave a hole no restore could cross.
func (r *Receiver) lastContiguous(group uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	chain := r.chains[group]
	if len(chain) == 0 {
		return 0
	}
	last := chain[0].Epoch
	for _, img := range chain[1:] {
		if img.Epoch != last+1 {
			break
		}
		last = img.Epoch
	}
	return last
}

// replicaCore is the connection state shared by a ReplicaBackend and
// its lane views. The mutex is held across the send/ack round trip:
// the protocol is synchronous per delta, so concurrent flush workers
// serialize here.
type replicaCore struct {
	mu         sync.Mutex
	conn       io.ReadWriter
	floor      uint64 // receiver's last contiguous epoch at handshake
	sent       int64  // payload bytes of the delta frames written
	partitions int64  // established connections lost
	nic        storage.DeviceParams
	name       string        // link name in a replica set ("" = "replica")
	extraLat   time.Duration // modeled extra one-way latency for this link

	// mirrors is, per group, what the receiver holds of the acked line
	// once it has folded it (mirror), and held counts the pages of every
	// mirror by content tag: a content with a count is held by the
	// receiver, so a compact delta may send that page as a ref. Purely an
	// optimization — a receiver that lost state answers with a need
	// frame, which resets the group's mirror. Guarded by mu (only touched
	// on the send path). needResends / pagesSent / pagesSkip / pagesLined
	// are the compact-protocol counters.
	mirrors     map[uint64]*mirror
	held        map[uint64]int
	pagesSent   int64
	pagesSkip   int64
	pagesLined  int64
	needResends int64

	// ackMu guards the live acked-epoch ledger below. It is separate
	// from mu — which is held across whole send/ack round trips — so
	// readers (the space reclaimer computing catch-up floors) never
	// stall behind an in-flight delta.
	ackMu sync.Mutex
	// acked is each group's in-order frontier: the last epoch acked
	// since the handshake reported the receiver's floor, counted the way
	// the receiver counts contiguous (lastContiguous). Core delivers a
	// link's epochs in order, so there is no out-of-order ack to
	// remember.
	acked map[uint64]uint64
}

// mirror is a sender's copy of one group's chain on its receiver, as
// far as the acks it saw tell: the content hash of each page of the base
// (the state below the floor) and the pages of the floor image, at
// epoch. Between resets it holds exactly the contents the receiver's
// chain does; after one, a subset.
type mirror struct {
	epoch uint64
	base  map[uint64]map[int64]uint64 // object -> page -> content tag
	floor []core.PageHash
}

// tag keys a content in the mirror: the first 8 bytes of its hash,
// which a mirror update hashes and compares faster than all 32. Two
// contents sharing a tag could only make the sender send a ref the
// receiver cannot resolve: a need and a full resend, never a wrong page.
func tag(h objstore.Hash) uint64 { return binary.LittleEndian.Uint64(h[:8]) }

// knows reports whether the receiver holds content h. Callers hold mu.
func (rc *replicaCore) knows(h objstore.Hash) bool { return rc.held[tag(h)] > 0 }

func (rc *replicaCore) unhold(t uint64) {
	if n := rc.held[t] - 1; n > 0 {
		rc.held[t] = n
	} else {
		delete(rc.held, t)
	}
}

// forget resets a group's mirror: none of its pages is known held from
// here. Callers hold mu.
func (rc *replicaCore) forget(group uint64) {
	m := rc.mirrors[group]
	if m == nil {
		return
	}
	for _, pages := range m.base {
		for _, t := range pages {
			rc.unhold(t)
		}
	}
	for _, p := range m.floor {
		rc.unhold(tag(p.Hash))
	}
	delete(rc.mirrors, group)
}

// mirrorAck applies an acked image, whose PageHashes are pages, to its
// group's mirror the way its receiver linked it: a full image, or the
// first one acked, starts the mirror over; the epoch after the floor
// folds the floor into the base and becomes the floor. Anything else — a
// re-delivery, an epoch past a hole — is not an in-order link, and the
// mirror is reset. Callers hold mu.
func (rc *replicaCore) mirrorAck(img *core.Image, pages []core.PageHash) {
	m := rc.mirrors[img.Group]
	switch {
	case m == nil || img.Full:
		rc.forget(img.Group)
		m = &mirror{base: make(map[uint64]map[int64]uint64)}
		rc.mirrors[img.Group] = m
	case img.Epoch == m.epoch+1:
		var obj map[int64]uint64
		for i, p := range m.floor {
			if i == 0 || p.ObjID != m.floor[i-1].ObjID {
				if obj = m.base[p.ObjID]; obj == nil {
					obj = make(map[int64]uint64)
					m.base[p.ObjID] = obj
				}
			}
			if t, ok := obj[p.Idx]; ok {
				rc.unhold(t)
			}
			obj[p.Idx] = tag(p.Hash)
		}
	default:
		rc.forget(img.Group)
		return
	}
	// A copy: pages is the image's, and a fold on this side may rewrite
	// it in place.
	m.epoch, m.floor = img.Epoch, append(m.floor[:0], pages...)
	for _, p := range pages {
		rc.held[tag(p.Hash)]++
	}
}

// noteAcked records the receiver's ack of the epoch just sent. It
// extends the frontier by one — or starts it, when the receiver held
// nothing: its chain then begins wherever the first delta lands. An
// epoch past a hole moves nothing, as on the receiver.
func (rc *replicaCore) noteAcked(group, epoch uint64) {
	rc.ackMu.Lock()
	defer rc.ackMu.Unlock()
	if cur := rc.acked[group]; cur == 0 || epoch == cur+1 {
		rc.acked[group] = epoch
	}
}

// lost drops an established connection, counting the partition.
// Callers hold mu.
func (rc *replicaCore) lost() {
	if rc.conn != nil {
		rc.conn = nil
		rc.partitions++
	}
}

// await reads replies off conn until accept takes one, and states once
// what a faulty link leaves in flight: a well-formed reply that accept
// passes over — a duplicate, or a straggler from before a reconnect —
// is stale and skipped; a transport failure or a frame that is no
// reply loses the connection. accept ends the wait with done or with an
// error of its own (which keeps the connection unless accept drops it).
// Callers hold mu.
func (rc *replicaCore) await(conn io.Reader, what string, accept func(typ byte, p []byte) (done bool, err error)) error {
	for {
		typ, p, err := readFrame(conn)
		if err != nil {
			rc.lost()
			return fmt.Errorf("%w: awaiting %s: %w", ErrDisconnected, what, err)
		}
		if len(p) != replyLen(typ) {
			rc.lost()
			return fmt.Errorf("%w: awaiting %s, got type %d with %d bytes", ErrBadFrame, what, typ, len(p))
		}
		if done, err := accept(typ, p); done || err != nil {
			return err
		}
	}
}

// replyLen is the payload size of each reply type (-1: not a reply).
func replyLen(typ byte) int {
	switch typ {
	case frameAck, frameHelloAck, frameNeed, frameHandoffAck:
		return 16
	case frameFenced:
		return 24
	}
	return -1
}

// ReplicaBackend is a core.Backend that replicates every checkpoint to
// a remote receiver and waits for the ack. It is non-ephemeral: an
// acked epoch is durable on the standby, so it counts toward external
// consistency. On connection loss flushes fail with ErrDisconnected,
// the health machinery degrades the backend and queues missed epochs,
// and a Connect + Resync replays them.
type ReplicaBackend struct {
	core  *replicaCore
	clock *storage.Clock
}

// NewReplicaBackend creates a disconnected replica backend charging
// transfer time to clock.
func NewReplicaBackend(clock *storage.Clock) *ReplicaBackend {
	return &ReplicaBackend{
		core: &replicaCore{nic: storage.ParamsNIC10G, acked: make(map[uint64]uint64),
			mirrors: make(map[uint64]*mirror), held: make(map[uint64]int)},
		clock: clock,
	}
}

// Connect performs the resume handshake over rw for group: it sends a
// hello, reads back the receiver's last contiguous epoch, and records
// it as the floor below which flushes are skipped. It returns that
// epoch so the caller knows where replication resumes. Only a hello ack
// answers a hello, so a stale ack or fenced reply left in flight can
// never set the resume floor. A failed handshake leaves the backend
// disconnected.
func (rb *ReplicaBackend) Connect(rw io.ReadWriter, group uint64) (uint64, error) {
	rc := rb.core
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var hello [8]byte
	binary.LittleEndian.PutUint64(hello[:], group)
	if err := writeFrame(rw, frameHello, hello[:]); err != nil {
		rc.lost()
		return 0, fmt.Errorf("%w: hello: %w", ErrDisconnected, err)
	}
	var floor uint64
	err := rc.await(rw, "hello ack", func(typ byte, p []byte) (bool, error) {
		if typ != frameHelloAck {
			return false, nil
		}
		if got := binary.LittleEndian.Uint64(p[:8]); got != group {
			rc.lost()
			return false, fmt.Errorf("%w: hello ack for group %d, want %d", ErrBadFrame, got, group)
		}
		floor = binary.LittleEndian.Uint64(p[8:])
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	rc.conn = rw
	// Everything the receiver reports contiguously held is, by
	// definition, acked, and nothing else is: the frontier restarts from
	// its answer.
	rc.ackMu.Lock()
	regressed := floor < rc.acked[group]
	rc.acked[group] = floor
	rc.ackMu.Unlock()
	if regressed {
		// The receiver reports LESS than we recorded acked: it lost state
		// (killed and restarted empty). The mirror is stale too — reset it
		// so compact deltas don't reference pages the far side no longer
		// has. (More than acked — acks lost in flight — leaves the mirror
		// behind, not wrong: Flush catches it up on the skipped epochs.)
		rc.forget(group)
	}
	rc.floor = floor
	return floor, nil
}

// Disconnect drops the connection; subsequent flushes fail with
// ErrDisconnected until Connect succeeds again.
func (rb *ReplicaBackend) Disconnect() {
	rb.core.mu.Lock()
	rb.core.lost()
	rb.core.mu.Unlock()
}

// Partitions implements core.PartitionAware: the number of established
// replica connections lost so far. A partitioned replica is degraded,
// never down — its machine still holds every acked epoch.
func (rb *ReplicaBackend) Partitions() int64 {
	rb.core.mu.Lock()
	defer rb.core.mu.Unlock()
	return rb.core.partitions
}

// Floor reports the receiver's last contiguous epoch recorded at the
// most recent handshake.
func (rb *ReplicaBackend) Floor() uint64 {
	rb.core.mu.Lock()
	defer rb.core.mu.Unlock()
	return rb.core.floor
}

// CatchUpFloor implements core.CatchUpFloorer: the first epoch of the
// lineage the replica has NOT contiguously acknowledged — the point
// catch-up replication resumes from. Space reclamation keeps every
// epoch at or above it, so a heal-and-resync (or a promotion on the
// far side) always lands on history the primary still holds. Unlike
// Floor it is live, advancing with every ack, not only at handshakes.
func (rb *ReplicaBackend) CatchUpFloor(group uint64) uint64 {
	rc := rb.core
	rc.ackMu.Lock()
	defer rc.ackMu.Unlock()
	return rc.acked[group] + 1
}

// SentBytes reports bytes placed on the wire: the payload of every
// delta frame written, acked or not, and of every full resend.
func (rb *ReplicaBackend) SentBytes() int64 {
	rb.core.mu.Lock()
	defer rb.core.mu.Unlock()
	return rb.core.sent
}

// Name implements core.Backend. Links in a replica set are named
// (SetName) so per-link health rows are tellable apart.
func (rb *ReplicaBackend) Name() string {
	rb.core.mu.Lock()
	defer rb.core.mu.Unlock()
	if rb.core.name != "" {
		return rb.core.name
	}
	return "replica"
}

// SetName names this replica link (shared with lane views).
func (rb *ReplicaBackend) SetName(name string) {
	rb.core.mu.Lock()
	rb.core.name = name
	rb.core.mu.Unlock()
}

// SetLinkLatency adds a modeled one-way latency to every flush on this
// link: replica sets are heterogeneous (a cross-AZ member is slower),
// and quorum durability exists precisely so the slow member does not
// set the pace.
func (rb *ReplicaBackend) SetLinkLatency(d time.Duration) {
	rb.core.mu.Lock()
	rb.core.extraLat = d
	rb.core.mu.Unlock()
}

// AckedFloor reports the receiver's contiguous acked frontier for the
// group (0 = nothing acked): the live per-link value quorum floors
// sort.
func (rb *ReplicaBackend) AckedFloor(group uint64) uint64 {
	rb.core.ackMu.Lock()
	defer rb.core.ackMu.Unlock()
	return rb.core.acked[group]
}

// DeltaStats reports the compact-protocol counters: pages shipped (as
// literals or as line entries), pages elided as hash refs, and full
// resends forced by a need reply (a receiver that lost state, or a
// line entry it could not rebuild).
func (rb *ReplicaBackend) DeltaStats() (sent, skipped, resends int64) {
	rb.core.mu.Lock()
	defer rb.core.mu.Unlock()
	return rb.core.pagesSent, rb.core.pagesSkip, rb.core.needResends
}

// LinesSent reports how many of the pages shipped went as line entries:
// only the lines written since the epoch the receiver had acked.
func (rb *ReplicaBackend) LinesSent() int64 {
	rb.core.mu.Lock()
	defer rb.core.mu.Unlock()
	return rb.core.pagesLined
}

// Ephemeral implements core.Backend: an acked replica epoch survives
// the local machine.
func (rb *ReplicaBackend) Ephemeral() bool { return false }

// WithLane implements core.LaneBackend: the view shares the connection
// but charges transfer time to the worker's detached lane.
func (rb *ReplicaBackend) WithLane(lane *storage.Clock) core.Backend {
	return &ReplicaBackend{core: rb.core, clock: lane}
}

// Flush implements core.Backend: send the delta, wait for the
// matching ack. Epochs at or below the handshake floor are already on
// the replica and are skipped, though the mirror learns them. When the
// link's acked frontier is the epoch before this one, partly written
// pages go as their written lines (core.Image.EncodeDeltaLink). Stale
// replies are skipped while waiting (await), and an ack for an earlier
// epoch is stale: skipping it rather than trusting it is what keeps a
// duplicated ack from ever advancing past the deltas actually received. A need for this epoch resends it
// in full. A fenced reply — the receiver has adopted a newer store
// generation — returns a core.FenceError wrapping
// core.ErrStaleGeneration without dropping the connection. Any
// transport failure drops the connection and returns an error
// wrapping ErrDisconnected.
func (rb *ReplicaBackend) Flush(img *core.Image) (time.Duration, error) {
	rc := rb.core
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if img.Epoch <= rc.floor {
		// Linked before the acks we saw stopped: the mirror catches up on
		// it as if it had been acked now.
		if m := rc.mirrors[img.Group]; m != nil && img.Epoch == m.epoch+1 {
			rc.mirrorAck(img, img.PageHashes())
		}
		return 0, nil
	}
	if rc.conn == nil {
		return 0, fmt.Errorf("%w: epoch %d not sent", ErrDisconnected, img.Epoch)
	}
	payload, pages, skipped, lined := img.EncodeDeltaLink(rc.knows, rb.AckedFloor(img.Group))
	wire := int64(len(payload))
	resent := false
	if err := writeFrame(rc.conn, frameDeltaC, payload); err != nil {
		rc.lost()
		return 0, fmt.Errorf("%w: sending epoch %d: %w", ErrDisconnected, img.Epoch, err)
	}
	rc.sent += wire
	err := rc.await(rc.conn, "ack", func(typ byte, p []byte) (bool, error) {
		group, epoch := binary.LittleEndian.Uint64(p[:8]), binary.LittleEndian.Uint64(p[8:16])
		if group != img.Group {
			return false, nil
		}
		switch typ {
		case frameNeed:
			if epoch != img.Epoch {
				return false, nil
			}
			// The receiver is missing pages we elided: our mirror is
			// stale (it restarted empty). Reset it and resend the epoch
			// as a full delta.
			rc.forget(img.Group)
			rc.needResends++
			resent = true
			full := img.EncodeDelta()
			if err := writeFrame(rc.conn, frameDelta, full); err != nil {
				rc.lost()
				return false, fmt.Errorf("%w: resending epoch %d: %w", ErrDisconnected, img.Epoch, err)
			}
			wire += int64(len(full))
			rc.sent += int64(len(full))
		case frameFenced: // [group][fence gen][floor]
			return false, &core.FenceError{Gen: binary.LittleEndian.Uint64(p[8:16]), Floor: binary.LittleEndian.Uint64(p[16:]),
				Err: fmt.Errorf("netback: epoch %d of group %d rejected by replica: %w",
					img.Epoch, img.Group, core.ErrStaleGeneration)}
		case frameAck:
			if epoch > img.Epoch {
				rc.lost()
				return false, fmt.Errorf("%w: ack for epoch %d, want %d", ErrBadFrame, epoch, img.Epoch)
			}
			return epoch == img.Epoch, nil
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	rc.noteAcked(img.Group, img.Epoch)
	if resent {
		rc.pagesSent += int64(len(pages))
	} else {
		rc.pagesSent += int64(len(pages) - skipped)
		rc.pagesSkip += int64(skipped)
		rc.pagesLined += int64(lined)
	}
	// The acked epoch is linked on the receiver: future deltas may
	// reference what its chain now holds by hash.
	rc.mirrorAck(img, pages)
	cost := rc.nic.Latency + rc.extraLat + time.Duration(wire*int64(time.Second)/rc.nic.WriteBW)
	if rb.clock != nil {
		rb.clock.Advance(cost)
	}
	return cost, nil
}

// Load implements core.Backend: replica state lives on the remote
// machine and is restored there, not here.
func (rb *ReplicaBackend) Load(group, epoch uint64) (*core.Image, time.Duration, error) {
	return nil, 0, fmt.Errorf("%w: replica backend holds no local images (group %d epoch %d)",
		core.ErrNoImage, group, epoch)
}
