// Package netback implements Aurora's network backend: acknowledged,
// continuous replication of incremental checkpoints to receivers on
// other machines, for fault tolerance, quorum durability and the
// pre-copy half of live migration (core.Migrator).
//
// Transport is any io.ReadWriter served by Receiver.ServeReplica —
// net.Conn in production, net.Pipe in tests — or, in process, a Wire,
// whose link hands each frame straight to the receiver's handler.
// Frames carry epoch deltas and their acks (replica.go). The modeled
// transfer cost follows a 10 GbE NIC profile.
package netback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Frame types on the wire. Types 1 (a consolidated image, the retired
// one-shot send) and 2 (a delta in the retired all-literal layout) stay
// reserved: a receiver answers them ErrBadFrame.
const frameBye byte = 3 // end of stream

// Errors.
var (
	ErrBadFrame = errors.New("netback: bad frame")
	// ErrCorruptFrame marks a frame whose payload failed its CRC: the
	// bytes were damaged in flight. The connection is unusable from
	// here (framing may have lost sync), so callers treat it like a
	// connection loss and resume via the hello handshake.
	ErrCorruptFrame = errors.New("netback: corrupt frame")
)

// frameHdrSize is the wire header: [type u8][len u64][crc32c u32].
// The CRC (Castagnoli, as used end-to-end by the object store) covers
// the payload, so a flipped bit on the wire is detected at the frame
// layer instead of surfacing as a garbled image decode.
const frameHdrSize = 13

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// writeFrame emits [type][len][crc32c][payload].
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHdrSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:], crc32.Checksum(payload, frameCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// A zero-length write would block forever on synchronous
		// pipes: the reader never issues a matching zero-byte read.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, verifying the payload CRC.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[1:9])
	if n > 1<<32 {
		return 0, nil, ErrBadFrame
	}
	// The length is the sender's claim. Memory is taken as the bytes
	// arrive — a first piece that holds any ordinary delta whole, then
	// doubling — so a truncated or hostile header costs what was sent
	// (plus at most that piece), not what it promised.
	payload := make([]byte, min(n, 8<<20))
	for got := 0; ; {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return 0, nil, err
		}
		if got = len(payload); uint64(got) == n {
			break
		}
		payload = append(payload, make([]byte, min(n-uint64(got), uint64(got)))...)
	}
	if got, want := crc32.Checksum(payload, frameCRC), binary.LittleEndian.Uint32(hdr[9:]); got != want {
		return 0, nil, fmt.Errorf("%w: type %d payload %d bytes: crc %08x, want %08x",
			ErrCorruptFrame, hdr[0], n, got, want)
	}
	return hdr[0], payload, nil
}

// Receiver accepts checkpoints from a remote host (ServeReplica). It
// holds each group's state, ready to restore — the warm-standby half of
// fault tolerance — and not its history: a group's chain is one base
// holding everything below the contiguous floor, the floor image, and
// any images above a hole (link). An image it hands out (Latest,
// ImageAt) stays valid until the group's next link.
type Receiver struct {
	pm    *vm.PhysMem
	clock *storage.Clock
	nic   storage.DeviceParams

	mu     sync.Mutex
	chains map[uint64][]*core.Image // group -> [base,] floor, images above a hole; by epoch
	fences map[uint64]uint64        // group -> highest generation witnessed or adopted
	linked map[uint64]int64         // group -> epochs linked that it did not hold
	recvd  int64

	// blocks indexes every distinct page content the chains hold, by
	// content hash. It is kept current as images join and leave the
	// chains (hold, drop) and never rebuilt, so a delta costs what its
	// own pages cost however long the history is. Nothing is hashed to
	// keep it: an image brings its hashes with it (core.Image.PageHashes
	// — off the wire for hash refs, computed once on arrival for
	// literals). Pages of equal content share one frame, so an entry's
	// frame is referenced by exactly `holders` pages of chain images and
	// the entry goes when the last of them is released: an entry never
	// outlives the bytes it points at.
	blocks map[objstore.Hash]blockEntry
	// hashed totals the pages hashed on arrival, patched those of them
	// rebuilt from line entries, resolved the hash refs answered from
	// blocks.
	hashed, patched, resolved int64

	// needsSent counts need replies sent for compact deltas with hash
	// refs the chains could not resolve.
	needsSent int64
}

// blockEntry is one distinct page content held by the chains.
type blockEntry struct {
	frame   *vm.Frame
	holders int // pages of chain images that reference frame
}

// NewReceiver creates a receiver allocating frames from pm.
func NewReceiver(pm *vm.PhysMem, clock *storage.Clock) *Receiver {
	return &Receiver{
		pm:     pm,
		clock:  clock,
		nic:    storage.ParamsNIC10G,
		chains: make(map[uint64][]*core.Image),
		fences: make(map[uint64]uint64),
		linked: make(map[uint64]int64),
		blocks: make(map[objstore.Hash]blockEntry),
	}
}

// hold enters an arriving image's pages into the block index. A page
// whose content the chains already hold gives up its own frame for the
// held one, so each distinct content is resident once. Callers hold mu
// and own img: it is not yet visible through any chain. A decoded image
// holds every page as a frame, so an object's k-th page in PageHashes is
// its k-th frame.
func (r *Receiver) hold(img *core.Image) {
	pages := img.PageHashes()
	var own []vm.Page
	for i, p := range pages {
		if i == 0 || p.ObjID != pages[i-1].ObjID {
			own = img.Memory[p.ObjID].Pages
		}
		f := &own[0].Frame
		own = own[1:]
		e, ok := r.blocks[p.Hash]
		switch {
		case !ok:
			e.frame = *f
		case e.frame != *f:
			e.frame.Ref()
			r.pm.Free(*f)
			*f = e.frame
		}
		e.holders++
		r.blocks[p.Hash] = e
	}
	r.hashed += img.PagesHashed()
	r.patched += img.PagesPatched()
}

// drop takes an image that left its chain out of the block index and
// releases its frames. Callers hold mu.
func (r *Receiver) drop(img *core.Image) {
	for _, p := range img.PageHashes() {
		r.unindex(p.Hash)
	}
	img.Release(r.pm)
}

// unindex drops one chain page's hold on its content's entry. Callers
// hold mu.
func (r *Receiver) unindex(h objstore.Hash) {
	e := r.blocks[h]
	if e.holders--; e.holders == 0 {
		delete(r.blocks, h)
	} else {
		r.blocks[h] = e
	}
}

// shadowed is core.Fold's free for a chain's fold: a page the newer
// image rewrote leaves the block index and its frame goes back to the
// allocator. Callers hold mu.
func (r *Receiver) shadowed(p core.PageHash, f *vm.Frame) {
	r.unindex(p.Hash)
	r.pm.Free(f)
}

// FetchBlock implements objstore.BlockSource over the receiver's held
// images: a replica holds bit-identical page bytes under the same
// content hashes as any store of the group, so it can heal a primary's
// rotted block (Scrub) or serve a page during demand-paging failover.
// The caller gets a copy of its own.
func (r *Receiver) FetchBlock(h objstore.Hash) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.blocks[h]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.frame.Data...), true
}

// BlockStats counts the work behind the block index.
type BlockStats struct {
	Hashed   int64 // pages hashed on arrival (literals and patched pages; refs carry their hash)
	Patched  int64 // pages rebuilt from the previous epoch plus their sent lines
	Resolved int64 // hash refs answered from the index, without a copy
	Entries  int   // distinct page contents held, one frame each
}

// BlockStats reports the block index counters.
func (r *Receiver) BlockStats() BlockStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return BlockStats{Hashed: r.hashed, Patched: r.patched, Resolved: r.resolved, Entries: len(r.blocks)}
}

// NeedsSent reports how many need replies (resend requests for compact
// deltas with unresolvable hash refs) this receiver has issued.
func (r *Receiver) NeedsSent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.needsSent
}

// resolveBlock materializes a compact-delta hash ref as the chains' own
// frame for that content, with one reference taken for the arriving
// image: no bytes move.
func (r *Receiver) resolveBlock(h objstore.Hash) (*vm.Frame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.blocks[h]
	if ok {
		e.frame.Ref()
		r.resolved++
	}
	return e.frame, ok
}

// basePage copies page idx of object objID, as the group's chain holds
// it at epoch, into dst: the base a line entry of the next epoch is
// rebuilt on. It reports false when the chain lacks that epoch or the
// page.
func (r *Receiver) basePage(group, epoch, objID uint64, idx int64, dst []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	chain := r.chains[group]
	for i := len(chain) - 1; i >= 0 && chain[i].Epoch >= epoch; i-- {
		if chain[i].Epoch == epoch {
			data := chain[i].ResolvePage(objID, idx)
			clear(dst[copy(dst, data):])
			return data != nil
		}
	}
	return false
}

// AdoptImage implements core.ReplicaRepairTarget: read-repair after a
// quorum promotion gives this replica an epoch it missed. The image
// belongs to the member it was read from, so it is taken the way
// anything else arrives: decoded into frames of this receiver's own
// memory, then linked.
func (r *Receiver) AdoptImage(img *core.Image) error {
	own, err := core.DecodeDelta(img.EncodeDelta(), r.pm)
	if err != nil {
		return err
	}
	r.link(own)
	return nil
}

// link merges an arriving image into its group's chain and keeps the
// chain one base, the floor image and any images above a hole. A sender
// flushes a group's epochs in order, but catch-up after a partition and
// read-repair (AdoptImage) fill holes, and a retried flush delivers an
// epoch twice:
//   - an epoch at or below the base is already folded into it, and the
//     arrival is released;
//   - a re-delivered epoch supersedes the copy held, which is released,
//     and a full image supersedes every epoch below it;
//   - once the chain is in epoch order, every image below the contiguous
//     floor folds into the base (core.Fold): the floor image stays a
//     delta of its own — what Latest returns, a restore's metadata charge
//     is sized by, and the next epoch's line entries are rebuilt on — and
//     a fold costs what the folded deltas hold, not what the base does.
//
// The Prev links are rebuilt, so restores walk a consistent history.
func (r *Receiver) link(img *core.Image) {
	img.PageHashes() // the decoder hashed every arrival; anything else is hashed here, not under mu
	r.mu.Lock()
	defer r.mu.Unlock()
	if img.Gen > r.fences[img.Group] {
		r.fences[img.Group] = img.Gen
	}
	chain := r.chains[img.Group]
	if folded(chain, img.Epoch) {
		img.Release(r.pm)
		return
	}
	r.hold(img)
	kept := chain[:0]
	held := false
	for _, have := range chain {
		switch {
		case have.Epoch == img.Epoch:
			held = true
			r.drop(have)
		case img.Full && have.Epoch < img.Epoch:
			r.drop(have)
		default:
			kept = append(kept, have)
		}
	}
	if !held {
		r.linked[img.Group]++
	}
	kept = append(kept, img)
	for i := len(kept) - 1; i > 0 && kept[i-1].Epoch > kept[i].Epoch; i-- {
		kept[i-1], kept[i] = kept[i], kept[i-1]
	}
	floor := 0
	for floor+1 < len(kept) && kept[floor+1].Epoch == kept[floor].Epoch+1 {
		floor++
	}
	for i := 1; i < floor; i++ {
		core.Fold(kept[i-1], kept[i], r.shadowed)
	}
	if floor > 1 {
		kept = kept[:copy(kept, kept[floor-1:])]
	}
	if len(kept) < len(chain) {
		clear(chain[len(kept):]) // the array is kept's: let the released go
	}
	for i, im := range kept {
		switch {
		case im.Full:
		case i == 0:
			im.Prev = nil
		default:
			im.Prev = kept[i-1]
		}
	}
	r.chains[img.Group] = kept
}

// holdsFolded reports whether a group's base already holds epoch.
func (r *Receiver) holdsFolded(group, epoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return folded(r.chains[group], epoch)
}

// folded reports whether epoch is at or below a chain's base: the
// first of at least two contiguous images, so the state it held is
// already part of the state at the floor.
func folded(chain []*core.Image, epoch uint64) bool {
	return len(chain) > 1 && chain[1].Epoch == chain[0].Epoch+1 && epoch <= chain[0].Epoch
}

// Latest returns the newest image of a group.
func (r *Receiver) Latest(group uint64) (*core.Image, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	chain, ok := r.chains[group]
	if !ok || len(chain) == 0 {
		return nil, core.ErrNoImage
	}
	return chain[len(chain)-1], nil
}

// Groups lists groups with received state.
func (r *Receiver) Groups() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, 0, len(r.chains))
	for g := range r.chains {
		out = append(out, g)
	}
	return out
}

// The methods below make a Receiver a core.ReplicaSource: the view
// promotion consumes when this replica is elected the new primary.

// ImageAt returns the replica's image for (group, epoch), linked into
// its chain.
func (r *Receiver) ImageAt(group, epoch uint64) (*core.Image, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, img := range r.chains[group] {
		if img.Epoch == epoch {
			return img, nil
		}
	}
	return nil, fmt.Errorf("netback: replica holds no epoch %d of group %d: %w", epoch, group, core.ErrNoImage)
}

// ContiguousEpoch is the newest epoch with no holes below it — the
// replica's durable line, and the floor a promotion restores from.
func (r *Receiver) ContiguousEpoch(group uint64) uint64 {
	return r.lastContiguous(group)
}

// EpochsLinked counts the epochs of a group linked into its chain that
// the chain did not already hold — what a catch-up replayed to it,
// however much of it has since been folded.
func (r *Receiver) EpochsLinked(group uint64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.linked[group]
}

// ReplicaEpochs lists the epochs the group's chain holds, ascending:
// the base (the state at its epoch, every epoch below the floor folded
// into it), the floor and any epochs above a hole.
func (r *Receiver) ReplicaEpochs(group uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	chain := r.chains[group]
	out := make([]uint64, 0, len(chain))
	for _, img := range chain {
		out = append(out, img.Epoch)
	}
	return out
}

// FenceGen is the highest store generation witnessed in received
// images or adopted via AdoptFence for the group.
func (r *Receiver) FenceGen(group uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fences[group]
}

// AdoptFence raises the replica-side fence: deltas stamped with an
// older generation are answered with a fencing rejection instead of an
// ack (see ServeReplica). Raise-only; an older generation is ignored.
func (r *Receiver) AdoptFence(group, gen uint64) {
	r.mu.Lock()
	if gen > r.fences[group] {
		r.fences[group] = gen
	}
	r.mu.Unlock()
}
