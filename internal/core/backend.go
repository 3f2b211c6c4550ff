package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Backend errors.
var (
	ErrNoImage = errors.New("core: no checkpoint available")
)

// Backend receives checkpoint images. A persistence group may attach
// several backends at once (e.g. a local NVMe store plus a remote
// replica); an epoch is released for external consistency only when
// every backend has it.
//
// Flush is called concurrently by the background flush pipeline — for
// distinct images at once when the pipeline runs several epochs in
// parallel — and must be safe for that.
type Backend interface {
	// Name identifies the backend in the CLI.
	Name() string
	// Flush persists one image and returns the modeled flush time.
	Flush(img *Image) (time.Duration, error)
	// Load returns the image chain for (group, epoch); epoch 0 means
	// latest. Backends that cannot serve restores return ErrNoImage.
	Load(group, epoch uint64) (*Image, time.Duration, error)
	// Ephemeral backends (local memory) do not make data durable;
	// they do not satisfy external consistency on their own.
	Ephemeral() bool
}

// LaneBackend is implemented by backends that can charge their flush
// I/O to a detached clock lane, letting a background flush overlap the
// foreground virtual timeline instead of stalling it.
type LaneBackend interface {
	// WithLane returns a view of the backend that shares all state but
	// charges modeled costs to lane.
	WithLane(lane *storage.Clock) Backend
}

// MemoryBackend keeps images in RAM: the paper's local memory backend
// for debugging and speculative execution. It retains a bounded
// history per group.
type MemoryBackend struct {
	pm      *vm.PhysMem
	history int

	mu     sync.Mutex
	images map[uint64][]*Image // group -> epoch-ordered chain
}

// NewMemoryBackend creates a memory backend retaining up to history
// images per group (0 = unlimited).
func NewMemoryBackend(pm *vm.PhysMem, history int) *MemoryBackend {
	return &MemoryBackend{pm: pm, history: history, images: make(map[uint64][]*Image)}
}

// Name implements Backend.
func (mb *MemoryBackend) Name() string { return "memory" }

// Ephemeral implements Backend.
func (mb *MemoryBackend) Ephemeral() bool { return true }

// Flush implements Backend: retaining the image is free beyond a DRAM
// write of the metadata; the frames are shared, not copied. The chain
// stays epoch-sorted even when the pipeline completes epochs out of
// order. History trimming is deferred to Trim — merging an old image
// forward mutates its successor, which must not race with another
// worker still flushing that successor elsewhere.
func (mb *MemoryBackend) Flush(img *Image) (time.Duration, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	chain := mb.images[img.Group]
	// A Sync retry after another backend's failure re-delivers the same
	// epoch; replace rather than duplicate.
	replaced := false
	for i, have := range chain {
		if have.Epoch == img.Epoch {
			chain[i] = img
			replaced = true
			break
		}
	}
	if !replaced {
		chain = append(chain, img)
		for i := len(chain) - 1; i > 0 && chain[i-1].Epoch > chain[i].Epoch; i-- {
			chain[i-1], chain[i] = chain[i], chain[i-1]
		}
	}
	mb.images[img.Group] = chain
	return time.Duration(len(img.Meta)) * 100 * time.Nanosecond, nil
}

// Trim enforces the history bound for one group. The flush pipeline
// calls it at epoch retirement, when every image in the chain up to
// the retired epoch is quiescent.
func (mb *MemoryBackend) Trim(group uint64) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	chain := mb.images[group]
	for mb.history > 0 && len(chain) > mb.history {
		// Consolidate: the oldest image folds into the next one by
		// reference, mirroring the object store's in-place GC.
		Fold(chain[0], chain[1], func(_ PageHash, f *vm.Frame) { mb.pm.Free(f) })
		chain = chain[1:]
	}
	mb.images[group] = chain
}

// Load implements Backend.
func (mb *MemoryBackend) Load(group, epoch uint64) (*Image, time.Duration, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	chain := mb.images[group]
	if len(chain) == 0 {
		return nil, 0, fmt.Errorf("%w: group %d holds no images in memory", ErrNoImage, group)
	}
	if epoch == 0 {
		return chain[len(chain)-1], 0, nil
	}
	for _, img := range chain {
		if img.Epoch == epoch {
			return img, 0, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: group %d epoch %d", ErrNoImage, group, epoch)
}

// History lists the retained epochs of a group.
func (mb *MemoryBackend) History(group uint64) []uint64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	out := make([]uint64, 0, len(mb.images[group]))
	for _, img := range mb.images[group] {
		out = append(out, img.Epoch)
	}
	return out
}

// StoreBackend persists images into an object store on a device: the
// paper's locally persistent backend (NVMe flash or NVDIMM).
type StoreBackend struct {
	store *objstore.Store
	pm    *vm.PhysMem
	clock *storage.Clock
	// HistoryLimit bounds the per-group epoch history kept on disk
	// (0 = unlimited); older epochs are garbage collected in place,
	// after each flush, by the orchestrator that delivered it — it
	// knows which epochs live restores still read (trimHistory).
	HistoryLimit int
	// rec is the space-pressure reclaimer bound to this store (nil =
	// unbounded retention). Shared across WithLane views.
	rec *Reclaimer
	// onLane marks a WithLane view: its clock is a private lane.
	onLane bool
}

// NewStoreBackend wraps an object store as a checkpoint backend.
func NewStoreBackend(store *objstore.Store, pm *vm.PhysMem, clock *storage.Clock) *StoreBackend {
	return &StoreBackend{store: store, pm: pm, clock: clock}
}

// Name implements Backend.
func (sb *StoreBackend) Name() string {
	return fmt.Sprintf("store:%s", sb.store.Device().Params().Name)
}

// Ephemeral implements Backend.
func (sb *StoreBackend) Ephemeral() bool { return false }

// Store exposes the underlying object store.
func (sb *StoreBackend) Store() *objstore.Store { return sb.store }

// SetReclaimer binds a space-pressure reclaimer to this backend: epoch
// retirements poke it (Trim), ENOSPC flushes trigger its emergency
// path, and the checkpoint admission control consults its watermarks.
func (sb *StoreBackend) SetReclaimer(r *Reclaimer) { sb.rec = r }

// Reclaimer returns the bound reclaimer (nil when none).
func (sb *StoreBackend) Reclaimer() *Reclaimer { return sb.rec }

// Trim implements the flush pipeline's trimmer hook: every epoch
// retirement is a chance to fold history forward. With a reclaimer
// attached this is watermark-driven (a no-op below the low watermark);
// without one it does nothing — HistoryLimit-based trimming already
// ran right after the flush.
func (sb *StoreBackend) Trim(group uint64) {
	if sb.rec != nil {
		sb.rec.Scan()
	}
}

// WithLane implements LaneBackend: the view shares the store's index
// and device state but charges hash and I/O costs to lane.
func (sb *StoreBackend) WithLane(lane *storage.Clock) Backend {
	return &StoreBackend{
		store:        sb.store.WithClock(lane),
		pm:           sb.pm,
		clock:        lane,
		onLane:       true,
		HistoryLimit: sb.HistoryLimit,
		rec:          sb.rec,
	}
}

// imagePages hands one object's captured pages to the store as an
// objstore.PageSet: sums is the object's run of Image.PageHashes, so
// the pages come in ascending index with the hashes the image already
// holds.
type imagePages struct {
	mi   *MemImage
	sums []PageHash
}

func (p *imagePages) Len() int { return len(p.sums) }

func (p *imagePages) Page(i int) (int64, []byte, objstore.Hash) {
	return p.sums[i].Idx, p.mi.PageData(p.sums[i].Idx), p.sums[i].Hash
}

// Flush implements Backend: every metadata record and captured page
// becomes an object-store record, and the manifest is put once all of
// them have landed. The epoch goes to the store as one ordered batch —
// metadata records in image order, then VM objects by ascending ID,
// each object's pages by ascending index with the content hash from
// Image.PageHashes, which every backend of the group shares — so a
// seed, not a map iteration, decides where blocks are placed, and the
// store hashes nothing itself. The batch is issued inside one
// objstore.Store.Overlapped window: one device write per new block and
// per metadata extent, charged to the flush lane as storage.Batch of
// all of them at the device's queue depth; costs.HashPage is charged
// per page on top. The modeled duration is what the lane advanced by.
//
// The flush pipeline always calls Flush on a lane view (WithLane). A
// direct call on the backend itself — promotion and migration backfill
// — runs on a lane of the caller's clock and merges it back, so every
// flush is issued, and costs, the same way.
func (sb *StoreBackend) Flush(img *Image) (time.Duration, error) {
	if !sb.onLane {
		lane := sb.clock.Lane()
		d, err := sb.WithLane(lane).Flush(img)
		sb.clock.AdvanceTo(lane.Now())
		return d, err
	}
	sw := sb.clock.Watch()
	// Fence check: a flush stamped with a store generation behind the
	// lineage's fence comes from a stale primary superseded by a
	// promotion; reject it before any state changes. A newer
	// generation is adopted as the new fence (the catch-up path).
	if err := sb.store.CheckGen(img.Group, img.Gen); err != nil {
		var floor uint64
		if m, merr := sb.store.LatestManifest(img.Group); merr == nil {
			floor = m.Epoch
		}
		return 0, &FenceError{Gen: sb.store.FenceGen(img.Group), Floor: floor, Err: err}
	}
	if img.Released() {
		// Its frames belong to someone else by now; the hashes it may
		// still remember name bytes it no longer has.
		return 0, fmt.Errorf("%w: epoch %d of group %d was released before this flush", ErrNoImage, img.Epoch, img.Group)
	}
	keys := make([]objstore.RecordKey, 0, len(img.Meta)+len(img.Memory))
	err := sb.store.Overlapped(func() error {
		for _, m := range img.Meta {
			if _, err := sb.store.PutRecord(img.Group, m.OID, img.Epoch, uint16(m.Kind), img.Full, m.Data, nil, nil); err != nil {
				return err
			}
			keys = append(keys, objstore.RecordKey{Group: img.Group, OID: m.OID, Epoch: img.Epoch})
		}
		sums := img.PageHashes()
		var pages imagePages
		for _, id := range img.objectOrder() {
			n := 0
			for n < len(sums) && sums[n].ObjID == id {
				n++
			}
			pages.mi, pages.sums, sums = img.Memory[id], sums[:n], sums[n:]
			meta := encodeVMObjMeta(pages.mi)
			if _, err := sb.store.PutPages(img.Group, vmBit|id, img.Epoch, uint16(kernel.KindVMObject), img.Full, meta, &pages, pages.mi.Heat); err != nil {
				return err
			}
			keys = append(keys, objstore.RecordKey{Group: img.Group, OID: vmBit | id, Epoch: img.Epoch})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var prev uint64
	if img.Prev != nil {
		prev = img.Prev.Epoch
	}
	sb.store.PutManifest(&objstore.Manifest{
		Group:   img.Group,
		Epoch:   img.Epoch,
		Name:    img.Name,
		Records: keys,
		Roots:   img.Roots,
		Prev:    prev,
	})
	return sw.Elapsed(), nil
}

// Load implements Backend: it reads the checkpoint back from the
// store, reconstructing a standalone full image. The returned duration
// is the object-store read time of Table 4. Every block read is
// verified against its content hash, so a successfully loaded image is
// validated end to end.
func (sb *StoreBackend) Load(group, epoch uint64) (*Image, time.Duration, error) {
	return sb.load(group, epoch, false)
}

// LoadLazy reads the checkpoint's metadata but leaves page data in the
// store, behind its live page view (MemImage.View): restore attaches a
// fault-tolerant demand-paging source instead of materializing bytes.
// This is what makes lazy restores actually lazy at the device level —
// and what makes a mid-restore backend failure survivable, because
// each faulted page can fail over to a peer.
func (sb *StoreBackend) LoadLazy(group, epoch uint64) (*Image, time.Duration, error) {
	return sb.load(group, epoch, true)
}

func (sb *StoreBackend) load(group, epoch uint64, lazy bool) (*Image, time.Duration, error) {
	sw := sb.clock.Watch()
	var m *objstore.Manifest
	var err error
	if epoch == 0 {
		m, err = sb.store.LatestManifest(group)
	} else {
		m, err = sb.store.Manifest(group, epoch)
	}
	if err != nil {
		// Wrap both: callers match ErrNoImage or the store's own error.
		return nil, 0, fmt.Errorf("%w: group %d epoch %d: %w", ErrNoImage, group, epoch, err)
	}

	img := &Image{
		Group:  group,
		Epoch:  m.Epoch,
		Name:   m.Name,
		Full:   true,
		Memory: make(map[uint64]*MemImage),
		Roots:  m.Roots,
	}
	// Collect the effective record set along the chain.
	seen := make(map[uint64]bool)
	idxBytes := 0
	for cur := m; cur != nil; {
		for _, key := range cur.Records {
			if seen[key.OID] {
				continue
			}
			seen[key.OID] = true
			rec, err := sb.store.GetRecord(group, key.OID, key.Epoch)
			if err != nil {
				return nil, 0, err
			}
			if key.OID&vmBit != 0 {
				mi, err := sb.loadObject(group, key.OID, m.Epoch, lazy)
				if err != nil {
					return nil, 0, err
				}
				img.Memory[mi.ObjID] = mi
				idxBytes += 64 + 40*mi.View.Len()
			} else {
				meta, kind, err := sb.store.ResolveMeta(group, key.OID, m.Epoch)
				if err != nil {
					return nil, 0, err
				}
				img.Meta = append(img.Meta, MetaRec{OID: key.OID, Kind: kernel.Kind(kind), Data: meta})
				idxBytes += 64 + len(meta)
				_ = rec
			}
		}
		if cur.Prev == 0 {
			break
		}
		next, err := sb.store.Manifest(group, cur.Prev)
		if err != nil {
			break
		}
		cur = next
	}
	if lazy {
		img.source = sb
		// A lazy load defers the data blocks but still reads the
		// persisted index entries that locate them: bill that.
		sb.store.ChargeIndexRead(idxBytes)
	}
	return img, sw.Elapsed(), nil
}

// loadObject reads one VM object's resolved pages into a MemImage:
// bytes for eager loads, the store's page view for lazy ones.
func (sb *StoreBackend) loadObject(group, oid, epoch uint64, lazy bool) (*MemImage, error) {
	meta, _, err := sb.store.ResolveMeta(group, oid, epoch)
	if err != nil {
		return nil, err
	}
	mi, err := decodeVMObjMeta(meta)
	if err != nil {
		return nil, err
	}
	if lazy {
		if mi.View, mi.Heat, err = sb.store.ResolveView(group, oid, epoch); err != nil {
			return nil, err
		}
		return mi, nil
	}
	pages, heat, err := sb.store.ResolvePages(group, oid, epoch)
	if err != nil {
		return nil, err
	}
	mi.Heat = heat
	idxs := make([]int64, 0, len(pages))
	refs := make([]objstore.BlockRef, 0, len(pages))
	for idx, ref := range pages {
		idxs = append(idxs, idx)
		refs = append(refs, ref)
	}
	// One batched read: the device overlaps the blocks at queue depth.
	data, err := sb.store.ReadBlocks(refs)
	if err != nil {
		return nil, err
	}
	mi.SwapData = make(map[int64][]byte, len(pages))
	for i, idx := range idxs {
		mi.SwapData[idx] = data[i]
	}
	return mi, nil
}

// Validate verifies every block a restore of (group, epoch) would
// touch against its manifest content hash, without materializing
// anything. This is the restore-validation pre-pass behind
// RestoreOpts.Validate.
func (sb *StoreBackend) Validate(group, epoch uint64) error {
	return sb.store.VerifyEpoch(group, epoch)
}

// Epochs lists the checkpoint epochs this store holds for a group,
// oldest first.
func (sb *StoreBackend) Epochs(group uint64) []uint64 {
	ms := sb.store.Manifests(group)
	out := make([]uint64, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Epoch)
	}
	return out
}

// epochUsable checks that an explicitly requested epoch exists and is
// not quarantined.
func (sb *StoreBackend) epochUsable(group, epoch uint64) (uint64, error) {
	if _, err := sb.store.Manifest(group, epoch); err != nil {
		return 0, fmt.Errorf("%w: group %d epoch %d: %w", ErrNoImage, group, epoch, err)
	}
	if sb.store.IsQuarantined(group, epoch) {
		return 0, fmt.Errorf("%w: group %d epoch %d", ErrEpochQuarantined, group, epoch)
	}
	return epoch, nil
}

// latestGoodEpoch returns the newest non-quarantined epoch of a group,
// strictly below `below` when below is nonzero.
func (sb *StoreBackend) latestGoodEpoch(group, below uint64) (uint64, error) {
	m, err := sb.store.LatestGoodManifest(group, below)
	if err != nil {
		return 0, fmt.Errorf("%w: group %d has no usable epoch: %w", ErrNoImage, group, err)
	}
	return m.Epoch, nil
}

// FetchBlock implements BlockProvider: a store backend can serve any
// group's blocks to a failing peer by content hash.
func (sb *StoreBackend) FetchBlock(h objstore.Hash) ([]byte, bool) {
	return sb.store.FetchBlock(h)
}

func encodeVMObjMeta(mi *MemImage) []byte {
	e := kernel.NewEncoder()
	e.U64(mi.ObjID)
	e.Str(mi.Name)
	e.I64(mi.Size)
	return e.Bytes()
}

func decodeVMObjMeta(meta []byte) (*MemImage, error) {
	d := kernel.NewDecoder(meta)
	mi := &MemImage{
		ObjID: d.U64(),
		Name:  d.Str(),
		Size:  d.I64(),
		Pages: make(map[int64]*vm.Frame),
	}
	if err := d.Finish("vmobject meta"); err != nil {
		return nil, err
	}
	return mi, nil
}
