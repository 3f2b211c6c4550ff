// Package objstore implements Aurora's copy-on-write object store:
// the on-disk half of the single level store.
//
// The store keeps *records* — one per kernel object per checkpoint
// epoch — consisting of a metadata extent plus page-sized data blocks.
// Its three properties come straight from the paper:
//
//   - a COW layout cheap enough for hundreds of checkpoints per second
//     (appending records never rewrites old ones, unlike WAFL/ZFS
//     snapshots);
//   - content-hash deduplication of data blocks, across epochs and
//     across unrelated applications (this is what lets serverless
//     functions be stored as small deltas over a shared runtime
//     image); and
//   - in-place garbage collection: dropping an old epoch merges its
//     still-live pages forward into the next epoch by reference, never
//     rewriting data.
//
// All index structures also serialize to the device (Sync/Open), so a
// store survives the crash-restart cycle that the SLS exists to hide.
package objstore

import (
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Errors returned by the store.
var (
	ErrNoRecord   = errors.New("objstore: no such record")
	ErrNoManifest = errors.New("objstore: no such checkpoint")
	ErrBadMagic   = errors.New("objstore: bad superblock magic")
	// ErrCorruptBlock marks a block whose device contents no longer
	// match its content hash: silent media rot caught at read time.
	ErrCorruptBlock = errors.New("objstore: block content hash mismatch")
	// ErrStoreFull marks an operation refused because the backing device
	// is out of space. It always wraps storage.ErrOutOfSpace, so callers
	// can match either sentinel. A full store is degraded, not broken:
	// reclaiming epochs and retrying is the expected response.
	ErrStoreFull = errors.New("objstore: store device full")
)

// wrapSpace tags device out-of-space errors with ErrStoreFull so the
// flush pipeline can distinguish "no room" (reclaim and retry) from
// media failure (degrade toward down).
func wrapSpace(err error) error {
	if err != nil && errors.Is(err, storage.ErrOutOfSpace) {
		return fmt.Errorf("%w: %w", ErrStoreFull, err)
	}
	return err
}

// BlockSize is the data block granularity: one VM page.
const BlockSize = vm.PageSize

// superblock layout constants. Two alternating slots hold generation-
// stamped, checksummed superblocks so a torn publish falls back to the
// previous good generation (see persist.go).
const (
	magic     = 0x41555253 // "AURS"
	sbVersion = 6          // adds line entries to records
	sbSize    = 64         // one superblock slot
	sbSlot0   = 0          // even generations
	sbSlot1   = 512        // odd generations
	dataStart = 4096       // first allocatable byte
)

// Hash is the content hash of a data block.
type Hash [32]byte

// BlockRef locates one deduplicated data block on the device.
type BlockRef struct {
	Off  int64
	Hash Hash
}

// RecordKey identifies a record: one object of one persistence group
// at one checkpoint epoch. Group scoping matters on shared stores —
// a store holding both its own primaries and backfilled chains from
// other machines sees the same small kernel OIDs and epoch numbers
// from unrelated lineages, and an unscoped key would let one group's
// flush silently overwrite another's records.
type RecordKey struct {
	Group uint64
	OID   uint64
	Epoch uint64
}

// compareKeys orders record keys by group, object, then epoch.
func compareKeys(a, b RecordKey) int {
	return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.OID, b.OID), cmp.Compare(a.Epoch, b.Epoch))
}

// Record is the persisted form of one kernel object at one epoch.
type Record struct {
	Group uint64
	OID   uint64
	Epoch uint64
	Kind  uint16
	// Full marks a record carrying the object's complete page set;
	// otherwise Pages is a delta over the previous epoch's record.
	Full bool
	// visible memoises, plus one, how many distinct pages the chain that
	// starts at this record holds (0 = not counted yet; see
	// visibleLocked). Never persisted.
	visible int32
	// Meta is the object's serialized metadata.
	Meta []byte
	// Pages is the record's pages, one entry each, in ascending page
	// index; lookups search it (find).
	Pages []PageEntry
	// Heat is the access counts used for restore prefetch, in ascending
	// page order: every non-zero counter in a full record, those touched
	// since the previous epoch in a delta (vm.CheckpointSet.Heat). The
	// store owns the slice — a put copies it in — because merge-forward
	// folds it into its heir's in place.
	Heat []vm.PageHeat

	metaOff int64
	metaLen int
}

// PageEntry is one page of a record. Ref is the page's block — or, for a
// line entry (lines.go), its patch's offset — and the page's content
// hash. A line entry also holds its base block and its mask, unexported
// so that no caller mistakes a patch for a block.
type PageEntry struct {
	Idx  int64
	Ref  BlockRef
	base *blockEntry // a line entry's base; nil for a block
	mask uint64
}

// held is the block the entry holds its reference on: its own, or a
// line entry's base.
func (p *PageEntry) held() Hash {
	if p.base != nil {
		return p.base.ref.Hash
	}
	return p.Ref.Hash
}

// PageBytes is one page of an object: its index and its bytes, read
// back — or, for a page a view lists (PageView.Pages), no bytes and the
// content hash the index has for it.
type PageBytes struct {
	Idx  int64
	Data []byte
	Hash Hash
}

func byIdx(a, b PageEntry) int { return cmp.Compare(a.Idx, b.Idx) }

// find locates page idx in a run of entries: by index arithmetic when
// the run is dense (entry i is page first+i, as a full record of an
// object with no holes is), by binary search otherwise.
func find(pages []PageEntry, idx int64) (int, bool) {
	if n := len(pages); n > 0 && pages[n-1].Idx-pages[0].Idx == int64(n-1) {
		if i := idx - pages[0].Idx; i >= 0 && i < int64(n) {
			return int(i), true
		}
	}
	return slices.BinarySearchFunc(pages, idx, func(p PageEntry, idx int64) int { return cmp.Compare(p.Idx, idx) })
}

// Manifest describes one checkpoint of one persistence group.
type Manifest struct {
	Group   uint64
	Epoch   uint64
	Name    string // optional user-visible checkpoint name
	Records []RecordKey
	// Roots lists the OIDs of the group's processes, the entry points
	// for restore.
	Roots []uint64
	// Prev is the previous epoch in this group's history (0 = none).
	Prev uint64
}

// Stats summarizes store occupancy for the density experiments.
type Stats struct {
	Records      int
	Manifests    int
	Blocks       int   // distinct physical blocks
	BlockBytes   int64 // physical bytes in data blocks
	LogicalBytes int64 // bytes all records reference (pre-dedup)
	MetaBytes    int64
	DedupHits    int64 // pages put whose content an existing block held
	// PagesHashed counts the pages whose content hash the put path
	// computed itself (PutRecord, PutRecordMixed). Pages put with their
	// hash supplied (PutPages) add nothing: a flush that hashes here
	// what the image already hashed shows up as a non-zero delta.
	PagesHashed   int64
	BlocksFreed   int64
	EpochsDropped int64
	// LinePages counts the live line entries: pages stored as a base
	// block and a patch of the lines written since (lines.go); LineBytes
	// is their patches' bytes.
	LinePages int64
	LineBytes int64
	// LiveBytes is the physical footprint pinned by retained state:
	// referenced data blocks, line entries' patches and record
	// metadata. It cannot be reclaimed without dropping epochs.
	LiveBytes int64
	// ReclaimableBytes counts freed blocks still resident on the device
	// (on the free list but not yet TRIMmed): space a ReleaseSpace call
	// returns to the device without touching any retained epoch.
	ReclaimableBytes int64
	// PackBlocks counts device blocks shared by multiple small record
	// metadata extents (sub-block packing). Without packing, every
	// record costs a full block of metadata, which is what used to make
	// N clones of one deduped image cost N blocks each instead of ~0.
	PackBlocks int
	// PacksCompacted counts sparse pack blocks emptied by compaction:
	// blocks whose few surviving extents were rewritten elsewhere so
	// the block could return to the free list.
	PacksCompacted int64
}

type blockEntry struct {
	ref  BlockRef
	refs int32
}

// storeCore is the shared index state behind a Store and all of its
// clock-redirected views: one set of records, blocks, and locks.
type storeCore struct {
	mu       sync.Mutex
	syncMu   sync.Mutex // serializes Sync's write-index/publish protocol
	nextOff  int64
	freeList []int64 // freed block offsets, reusable in place
	// trimmedFree splits freeList: entries [0:trimmedFree) have been
	// TRIMmed off the device (non-resident, still reusable), entries
	// [trimmedFree:) are freed but still resident. Not persisted: a
	// remount conservatively treats every free block as resident.
	trimmedFree int
	// idxHist tracks the extents holding the last two published index
	// generations. Slot parity means generation N overwrites N-2's
	// superblock header, so once N publishes, N-2's index extent can
	// never be needed by crash fallback again and is freed.
	idxHist []extent
	blocks  map[Hash]*blockEntry
	// inflight counts, per block, the references held by puts whose
	// record is not registered yet (see holdLocked). The reachability
	// audit needs it to stay an equality while a flush is in progress.
	inflight  map[Hash]int32
	records   map[RecordKey]*Record
	manifests map[uint64][]*Manifest // group -> epoch-sorted manifests
	named     map[string]manifestID  // checkpoint name -> manifest
	// quarantined marks epochs that failed restore validation; they
	// are skipped by fallback resolution and persisted by Sync.
	quarantined map[manifestID]string
	// fences maps a lineage (original group ID) to the highest store
	// generation witnessed there and whether this store is the
	// lineage's primary (see fence.go).
	fences map[uint64]fenceEntry
	sbGen  uint64 // superblock generation last published
	stats  Stats
	// label is the store's placement identity (see labels.go). In-memory
	// only: the placer re-labels stores when it adopts them, and a store
	// that moves hosts should take its new home's domain, not its old one.
	label struct {
		name   string
		domain string
	}

	// Sub-block metadata packing: record metadata smaller than a block
	// bump-allocates inside a shared pack block instead of consuming a
	// whole one. packOff/packUsed describe the currently open pack
	// block; packLive counts the live extents inside every pack block
	// (keyed by block base offset) so a pack block returns to the free
	// list exactly when its last extent dies. Not persisted: rebuilt
	// from record extents on Open, which also classifies pre-packing
	// whole-block small extents as single-occupant packs with the same
	// free-at-zero behavior.
	packOff  int64
	packUsed int
	packLive map[int64]int

	// Line entries' patches live in slabs: blocks cut into slots for
	// the patches of one line count (lines.go). openSlabs lists, per
	// line count, the slabs with a free slot, ascending. A slot comes
	// back when its entry dies and a slab goes to the free list with its
	// last slot, so patch space is reused in place. Not persisted:
	// rebuilt from the line entries on Open.
	slabs     map[int64]slab
	openSlabs [lineBound][]int64
}

// Store is the object store over one device: the root handle Create and
// Open return, or a view of it (WithClock). A Store holds a clock by
// value and must not be copied.
type Store struct {
	*storeCore
	dev   storage.Device
	clock *storage.Clock
	costs storage.CostModel

	// A view's device bills scratch, not the lane: after every device
	// operation the view takes what was billed (billed) and either
	// advances its lane by it or, inside an Overlapped window, adds it
	// to the window. The root handle's device bills the clock it was
	// built on directly and scratch stays at zero.
	scratch storage.Clock
	overlap struct {
		open bool
		n    int           // device operations issued in the window
		sum  time.Duration // what they cost one at a time
	}
}

type manifestID struct {
	Group uint64
	Epoch uint64
}

// extent is a variable-length allocation on the device.
type extent struct {
	off int64
	n   int
}

// Create initializes an empty store on dev.
func Create(dev storage.Device, clock *storage.Clock) *Store {
	return &Store{
		storeCore: &storeCore{
			nextOff:     dataStart,
			blocks:      make(map[Hash]*blockEntry),
			inflight:    make(map[Hash]int32),
			records:     make(map[RecordKey]*Record),
			manifests:   make(map[uint64][]*Manifest),
			named:       make(map[string]manifestID),
			quarantined: make(map[manifestID]string),
			fences:      make(map[uint64]fenceEntry),
			packLive:    make(map[int64]int),
			slabs:       make(map[int64]slab),
		},
		dev:   dev,
		clock: clock,
		costs: storage.DefaultCosts,
	}
}

// WithClock returns a view of the store that shares the full index and
// block state but charges hash and device costs to c. Background flush
// lanes use this so a flush overlapping the application's timeline does
// not inflate the foreground clock. A view is one timeline: it is meant
// for one goroutine at a time, like the lane it charges.
func (s *Store) WithClock(c *storage.Clock) *Store {
	v := &Store{storeCore: s.storeCore, clock: c, costs: s.costs}
	v.dev = storage.Redirect(s.dev, &v.scratch)
	return v
}

// billed accounts for the device operation just issued.
func (s *Store) billed() {
	d := s.scratch.Drain()
	switch {
	case s.overlap.open:
		s.overlap.n++
		s.overlap.sum += d
	case d > 0 && s.clock != nil:
		s.clock.Advance(d)
	}
}

func (s *Store) devRead(p []byte, off int64) error {
	_, err := s.dev.ReadAt(p, off)
	s.billed()
	return err
}

func (s *Store) devWrite(p []byte, off int64) error {
	_, err := s.dev.WriteAt(p, off)
	s.billed()
	return err
}

func (s *Store) devSync() error {
	_, err := s.dev.Sync()
	s.billed()
	return err
}

// Overlapped runs issue with the view's device operations overlapped at
// the device queue depth: each is still issued as its own call, in
// program order — a fault-injecting or tracing device sees the sequence
// it always saw — but the lane is charged once, when issue returns, for
// all n of them: storage.Batch(Params(), n, their mean cost). Hash
// costs are CPU time and stay charged as they occur. On the root handle
// the device has billed its own clock call by call before the store
// sees a duration, so there the window holds nothing and changes
// nothing: overlap needs a lane to be charged to (see
// core.StoreBackend.Flush).
func (s *Store) Overlapped(issue func() error) error {
	s.overlap.open = true
	err := issue()
	if n := s.overlap.n; n > 0 && s.clock != nil {
		s.clock.Advance(storage.Batch(s.dev.Params(), n, s.overlap.sum/time.Duration(n)))
	}
	s.overlap.open, s.overlap.n, s.overlap.sum = false, 0, 0
	return err
}

// Device exposes the backing device (used by the harness for stats).
func (s *Store) Device() storage.Device { return s.dev }

// Stats returns a snapshot of the occupancy counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.records)
	st.Blocks = len(s.blocks)
	st.BlockBytes = int64(len(s.blocks)) * BlockSize
	st.LiveBytes = st.BlockBytes + st.MetaBytes + st.LineBytes
	st.ReclaimableBytes = int64(len(s.freeList)-s.trimmedFree) * BlockSize
	st.PackBlocks = len(s.packLive)
	n := 0
	for _, ms := range s.manifests {
		n += len(ms)
	}
	st.Manifests = n
	return st
}

// Usage reports the device occupancy the watermark scheduler acts on:
// resident bytes, the device capacity (0 = unbounded), and their ratio
// (0 when the device is unbounded or cannot report residency).
func (s *Store) Usage() (used, capacity int64, frac float64) {
	capacity = s.dev.Params().Capacity
	used = storage.ResidentBytes(s.dev)
	if used < 0 {
		// The device cannot report residency; approximate with the
		// allocation high-water mark minus resident free blocks.
		s.mu.Lock()
		used = s.nextOff - int64(len(s.freeList)-s.trimmedFree)*BlockSize
		s.mu.Unlock()
	}
	if capacity > 0 {
		frac = float64(used) / float64(capacity)
	}
	return used, capacity, frac
}

// ReleaseSpace TRIMs every freed-but-resident block off the device and
// returns the number of bytes released. The offsets stay on the free
// list — reuse simply re-materializes them. No-op on devices without
// TRIM support.
func (s *Store) ReleaseSpace() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.freeList) - s.trimmedFree
	if n <= 0 {
		return 0
	}
	for _, off := range s.freeList[s.trimmedFree:] {
		storage.DiscardRange(s.dev, off, BlockSize)
	}
	s.trimmedFree = len(s.freeList)
	return int64(n) * BlockSize
}

// controlReserveLocked is the device tail held back from data-path
// allocation so Sync can always publish: room for one more index
// snapshot (sized from the last generation published, doubled for
// growth) plus slack for the superblock slots. A full device must
// degrade the data plane — checkpoint writes fail typed and get
// retried after reclamation — never the control plane, or a fence or
// generation write could be starved by checkpoint history at exactly
// the moment a failover depends on it.
func (s *Store) controlReserveLocked() int64 {
	reserve := int64(4 * BlockSize)
	if n := len(s.idxHist); n > 0 {
		sz := int64((s.idxHist[n-1].n + BlockSize - 1) &^ (BlockSize - 1))
		reserve += 2 * sz
	}
	return reserve
}

// ControlOverhead reports the control-plane bytes the store holds back
// from data-path allocations: superblock slots plus room to publish two
// index generations at their current size. Device-sizing code must add
// this on top of data-footprint estimates — it never amortizes into
// per-epoch growth, which matters once sub-block metadata packing makes
// that growth small.
func (s *Store) ControlOverhead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.controlReserveLocked()
}

// dataGrowthLocked reports whether the next single-block allocation
// would grow device residency (bump allocation or re-materializing a
// trimmed block) instead of reusing a resident free block.
func (s *Store) dataGrowthLocked() bool {
	return len(s.freeList) == s.trimmedFree
}

// dataRoomLocked refuses a data-path allocation of need bytes once a
// bounded device's remaining space is down to the control-plane
// reserve. The error wraps ErrStoreFull, so callers reclaim and retry
// exactly as for a physically full device.
func (s *Store) dataRoomLocked(need int64) error {
	capacity := s.dev.Params().Capacity
	if capacity == 0 {
		return nil
	}
	used := storage.ResidentBytes(s.dev)
	if used < 0 {
		return nil
	}
	if used+need > capacity-s.controlReserveLocked() {
		return fmt.Errorf("%w: %d bytes held back as control-plane reserve: %w",
			ErrStoreFull, s.controlReserveLocked(), storage.ErrOutOfSpace)
	}
	return nil
}

// allocBlock returns a device offset for one block, reusing freed
// space in place when available. Resident free blocks (the list's
// tail) are preferred so reuse never has to re-grow the device.
func (s *Store) allocBlock() int64 {
	if n := len(s.freeList); n > 0 {
		off := s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		if s.trimmedFree > n-1 {
			s.trimmedFree = n - 1
		}
		return off
	}
	off := s.nextOff
	s.nextOff += BlockSize
	return off
}

// allocExtent reserves a variable-sized metadata extent. Single-block
// extents (almost every record's metadata) reuse the free list; larger
// extents need contiguity and bump-allocate.
func (s *Store) allocExtent(n int) int64 {
	need := int64((n + BlockSize - 1) &^ (BlockSize - 1))
	if need == BlockSize && len(s.freeList) > 0 {
		return s.allocBlock()
	}
	off := s.nextOff
	s.nextOff += need
	return off
}

// packAllocLocked places a small metadata extent inside a shared pack
// block, opening a new one when the current block is full (or none is
// open). The caller guarantees 0 < n < BlockSize. Packing is what
// makes cross-group dedup pay off at fleet scale: a thousand clones of
// one image dedup their data blocks to a single copy, and their
// per-record metadata — ~tens of bytes each — shares blocks instead of
// burning a full block per clone per object.
func (s *Store) packAllocLocked(n int) (int64, error) {
	if s.packOff == 0 || s.packUsed+n > BlockSize {
		if s.dataGrowthLocked() {
			if err := s.dataRoomLocked(BlockSize); err != nil {
				return 0, err
			}
		}
		if old := s.packOff; old != 0 && s.packLive[old] == 0 {
			// Everything packed into the retiring block already died.
			delete(s.packLive, old)
			s.freeList = append(s.freeList, old)
		}
		s.packOff = s.allocBlock()
		s.packUsed = 0
		s.packLive[s.packOff] = 0
	}
	off := s.packOff + int64(s.packUsed)
	s.packUsed += n
	s.packLive[s.packOff]++
	return off, nil
}

// freeExtentLocked returns an extent's blocks to the free list, where
// data-block and metadata allocations both draw from. Without this,
// record metadata and index generations leak device space forever —
// fatal on a bounded device. Packed extents (recognized by their block
// base holding a pack refcount — index extents and large metadata are
// never packed) only release their block once every co-packed extent
// has died.
func (s *Store) freeExtentLocked(off int64, n int) {
	if off < dataStart || n <= 0 {
		return
	}
	if n < BlockSize {
		base := off &^ (BlockSize - 1)
		if live, ok := s.packLive[base]; ok {
			live--
			switch {
			case live <= 0 && base == s.packOff:
				// The open pack block emptied out: rewind the bump
				// allocator and keep filling it. No extent can be in
				// flight here — unregistered extents hold a live count.
				s.packLive[base] = 0
				s.packUsed = 0
			case live <= 0:
				delete(s.packLive, base)
				s.freeList = append(s.freeList, base)
			default:
				s.packLive[base] = live
			}
			return
		}
	}
	end := off + int64((n+BlockSize-1)&^(BlockSize-1))
	for o := off; o < end; o += BlockSize {
		s.freeList = append(s.freeList, o)
	}
}

// CompactPacks rewrites the surviving small-metadata extents out of
// sparse pack blocks so they can be freed. Packing shares one block
// between many records' metadata; epoch reclamation then frees those
// extents in whatever order history dies, and a block stays pinned as
// long as one co-packed extent lives. On a long-running bounded device
// that fragmentation accumulates — the reclaimer can drop every epoch
// retention allows and still find the space locked inside half-dead
// pack blocks. Compaction moves each victim block's live extents into
// the open pack block and returns the emptied victims to the free
// list. It reports the number of pack blocks freed.
//
// Only blocks whose live-extent count is fully accounted for by
// registered records are touched: an in-flight PutRecord holds a pack
// extent before the record is registered, and such a block is skipped
// rather than compacted underneath the writer. The open pack block is
// never a victim. Metadata is rewritten from the in-memory copy; the
// published index carries the bytes too, so a crash between the move
// and the next index sync recovers from the superblock as usual.
func (s *Store) CompactPacks() int64 {
	type move struct {
		key  RecordKey
		base int64
	}
	s.mu.Lock()
	byBase := make(map[int64][]*Record)
	for _, rec := range s.records {
		if rec.metaLen+1 >= BlockSize || rec.metaOff < dataStart {
			continue
		}
		base := rec.metaOff &^ (BlockSize - 1)
		if _, ok := s.packLive[base]; ok {
			byBase[base] = append(byBase[base], rec)
		}
	}
	var moves []move
	victims := make(map[int64]bool)
	for base, recs := range byBase {
		if base == s.packOff || len(recs) != s.packLive[base] {
			continue
		}
		live := 0
		for _, rec := range recs {
			live += rec.metaLen + 1
		}
		if live*2 >= BlockSize {
			continue
		}
		victims[base] = true
		for _, rec := range recs {
			moves = append(moves, move{RecordKey{rec.Group, rec.OID, rec.Epoch}, base})
		}
	}
	s.mu.Unlock()
	slices.SortFunc(moves, func(a, b move) int {
		return cmp.Or(cmp.Compare(a.base, b.base), compareKeys(a.key, b.key))
	})

	freed := int64(0)
	for _, mv := range moves {
		s.mu.Lock()
		rec, ok := s.records[mv.key]
		if !ok || rec.metaOff&^(BlockSize-1) != mv.base {
			// Dropped or already moved since the plan was taken.
			s.mu.Unlock()
			continue
		}
		off, err := s.packAllocLocked(rec.metaLen + 1)
		if err != nil {
			// No room to open a fresh pack block: compaction needs one
			// block of headroom, which an emergency drop pass normally
			// provides. Abort; the old extents stay valid.
			s.mu.Unlock()
			return freed
		}
		meta := rec.Meta
		s.mu.Unlock()
		if len(meta) > 0 {
			if err := s.devWrite(meta, off); err != nil {
				s.mu.Lock()
				s.freeExtentLocked(off, rec.metaLen+1)
				s.mu.Unlock()
				continue
			}
		}
		s.mu.Lock()
		s.freeExtentLocked(rec.metaOff, rec.metaLen+1)
		rec.metaOff = off
		if victims[mv.base] {
			if _, alive := s.packLive[mv.base]; !alive {
				// That free emptied the victim block.
				delete(victims, mv.base)
				s.stats.PacksCompacted++
				freed++
			}
		}
		s.mu.Unlock()
	}
	return freed
}

// ContentHash is the content hash the store indexes a page by: the
// SHA-256 of the page as a block — zero-padded when shorter, cut when
// longer. Everything that names a page by hash (Image.PageHashes, the
// put path, verified reads) goes through this one rule.
func ContentHash(p []byte) Hash {
	if len(p) == BlockSize {
		return sha256.Sum256(p)
	}
	var block [BlockSize]byte
	copy(block[:], p)
	return sha256.Sum256(block[:])
}

// HashPage computes the dedup hash of a page, charging the hash cost.
func (s *Store) HashPage(p []byte) Hash {
	s.chargeHash(BlockSize)
	return ContentHash(p)
}

// chargeHash charges hashing n bytes: costs.HashPage per block's worth.
func (s *Store) chargeHash(n int) {
	if s.clock != nil {
		s.clock.Advance(s.costs.HashPage * time.Duration(n) / BlockSize)
	}
}

// holdLocked takes one reference on a block for a record that is still
// being put. From here until the record is registered (settleLocked) or
// the put is unwound (unholdLocked) no record accounts for the
// reference; the in-flight ledger does.
func (s *Store) holdLocked(be *blockEntry) {
	be.refs++
	s.inflight[be.ref.Hash]++
}

// settleLocked takes one reference out of the in-flight ledger: the
// record holding it is registered, or the reference is being released.
func (s *Store) settleLocked(h Hash) {
	if s.inflight[h]--; s.inflight[h] <= 0 {
		delete(s.inflight, h)
	}
}

// unholdLocked gives back a reference taken by holdLocked.
func (s *Store) unholdLocked(ref BlockRef) {
	s.settleLocked(ref.Hash)
	s.releaseBlockLocked(ref)
}

// sortFreedLocked orders the blocks freed since the free list was mark
// long by offset. Records release in page order, not allocation order;
// sorting keeps the order later puts reuse blocks in, and with it every
// BlockRef.Off and the device time their placement costs.
func (s *Store) sortFreedLocked(mark int) {
	slices.Sort(s.freeList[mark:])
}

// Hold reports, for each of hashes, whether the store lacks a block of
// that content: a put can be given a page it holds by hash alone, and
// must be given the bytes of one it lacks. Each block it holds keeps a
// reference in flight (holdLocked) until release, so no reclaim between
// the question and the put can free it.
func (s *Store) Hold(hashes []Hash) (lacks []bool, release func()) {
	lacks = make([]bool, len(hashes))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range hashes {
		if be, ok := s.blocks[h]; ok {
			s.holdLocked(be)
		} else {
			lacks[i] = true
		}
	}
	return lacks, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		mark := len(s.freeList)
		for i, h := range hashes {
			if !lacks[i] {
				s.unholdLocked(s.blocks[h].ref)
			}
		}
		s.sortFreedLocked(mark)
	}
}

// putPage stores page i of a put of rec — page idx, data, whose
// ContentHash is h — deduplicating by content, and enters it as
// rec.Pages[i] with its reference held in flight (holdLocked). A page
// given by hash (nil data) is referenced where the store holds its
// content; where it does not, it is a dangling reference.
func (s *Store) putPage(rec *Record, i int, idx int64, data []byte, h Hash) error {
	if data != nil && len(data) != BlockSize {
		block := make([]byte, BlockSize)
		copy(block, data)
		data = block
	}
	if verifySuppliedHashes && data != nil && ContentHash(data) != h {
		panic(fmt.Sprintf("objstore: page %d of object %d put under a hash that is not its content's", idx, rec.OID))
	}
	s.mu.Lock()
	be, dedup := s.blocks[h]
	if !dedup && data == nil {
		s.mu.Unlock()
		return fmt.Errorf("objstore: dangling block reference at page %d", idx)
	}
	if !dedup {
		if s.dataGrowthLocked() {
			if err := s.dataRoomLocked(BlockSize); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		off := s.allocBlock()
		s.mu.Unlock()

		// Publish the dedup entry only after the bytes are on media: a
		// failed write must not leave the index pointing at a block that
		// never landed, or every later put of the same content dedups
		// against garbage and poisons each epoch referencing the page.
		err := s.devWrite(data, off)
		s.mu.Lock()
		if err != nil {
			s.freeList = append(s.freeList, off)
			s.mu.Unlock()
			return wrapSpace(err)
		}
		if be, dedup = s.blocks[h]; dedup {
			// A concurrent put landed the same content first: reference
			// its block and recycle the one written here.
			s.freeList = append(s.freeList, off)
		} else {
			be = &blockEntry{ref: BlockRef{Off: off, Hash: h}}
			s.blocks[h] = be
		}
	}
	if dedup {
		s.stats.DedupHits++
	}
	s.holdLocked(be)
	s.stats.LogicalBytes += BlockSize
	rec.Pages[i] = PageEntry{Idx: idx, Ref: be.ref}
	s.mu.Unlock()
	return nil
}

// verifyBlock checks a block's contents against its content hash. The
// hash doubles as an end-to-end integrity check: dedup already paid
// for it at write time, verifying at read time catches silent rot.
func (s *Store) verifyBlock(ref BlockRef, data []byte) error {
	if s.HashPage(data) != ref.Hash {
		return fmt.Errorf("%w: block at offset %d", ErrCorruptBlock, ref.Off)
	}
	return nil
}

// ReadBlock fetches a data block's contents, verifying its hash.
func (s *Store) ReadBlock(ref BlockRef) ([]byte, error) {
	buf := make([]byte, BlockSize)
	if err := s.ReadBlockInto(ref, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadBlockInto reads a data block into dst (BlockSize bytes) and
// verifies its hash. On error dst holds garbage.
func (s *Store) ReadBlockInto(ref BlockRef, dst []byte) error {
	if err := s.devRead(dst, ref.Off); err != nil {
		return err
	}
	return s.verifyBlock(ref, dst)
}

// ChargeIndexRead models re-reading n bytes of persisted index
// metadata (manifest, record, and block-reference entries) from the
// device. The in-memory index serves the contents — it is the page
// cache — but a restore's cost model still bills the device read a
// cold lazy restore performs to learn where its pages live. The read
// targets the superblock region and moves no bytes on a device that can
// charge it without (storage.ChargeRead).
func (s *Store) ChargeIndexRead(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	d, err := storage.ChargeRead(s.dev, n, 0)
	s.billed()
	if err != nil {
		return 0
	}
	return d
}

// ReadBlocks fetches many blocks in one batched device operation,
// overlapping the reads at the device queue depth (the restore path's
// bulk image read). Every block is verified against its hash.
func (s *Store) ReadBlocks(refs []BlockRef) ([][]byte, error) {
	bufs := make([][]byte, len(refs))
	offs := make([]int64, len(refs))
	for i, ref := range refs {
		bufs[i] = make([]byte, BlockSize)
		offs[i] = ref.Off
	}
	_, err := s.dev.ReadBatch(bufs, offs)
	s.billed()
	if err != nil {
		return nil, err
	}
	for i, ref := range refs {
		if err := s.verifyBlock(ref, bufs[i]); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// PageSet is an object's pages handed to a put as one ordered batch:
// ascending page index, each page with its ContentHash and, when the
// caller holds them, its bytes. A page given by hash alone (nil data)
// costs nothing where the store already holds a block of that content
// (Hold tells a caller where it does), and fails the put where it does
// not. The order is the order the put allocates and writes blocks in, so it —
// not a map iteration — decides block placement. Lines(i) is page i's
// dirty-line mask: the 64-byte lines in which it differs from the
// object's page at the previous epoch (vm.AllLines when the caller does
// not know, and for a page given by hash). An incremental put over the
// group's newest epoch stores a page written in a few lines as a line
// entry. Hashed(i) is how many bytes computing the hash of page i, given
// with its bytes, read — BlockSize unless the caller resumed it from a
// midstate — and is what the put charges costs.HashPage for, pro rata.
type PageSet interface {
	Len() int
	Page(i int) (idx int64, data []byte, hash Hash)
	Lines(i int) uint64
	Hashed(i int) int
}

// mapPages is the PageSet of a caller that holds a page map and no
// hashes — its pages hashed as they are asked for — and, for pages not
// in it, references to blocks the store holds: pages given by hash, with
// no bytes behind them.
type mapPages struct {
	idxs  []int64
	pages map[int64][]byte
	refs  map[int64]BlockRef
}

func (m *mapPages) Len() int { return len(m.idxs) }

func (m *mapPages) Page(i int) (int64, []byte, Hash) {
	if data, ok := m.pages[m.idxs[i]]; ok {
		if data == nil {
			data = []byte{} // an empty page, not one given by hash
		}
		return m.idxs[i], data, ContentHash(data)
	}
	return m.idxs[i], nil, m.refs[m.idxs[i]].Hash
}

func (m *mapPages) Lines(int) uint64 { return vm.AllLines }

func (m *mapPages) Hashed(int) int { return BlockSize }

// PutRecord writes one object's record for an epoch: metadata plus the
// given pages (complete set when full, dirty set otherwise). Page data
// is deduplicated block by block.
func (s *Store) PutRecord(group, oid, epoch uint64, kind uint16, full bool, meta []byte, pages map[int64][]byte, heat []vm.PageHeat) (*Record, error) {
	return s.PutRecordMixed(group, oid, epoch, kind, full, meta, pages, nil, heat)
}

// PutRecordMixed writes a record combining freshly written pages with
// zero-copy references to existing blocks (the snapshot fast path:
// dirty pages written, clean pages re-referenced; with no pages, a
// clone's first record referencing every block of its source without
// moving a byte). The pages are put in ascending index order and hashed
// here, one by one; a page given both ways is written. A reference goes
// as a page given by its hash: one the store holds no block under is a
// dangling reference, and fails the put.
func (s *Store) PutRecordMixed(group, oid, epoch uint64, kind uint16, full bool, meta []byte, pages map[int64][]byte, refs map[int64]BlockRef, heat []vm.PageHeat) (*Record, error) {
	var set PageSet
	if len(pages)+len(refs) > 0 {
		m := &mapPages{idxs: make([]int64, 0, len(pages)+len(refs)), pages: pages, refs: refs}
		for idx := range pages {
			m.idxs = append(m.idxs, idx)
		}
		for idx := range refs {
			if _, written := pages[idx]; !written {
				m.idxs = append(m.idxs, idx)
			}
		}
		slices.Sort(m.idxs)
		s.mu.Lock()
		s.stats.PagesHashed += int64(len(pages))
		s.mu.Unlock()
		set = m
	}
	return s.PutPages(group, oid, epoch, kind, full, meta, set, heat)
}

// PutPages is the one put path: it writes a record whose pages come as
// an ordered batch with their content hashes and dirty-line masks known
// — the checkpoint flush's, which hashes an image's pages once for every
// backend and names those it holds by name in a store by the hash that
// store's index has. The pages go in batch order — each one the store
// holds by content referenced, every other one written as a new block or
// a line entry's patch (planLines: a partly written page of an
// incremental epoch over the group's newest) — then the metadata
// extent, then registration. The store computes no hash of its own here
// (under the race detector it checks every one it is given with bytes,
// and rebuilds every line entry from its base, see verifySuppliedHashes);
// the virtual hash cost is charged per page for what the caller hashed.
func (s *Store) PutPages(group, oid, epoch uint64, kind uint16, full bool, meta []byte, pages PageSet, heat []vm.PageHeat) (*Record, error) {
	rec := &Record{
		Group: group,
		OID:   oid,
		Epoch: epoch,
		Kind:  kind,
		Full:  full,
		Meta:  append([]byte(nil), meta...),
		Heat:  slices.Clone(heat),
	}
	// unwind releases every reference the attempt took so far. A failed
	// put — most importantly an out-of-space one — must leave the index
	// exactly as it found it: no registered record, no leaked refcounts,
	// no orphaned metadata extent. An entry not written yet has no Ref
	// (nothing lives at offset 0); a planned line entry holds its base.
	unwind := func() {
		s.mu.Lock()
		mark := len(s.freeList)
		for i := range rec.Pages {
			p := &rec.Pages[i]
			switch {
			case p.Ref != BlockRef{}:
				s.settleLocked(p.held())
				s.releaseEntryLocked(p)
				s.stats.LogicalBytes -= BlockSize
			case p.base != nil:
				s.unholdLocked(p.base.ref)
			}
		}
		s.sortFreedLocked(mark)
		s.mu.Unlock()
	}
	if pages != nil {
		n := pages.Len()
		rec.Pages = make([]PageEntry, n)
		if !full {
			s.planLines(rec, pages)
		}
		var runs patchRuns
		defer runs.release()
		for i := 0; i < n; i++ {
			idx, data, h := pages.Page(i)
			var err error
			switch {
			case i > 0 && idx <= rec.Pages[i-1].Idx:
				err = fmt.Errorf("objstore: page %d put after page %d", idx, rec.Pages[i-1].Idx)
			case rec.Pages[i].base != nil:
				s.chargeHash(pages.Hashed(i))
				err = s.putLine(rec, i, idx, data, h, &runs)
			default:
				if data != nil {
					s.chargeHash(pages.Hashed(i))
				}
				err = s.putPage(rec, i, idx, data, h)
			}
			if err != nil {
				unwind()
				return nil, err
			}
		}
		if err := s.writeRuns(&runs); err != nil {
			unwind()
			return nil, err
		}
	}
	// Write the metadata extent, then register the record. Registration
	// must come last: a record visible in the index before its metadata
	// landed would be poisoned by a failed write.
	rec.metaLen = len(meta)
	need := len(meta) + 1
	s.mu.Lock()
	if need < BlockSize {
		off, err := s.packAllocLocked(need)
		if err != nil {
			s.mu.Unlock()
			unwind()
			return nil, err
		}
		rec.metaOff = off
	} else {
		metaNeed := int64((need + BlockSize - 1) &^ (BlockSize - 1))
		if err := s.dataRoomLocked(metaNeed); err != nil {
			s.mu.Unlock()
			unwind()
			return nil, err
		}
		rec.metaOff = s.allocExtent(need)
	}
	s.mu.Unlock()
	if len(meta) > 0 {
		if err := s.devWrite(meta, rec.metaOff); err != nil {
			s.mu.Lock()
			s.freeExtentLocked(rec.metaOff, len(meta)+1)
			s.mu.Unlock()
			unwind()
			return nil, wrapSpace(err)
		}
	}
	key := RecordKey{group, oid, epoch}
	s.mu.Lock()
	if old, ok := s.records[key]; ok && old != rec {
		// Re-delivery (a flush retried after a partial failure):
		// replace the previous attempt's record, releasing everything
		// it pinned so refcounts stay exact.
		mark := len(s.freeList)
		for i := range old.Pages {
			s.releaseEntryLocked(&old.Pages[i])
		}
		s.sortFreedLocked(mark)
		s.stats.LogicalBytes -= int64(len(old.Pages)) * BlockSize
		s.stats.MetaBytes -= int64(old.metaLen)
		s.freeExtentLocked(old.metaOff, old.metaLen+1)
	}
	s.records[key] = rec
	for i := range rec.Pages {
		s.settleLocked(rec.Pages[i].held())
	}
	s.stats.MetaBytes += int64(len(meta))
	s.mu.Unlock()
	return rec, nil
}

// GetRecord returns the record of a group's object at an exact epoch.
func (s *Store) GetRecord(group, oid, epoch uint64) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[RecordKey{group, oid, epoch}]
	if !ok {
		return nil, ErrNoRecord
	}
	return rec, nil
}

// PutManifest records a checkpoint: the set of records belonging to
// (group, epoch), the root process OIDs, and an optional name. It is
// idempotent per (group, epoch): an epoch delivered again (the retry of
// a half-flushed epoch) replaces its manifest instead of listing the
// epoch twice.
func (s *Store) PutManifest(m *Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, old := s.findManifestLocked(m.Group, m.Epoch); old != nil {
		s.manifests[m.Group][i] = m
	} else {
		s.manifests[m.Group] = slices.Insert(s.manifests[m.Group], i, m)
	}
	if m.Name != "" {
		s.named[m.Name] = manifestID{m.Group, m.Epoch}
	}
}

// Manifest returns the checkpoint manifest of (group, epoch).
func (s *Store) Manifest(group, epoch uint64) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, m := s.findManifestLocked(group, epoch); m != nil {
		return m, nil
	}
	return nil, ErrNoManifest
}

// NamedManifest resolves a user-visible checkpoint name.
func (s *Store) NamedManifest(name string) (*Manifest, error) {
	s.mu.Lock()
	id, ok := s.named[name]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoManifest
	}
	return s.Manifest(id.Group, id.Epoch)
}

// LatestManifest returns the most recent checkpoint of a group.
func (s *Store) LatestManifest(group uint64) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.manifests[group]
	if len(ms) == 0 {
		return nil, ErrNoManifest
	}
	return ms[len(ms)-1], nil
}

// Manifests lists a group's checkpoint history, oldest first.
func (s *Store) Manifests(group uint64) []*Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Manifest, len(s.manifests[group]))
	copy(out, s.manifests[group])
	return out
}

// Groups lists the group IDs with at least one checkpoint.
func (s *Store) Groups() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.manifests, cmp.Compare[uint64])
}

// ResolvePages materializes the complete page map of an object at an
// epoch by walking the record chain backwards until a full record:
// later (dirty) pages shadow earlier ones. It also returns the chain's
// heat resolved the same way (chainHeat). Every page it returns is a
// block; an object with a page stored as a line entry is refused with
// ErrLineEntry — ReadPages and PageView read those.
func (s *Store) ResolvePages(group, oid, epoch uint64) (map[int64]BlockRef, []vm.PageHeat, error) {
	s.mu.Lock()
	pages, heat, err := s.resolveLocked(group, oid, epoch)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	out := make(map[int64]BlockRef, len(pages))
	for _, p := range pages {
		if p.base != nil {
			return nil, nil, fmt.Errorf("%w: object %d page %d at epoch %d", ErrLineEntry, oid, p.Idx, epoch)
		}
		out[p.Idx] = p.Ref
	}
	return out, heat, nil
}

// resolveLocked is ResolvePages for every page, line entries included,
// as one run in page order: the newest record's entry for each page.
func (s *Store) resolveLocked(group, oid, epoch uint64) ([]PageEntry, []vm.PageHeat, error) {
	chain, err := s.chainLocked(nil, group, oid, epoch)
	if err != nil {
		return nil, nil, err
	}
	var pages []PageEntry
	for _, rec := range chain {
		pages = append(pages, rec.Pages...)
	}
	// The chain is newest first, and a stable sort keeps it so within a
	// page: compacting keeps the newest entry.
	slices.SortStableFunc(pages, byIdx)
	pages = slices.CompactFunc(pages, func(a, b PageEntry) bool { return a.Idx == b.Idx })
	return pages, chainHeat(chain), nil
}

// chainLocked appends to buf the records a resolution of (group, oid)
// at epoch reads: the object's record at every epoch of the group's
// history from epoch back to the first full one, newest first. It is
// the one walk ResolvePages and PageView share. An epoch of that
// history missing from the store is ErrNoManifest; a history holding no
// record of the object at all is ErrNoRecord.
func (s *storeCore) chainLocked(buf []*Record, group, oid, epoch uint64) ([]*Record, error) {
	for cur := epoch; cur != 0; {
		_, m := s.findManifestLocked(group, cur)
		if m == nil {
			return nil, fmt.Errorf("%w: group %d epoch %d", ErrNoManifest, group, cur)
		}
		if rec, ok := s.records[RecordKey{group, oid, cur}]; ok {
			buf = append(buf, rec)
			if rec.Full {
				break
			}
		}
		cur = m.Prev
	}
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: object %d at epoch %d", ErrNoRecord, oid, epoch)
	}
	return buf, nil
}

// chainHeat resolves a chain's heat (newest first) by vm.MergeHeat into
// a list of the caller's own: no record's slice is handed out, because
// merge-forward rewrites them in place.
func chainHeat(chain []*Record) []vm.PageHeat {
	var heat []vm.PageHeat
	for _, rec := range chain {
		if len(rec.Heat) > 0 {
			heat = vm.MergeHeat(slices.Clone(rec.Heat), heat)
		}
	}
	return heat
}

// ResolveMeta returns the newest metadata of an object at or before an
// epoch within the group's history.
func (s *Store) ResolveMeta(group, oid, epoch uint64) ([]byte, uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := epoch
	for cur != 0 {
		if rec, ok := s.records[RecordKey{group, oid, cur}]; ok {
			return rec.Meta, rec.Kind, nil
		}
		_, m := s.findManifestLocked(group, cur)
		if m == nil {
			break
		}
		cur = m.Prev
	}
	return nil, 0, fmt.Errorf("%w: metadata of object %d", ErrNoRecord, oid)
}

// findManifestLocked looks (group, epoch) up in the group's manifest
// list, which PutManifest and decodeIndex keep epoch-sorted. It returns
// the manifest and its position, or nil and the position it would be
// inserted at.
func (s *storeCore) findManifestLocked(group, epoch uint64) (int, *Manifest) {
	ms := s.manifests[group]
	i, ok := slices.BinarySearchFunc(ms, epoch, func(m *Manifest, e uint64) int {
		return cmp.Compare(m.Epoch, e)
	})
	if !ok {
		return i, nil
	}
	return i, ms[i]
}

// RecordsOf lists every epoch's record for one group's OID, oldest
// first. The NT-log uses this to replay its append-only entries at
// recovery.
func (s *Store) RecordsOf(group, oid uint64) []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Record
	for key, rec := range s.records {
		if key.Group == group && key.OID == oid {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// DeleteRecord removes one record outside the manifest-driven GC path
// (used by the NT log, whose records do not belong to any manifest).
// Its blocks are released in place.
func (s *Store) DeleteRecord(group, oid, epoch uint64) {
	s.mu.Lock()
	rec, ok := s.records[RecordKey{group, oid, epoch}]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.records, RecordKey{group, oid, epoch})
	s.stats.MetaBytes -= int64(rec.metaLen)
	s.freeExtentLocked(rec.metaOff, rec.metaLen+1)
	for i := range rec.Pages {
		s.releaseEntryLocked(&rec.Pages[i])
	}
	s.mu.Unlock()
}
