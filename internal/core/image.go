// Package core implements the SLS orchestrator: the paper's primary
// contribution. It maps kernel objects to the object store, manages
// persistence groups, runs serialization barriers for full and
// incremental checkpoints, flushes asynchronously, restores (eagerly
// or lazily, with clock-driven prefetch), enforces external
// consistency, and exposes the libsls developer API of Table 2.
package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"aurora/internal/codec"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// vmBit tags VM-object IDs in the store's OID space so they never
// collide with kernel OIDs (bit 62 is the file system's).
const vmBit = uint64(1) << 63

// MetaRec is one serialized kernel object inside an image.
type MetaRec struct {
	OID  uint64
	Kind kernel.Kind
	Data []byte
}

// MemImage is the captured memory of one VM object at one epoch.
type MemImage struct {
	ObjID uint64 // original vm.Object ID
	Name  string
	Size  int64
	// Pages is the captured frames, one run in ascending page index, each
	// with its dirty-line mask: the barrier's (vm.CheckpointSet.Pages),
	// taken as it is. The image owns one reference per frame; restores
	// COW-share against them without copying.
	Pages []vm.Page
	// Inherit holds every page that is not a frame. Pages read back as
	// bytes — by an eager Load, by a rollback — are its run, in ascending
	// page index and none of them in Pages; in front of, optionally, a
	// store's pages at a pinned epoch held by name: the page source a
	// full capture found the object paging from — a restore's, or the view
	// of an earlier barrier its evicted pages come back from
	// (vm.CheckpointSet.Source), or a lazily loaded image's
	// (StoreBackend.LoadLazy). A page held by name is known by the content
	// hash the store's index has for it, and its bytes are read only by
	// whoever needs them: restore attaches the source, and a flush reads,
	// once, those some destination lacks (planReads). Nothing here is sized by
	// the image; a lazily loaded image's heat, too, stays in the store
	// until a prefetch asks the view for it.
	Inherit *lazyPageSource
	// Heat is the access counts driving restore prefetch, in ascending
	// page order, as the barrier took them (vm.CheckpointSet.Heat): all
	// non-zero counters in a full image, those touched since the
	// previous epoch in an incremental one. A chain's heat resolves by
	// vm.MergeHeat, newest count winning, the way its pages do.
	Heat []vm.PageHeat

	// capture is the barrier's vm.CheckpointSet Capture and midstates
	// the group's table for the object (Group.midstates): hashing a
	// captured frame leaves its midstates there, and a partly written
	// frame's hash resumes from those of the frame it was copied from
	// (hashRun). Images that did not come from a barrier have none and
	// hash every page whole.
	capture   uint64
	midstates *midstateTable
}

func pageIdx(p *vm.Page) int64 { return p.Idx }

// PageCount returns how many distinct pages the image holds, by name
// too: a lazily loaded image's store view counts its own; a view that
// cannot list its pages counts none (a read of it fails anyway).
func (mi *MemImage) PageCount() int {
	n, src := len(mi.Pages), mi.Inherit
	if src != nil && n+len(src.bytes) == 0 {
		return src.view.Len()
	}
	pages, _ := src.pages()
	for _, p := range pages {
		if _, ok := vm.SearchRun(mi.Pages, p.Idx, pageIdx); !ok {
			n++
		}
	}
	return n
}

// PageData returns the bytes of the image's i-th frame (Pages[i]).
func (mi *MemImage) PageData(i int) []byte { return mi.Pages[i].Frame.Data }

// at finds page idx of mi: where its frame is in Pages, tried first at k
// — a walk of the pages in index order finds each frame right after the
// one before — and its bytes; or -1 and the bytes its source's run holds
// it in (nil when none).
func (mi *MemImage) at(k int, idx int64) (int, []byte) {
	if k >= len(mi.Pages) || mi.Pages[k].Idx != idx {
		var ok bool
		if k, ok = vm.SearchRun(mi.Pages, idx, pageIdx); !ok {
			return -1, mi.Inherit.held(idx)
		}
	}
	return k, mi.Pages[k].Frame.Data
}

// page returns the bytes mi holds page idx in, or nil.
func (mi *MemImage) page(idx int64) []byte {
	_, data := mi.at(0, idx)
	return data
}

// Image is a complete in-memory checkpoint of a persistence group:
// everything needed to recreate the application, on this machine or
// another.
type Image struct {
	Group uint64
	Epoch uint64
	Name  string
	Full  bool
	// Gen is the store generation (fencing token) of the group that
	// checkpointed this image. A store or replica whose fence for the
	// image's lineage has moved past Gen rejects the flush: the writer
	// is a stale primary superseded by a promotion.
	Gen uint64
	// Meta holds every serialized kernel object.
	Meta []MetaRec
	// Memory holds per-VM-object page captures. For incremental
	// images this is the dirty delta; Prev links the chain.
	Memory map[uint64]*MemImage
	// Roots are the process OIDs of the group.
	Roots []uint64
	// Prev is the previous image in the chain (nil for full images or
	// when the chain was consolidated).
	Prev *Image

	mu       sync.Mutex
	released bool

	// The PageHashes memo: hashMu guards pages, which are valid once
	// hashDone is set; hashed is how many of them were hashed here and
	// not supplied by the wire, hashedBytes how many bytes those hashes
	// read, patched how many of those a compact delta's decoder rebuilt
	// from line entries. resumed[i] is the step (midstateStep) at
	// which pages[i]'s hash resumed, 0 for a whole page; nil when no
	// page's could (every page was hashed whole, here or by the wire's
	// sender).
	hashMu      sync.Mutex
	hashDone    bool
	pages       []PageHash
	resumed     []uint8
	hashed      atomic.Int64
	hashedBytes atomic.Int64
	patched     int64
}

// AddBlockPeer registers a peer block provider (another store, a
// netback replica) that demand paging may fail over to when the store
// holding the image's pages by name cannot serve one.
func (img *Image) AddBlockPeer(p BlockProvider) {
	img.mu.Lock()
	defer img.mu.Unlock()
	for _, mi := range img.Memory {
		if mi.Inherit != nil {
			mi.Inherit.addPeer(p)
		}
	}
}

// PageCount totals captured pages across all objects.
func (img *Image) PageCount() int {
	n := 0
	for _, mi := range img.Memory {
		n += mi.PageCount()
	}
	return n
}

// FootprintBytes reports the memory this image pins while it waits to
// flush: captured frames and the page copies of its sources' runs. A
// page held by name in a store pins none. This is what the fleet's
// global memory budget charges per queued image.
func (img *Image) FootprintBytes() int64 {
	var n int64
	for _, mi := range img.Memory {
		n += int64(len(mi.Pages)+len(mi.Inherit.run())) * vm.PageSize
	}
	return n
}

// Release returns the image's frames to the allocator and cuts its link
// to the rest of the chain. Safe to call twice. From here on the image
// answers for its identity only (Group, Epoch, Gen): the frames belong
// to whoever allocates them next, so a chain walk that reaches a
// released image ends there with nothing found (see resolve).
func (img *Image) Release(pm *vm.PhysMem) {
	img.mu.Lock()
	if img.released {
		img.mu.Unlock()
		return
	}
	img.released = true
	img.Prev = nil
	defer img.mu.Unlock() // a reader under img.mu (pagedFrom) sees all of it or none
	for _, mi := range img.Memory {
		for _, p := range mi.Pages {
			pm.Free(p.Frame)
		}
		mi.Pages, mi.Inherit, mi.midstates = nil, nil, nil
	}
}

// Released reports whether the image's frames have been returned to
// the allocator (store backends own the data now).
func (img *Image) Released() bool {
	img.mu.Lock()
	defer img.mu.Unlock()
	return img.released
}

// Fold merges older, the image newer builds on, into newer: from here
// newer alone holds the state at its epoch that the two held together,
// and older is released. Every page, VM object and metadata record of
// older that newer does not shadow moves into newer, which takes older's
// Full flag and Prev; a full newer shadows everything. Each object's
// pages fold as resolve folds them (MemImage.fold), patching the larger
// run in place, so a small delta folds into a large base in O(delta);
// its heat merges into the base's the same way (vm.MergeHeat). A frame
// newer shadows goes to free with its page's hash (zero unless older's
// PageHashes had been computed). When both images' PageHashes had been
// computed, newer's become the merged set; otherwise they are recomputed
// on next use. Neither image may be read elsewhere while it folds, and a
// walk that reaches older afterwards finds it released.
func Fold(older, newer *Image, free func(PageHash, *vm.Frame)) {
	older.mu.Lock()
	mem, meta, prev, full := older.Memory, older.Meta, older.Prev, older.Full
	older.released, older.Memory, older.Meta, older.Prev = true, nil, nil, nil
	older.mu.Unlock()
	older.hashMu.Lock()
	oldSums, oldDone := older.pages, older.hashDone
	older.pages, older.hashDone = nil, false
	older.hashMu.Unlock()
	shadowed := func(id uint64) func(*vm.Page) {
		return func(f *vm.Page) {
			p := PageHash{ObjID: id, Idx: f.Idx}
			if i, ok := findPage(oldSums, id, f.Idx); ok {
				p.Hash = oldSums[i].Hash
			}
			free(p, f.Frame)
		}
	}

	newer.mu.Lock()
	defer newer.mu.Unlock()
	if newer.Full {
		for id, mi := range mem {
			drop := shadowed(id)
			for i := range mi.Pages {
				drop(&mi.Pages[i])
			}
		}
		return
	}
	for id, mi := range mem {
		if heir, ok := newer.Memory[id]; ok {
			heir.fold(mi, true, shadowed(id))
			heir.Heat = vm.MergeHeat(mi.Heat, heir.Heat)
		} else {
			newer.Memory[id] = mi
		}
	}
	own := newer.Meta
	for _, m := range meta {
		if !slices.ContainsFunc(own, func(n MetaRec) bool { return n.OID == m.OID }) {
			newer.Meta = append(newer.Meta, m)
		}
	}
	newer.Prev, newer.Full = prev, full

	newer.hashMu.Lock()
	defer newer.hashMu.Unlock()
	if oldDone && newer.hashDone {
		newer.pages = mergeSums(oldSums, newer.pages)
	} else {
		newer.pages, newer.hashDone = nil, false
	}
	newer.resumed = nil
}

// fold takes old, the same object one image older, under mi: every page
// of old that mi holds neither as a frame nor in its source's run joins
// mi, and lose gets each frame of old that mi shadows. With own, old is
// the caller's to consume (Fold) and the larger frame run is patched in
// place (vm.FoldRun); without, old's runs are only read (resolve), and
// mi's, which may be an image's shared run, must come clipped.
func (mi *MemImage) fold(old *MemImage, own bool, lose func(*vm.Page)) {
	frames := old.Pages
	if top := mi.Inherit; len(top.run()) > 0 {
		var kept []vm.Page
		if own {
			kept = frames[:0]
		}
		for _, p := range frames {
			if top.held(p.Idx) != nil {
				lose(&p)
			} else {
				kept = append(kept, p)
			}
		}
		frames = kept
	}
	mi.Inherit = old.Inherit.beneath(mi.Pages, mi.Inherit)
	if own && len(frames) > len(mi.Pages) {
		mi.Pages = vm.FoldRun(frames, mi.Pages, pageIdx, false, lose)
	} else {
		mi.Pages = vm.FoldRun(mi.Pages, frames, pageIdx, true, lose)
	}
}

// mergeSums is the PageHashes of a fold: the pages of older and newer,
// both in wire order, newer's hash winning where both have a page. It
// patches older's slice in place — O(newer) lookups into a base — and
// sorts only when newer brings pages older lacks.
func mergeSums(older, newer []PageHash) []PageHash {
	var extra []PageHash
	for _, p := range newer {
		if i, ok := findPage(older, p.ObjID, p.Idx); ok {
			older[i].Hash = p.Hash
		} else {
			extra = append(extra, p)
		}
	}
	if len(extra) > 0 {
		older = append(older, extra...)
		sortPages(older)
	}
	return older
}

// base returns the image img builds on: nil when img is full.
func (img *Image) base() *Image {
	img.mu.Lock()
	defer img.mu.Unlock()
	if img.Full {
		return nil
	}
	return img.Prev
}

// ResolvePage finds one page of an object at this image: the newest
// bytes captured for it along the chain, or nil when the chain holds
// none (or reaches a released image before it finds them).
func (img *Image) ResolvePage(objID uint64, idx int64) []byte {
	for cur := img; cur != nil && !cur.Released(); cur = cur.base() {
		if mi, ok := cur.Memory[objID]; ok {
			if data := mi.page(idx); data != nil {
				return data
			}
		}
	}
	return nil
}

// Encode serializes the state at this image, opened by itself, as
// Epoch.Encode does. The frames it reads hold a reference from pm, the
// allocator they came from, until it returns, so a flush that releases
// the chain meanwhile cannot take them. A chain that reaches a released
// image is ErrNoImage: the bytes would not be the whole state.
func (img *Image) Encode(pm *vm.PhysMem) ([]byte, error) {
	e, err := new(Epoch).read(pm, img, nil, 0, true)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Encode()
}

// namedPages lists the pages objs holds by name in a store, in wire
// order, each with the content hash the store's index has for it (none:
// nil, and nothing allocated).
func namedPages(objs map[uint64]*MemImage) ([]PageHash, error) {
	var named []PageHash
	for id, mi := range objs {
		if mi.Inherit == nil || mi.Inherit.sb == nil {
			continue
		}
		run, err := mi.Inherit.pages()
		if err != nil {
			return nil, fmt.Errorf("core: object %d: %w", id, err)
		}
		for _, p := range run {
			if _, framed := vm.SearchRun(mi.Pages, p.Idx, pageIdx); p.Data == nil && !framed {
				named = append(named, PageHash{ObjID: id, Idx: p.Idx, Hash: p.Hash})
			}
		}
	}
	sortPages(named)
	return named, nil
}

// readNamed is the one reader of pages held by name outside a demand
// fault, and reads them as one does (retry, failover, read-repair): of
// the pages named lists (namedPages of objs), each that want picks (nil:
// all) and whose content got lacks goes into got, once, in wire order,
// the reads from one store overlapped as one batch on lane (nil: a lane
// of that store's clock). A page that cannot be read is left out; the
// first such failure is the error, returned once the rest is read.
func readNamed(objs map[uint64]*MemImage, named []PageHash, want []bool, lane *storage.Clock, got NamedBytes) error {
	var first error
	for lo := 0; lo < len(named); {
		sb, hi := objs[named[lo].ObjID].Inherit.sb, lo+1
		for hi < len(named) && objs[named[hi].ObjID].Inherit.sb == sb {
			hi++
		}
		l := lane
		if l == nil {
			l = sb.clock.Lane()
		}
		store := sb.store.WithClock(l)
		store.Overlapped(func() error {
			for i := lo; i < hi; i++ {
				p, src := &named[i], objs[named[i].ObjID].Inherit
				if want != nil && !want[i] || got[p.Hash] != nil {
					continue
				}
				ref, ok, err := src.locate(p.Idx)
				if err == nil && !ok {
					err = fmt.Errorf("%w: page %d is not in %s at epoch %d", ErrBackendDown, p.Idx, sb.Name(), src.pinEpoch)
				}
				data := make([]byte, vm.PageSize)
				if err == nil {
					err = src.read(store, p.Idx, ref, data)
				}
				if err != nil {
					first = cmp.Or(first, fmt.Errorf("core: object %d: %w", p.ObjID, err))
				} else {
					got[p.Hash] = data
				}
			}
			return nil
		})
		lo = hi
	}
	return first
}

// readAll returns objs with every page each holds by name read into its
// run: objs itself when there is none, else a map of its own in which
// each such object is a copy whose source holds bytes only. A rollback
// reads its state so before it kills the incarnation it replaces: a
// store it cannot read fails it with the group still running.
func readAll(objs map[uint64]*MemImage) (map[uint64]*MemImage, error) {
	named, err := namedPages(objs)
	if err != nil || named == nil {
		return objs, err
	}
	got := make(NamedBytes, len(named))
	if err := readNamed(objs, named, nil, nil, got); err != nil {
		return nil, err
	}
	out := maps.Clone(objs)
	for lo := 0; lo < len(named); {
		id, read := named[lo].ObjID, []objstore.PageBytes(nil)
		for ; lo < len(named) && named[lo].ObjID == id; lo++ {
			read = append(read, objstore.PageBytes{Idx: named[lo].Idx, Data: got[named[lo].Hash]})
		}
		c := *objs[id]
		c.Inherit = &lazyPageSource{bytes: vm.FoldRun(read, c.Inherit.run(), bytesIdx, true, nil)}
		out[id] = &c
	}
	return out, nil
}

// Encode writes g's newest state as a file (`sls send`), and says which
// epoch it is: the flush pipeline is synced first, so that epoch is
// durable, and opened as every reader opens one (Open).
func (o *Orchestrator) Encode(g *Group) ([]byte, uint64, error) {
	if err := o.Sync(g); err != nil {
		return nil, 0, err
	}
	e, err := o.Open(g, 0, RestoreOpts{})
	if err != nil {
		return nil, 0, err
	}
	defer e.Close()
	file, err := e.Encode()
	return file, e.img.Epoch, err
}

// DecodeImage parses what Encode writes into a standalone full image: an
// image in the delta layout (DecodeDelta) that must be full. Page data
// is copied into fresh frames owned by the image.
func DecodeImage(payload []byte, pm *vm.PhysMem) (*Image, error) {
	img, err := DecodeDelta(payload, pm)
	if err == nil && !img.Full {
		img.Release(pm)
		return nil, fmt.Errorf("core: image of group %d epoch %d is an incremental delta, not a full image: %w",
			img.Group, img.Epoch, codec.ErrCorrupt)
	}
	return img, err
}

// PageHash names one page an image holds — a captured frame, a page of
// its source's run, or one its source holds by name in a store — and its
// content hash.
type PageHash struct {
	ObjID uint64
	Idx   int64
	Hash  objstore.Hash
}

// PageContentHash is the content hash compact deltas and the dedup
// index key pages by: objstore's rule, so a hash taken here is the one
// the store would compute.
func PageContentHash(data []byte) objstore.Hash {
	return objstore.ContentHash(data)
}

// objectOrder lists VM objects (an image's Memory, a state's objs) by
// ascending ID: the order of the wire format and of the store's records.
func objectOrder(objs map[uint64]*MemImage) []uint64 {
	ids := make([]uint64, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// pageOrder lists the image's own pages in wire order — ascending
// (ObjID, page index) — per object its frames and its source's pages
// merged. A page held by name comes with the content hash the store's
// index has for it, every other page with its hash left zero; byName
// counts the first kind.
func (img *Image) pageOrder() (pages []PageHash, byName int, err error) {
	ids, n := objectOrder(img.Memory), 0
	for _, mi := range img.Memory {
		n += len(mi.Pages) + len(mi.Inherit.run())
	}
	pages = make([]PageHash, 0, n)
	for _, id := range ids {
		mi := img.Memory[id]
		held, err := mi.Inherit.pages()
		if err != nil {
			return nil, 0, fmt.Errorf("core: epoch %d of group %d, object %d: %w", img.Epoch, img.Group, id, err)
		}
		for frames := mi.Pages; len(frames)+len(held) > 0; {
			if len(held) == 0 || len(frames) > 0 && frames[0].Idx <= held[0].Idx {
				if len(held) > 0 && frames[0].Idx == held[0].Idx {
					held = held[1:] // named, and shadowed by the frame
				}
				pages, frames = append(pages, PageHash{ObjID: id, Idx: frames[0].Idx}), frames[1:]
			} else {
				if held[0].Data == nil {
					byName++
				}
				pages, held = append(pages, PageHash{ObjID: id, Idx: held[0].Idx, Hash: held[0].Hash}), held[1:]
			}
		}
	}
	return pages, byName, nil
}

// cursor finds an image's pages for a walk of them in wire order: each
// frame where the walk expects it, right after the last one found
// (MemImage.at).
type cursor struct {
	mem map[uint64]*MemImage
	id  uint64
	mi  *MemImage
	k   int
}

// at returns page p: its object, its frame's run entry (nil for a page
// held in bytes) and its bytes.
func (c *cursor) at(p *PageHash) (*MemImage, *vm.Page, []byte) {
	if c.mi == nil || p.ObjID != c.id {
		c.id, c.mi, c.k = p.ObjID, c.mem[p.ObjID], 0
	}
	k, data := c.mi.at(c.k, p.Idx)
	if k < 0 {
		return c.mi, nil, data
	}
	c.k = k + 1
	return c.mi, &c.mi.Pages[k], data
}

func sortPages(pages []PageHash) { slices.SortFunc(pages, comparePages) }

// findPage finds page idx of object id in pages, which are in wire
// order, the way slices.BinarySearchFunc would: a fold searches a base
// once per page of each delta folded into it, and this loop, which
// copies no PageHash, is several times faster.
func findPage(pages []PageHash, id uint64, idx int64) (int, bool) {
	lo, hi := 0, len(pages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p := &pages[m]; p.ObjID < id || p.ObjID == id && p.Idx < idx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(pages) && pages[lo].ObjID == id && pages[lo].Idx == idx
}

// comparePages orders pages by (ObjID, page index): wire order.
func comparePages(a, b PageHash) int {
	if c := cmp.Compare(a.ObjID, b.ObjID); c != 0 {
		return c
	}
	return cmp.Compare(a.Idx, b.Idx)
}

// PageHashes returns the content hash of every page the image holds, in
// wire order: ascending (ObjID, page index). It is the one place the
// flush and the replication path get a page hash from. The set is
// computed on first use — the image's first flush, or its joining a
// receiver's chain — and kept, so however many backends, links, encodes
// and receiver indexes ask, each page of an image is hashed at most
// once on a machine; concurrent callers wait for the first and share
// its result, which none may modify. A page held by name in a store is
// not hashed at all: it comes with the hash the store's index has for
// it. Decoded images come with the set filled in by the decoder (see
// DecodeDeltaCompact). It is nil while a store the image holds pages in
// by name cannot list them (the flush reports why).
func (img *Image) PageHashes() []PageHash {
	pages, _, _ := img.pageHashes()
	return pages
}

// pageHashes is PageHashes with, for each page, the midstate step its
// hash resumed at (0: hashed whole, or not hashed here; nil: none was).
func (img *Image) pageHashes() ([]PageHash, []uint8, error) {
	img.hashMu.Lock()
	defer img.hashMu.Unlock()
	if !img.hashDone {
		pages, byName, err := img.pageOrder()
		if err != nil {
			return nil, nil, err
		}
		resumed, bytes := img.hashPages(pages, byName)
		img.pages, img.resumed, img.hashDone = pages, resumed, true
		img.hashed.Store(int64(len(pages) - byName))
		img.hashedBytes.Store(bytes)
	}
	return img.pages, img.resumed, nil
}

// hashSpan is, in whole pages' worth of bytes to hash, the least work
// worth a goroutine of its own: 256 KiB, about 250 µs of SHA-256. On a
// 2-vCPU host BenchmarkPageHashes measured 3.8–4.3 µs a whole page,
// midstates included, and 2.6–2.9 µs a page resumed at its one written
// line (2.3 KiB hashed on average): about 1–1.3 ns a byte either way,
// so the work is counted in bytes, a resumed page by the bytes it has
// left. An image with less than two spans' worth is hashed inline:
// at 64 whole pages the fork-join measurably cost a replicated group
// more than it saved, its other core being busy with the replica links
// (EXPERIMENTS.md "Flush data path").
const hashSpan = 64

// hashPages fills in the hashes of pages, the image's own pages in
// order of which byName are held by name and already have theirs, and
// returns the step each resumed at (nil when none could) and the bytes
// it hashed. Hashing a page reads and writes nothing but its
// own bytes, hash and midstates, so a large set is split into
// contiguous spans hashed on up to GOMAXPROCS goroutines — each writes
// only its own span — and joined before returning: nothing outlives the
// call and the result does not depend on how it was split.
func (img *Image) hashPages(pages []PageHash, byName int) ([]uint8, int64) {
	bytes := (len(pages) - byName) * vm.PageSize
	c := cursor{mem: img.Memory}
	for i := range pages {
		mi, f, _ := c.at(&pages[i])
		bytes -= mi.resumeStep(f) * midstateStep
	}
	var resumed []uint8
	if bytes < (len(pages)-byName)*vm.PageSize {
		resumed = make([]uint8, len(pages))
	}
	workers := min(runtime.GOMAXPROCS(0), bytes/(hashSpan*vm.PageSize))
	if workers < 2 {
		return resumed, img.hashRun(pages, resumed)
	}
	var wg sync.WaitGroup
	var hashed atomic.Int64
	per := (len(pages) + workers - 1) / workers
	for lo := 0; lo < len(pages); lo += per {
		hi := min(lo+per, len(pages))
		span, steps := pages[lo:hi], resumed
		if steps != nil {
			steps = steps[lo:hi]
		}
		if hi == len(pages) { // the caller is the last worker
			hashed.Add(img.hashRun(span, steps))
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			hashed.Add(img.hashRun(span, steps))
		}()
	}
	wg.Wait()
	return resumed, hashed.Load()
}

// hashRun hashes a span of the image's pages and returns the bytes it
// hashed. A frame this image's capture is the first to take since
// CowFault copied it from an earlier capture (vm.Frame.CopiedFrom),
// written in some lines but not all since, resumes SHA-256 at the last
// midstate step at or before its first written line, from the midstate
// the hash of that earlier capture left there (midstateTable): the
// bytes in front are that capture's, as long as the dirty-line mask
// covers every write, which about one such page in resumeCheckEvery
// checks by hashing whole and comparing. It hashes whole when no such
// midstate is held — that capture was never hashed, or a newer one of
// the page was hashed first — and so does any other frame: restored,
// paged in, zero-filled, or taken again by a later capture. Every
// captured frame leaves its midstates for the next capture to resume
// from; a page that is not a captured frame (loaded, decoded) is hashed
// whole and leaves none, and one held by name is not
// hashed: its hash came with it. The hash is the page's content hash
// either way.
// resumed[i] is set to the step span[i] resumed at, if it did; it may
// be nil when no page of the span can.
func (img *Image) hashRun(span []PageHash, resumed []uint8) int64 {
	h := pageHashers.Get().(*pageHasher)
	defer pageHashers.Put(h)
	var bytes int64
	c := cursor{mem: img.Memory}
	for i := range span {
		mi, f, data := c.at(&span[i])
		if f == nil && data == nil {
			continue // held by name
		}
		if f == nil || mi.midstates == nil {
			span[i].Hash = PageContentHash(data)
			bytes += vm.PageSize
			continue
		}
		idx := f.Idx
		step, base := mi.resumeStep(f), f.Frame.CopiedFrom(mi.capture)
		var from midstate
		check := 0 // the step a page hashed whole instead checks
		if step > 0 {
			var ok bool
			if from, ok = mi.midstates.load(idx, base, step-1); !ok {
				step = 0
			} else if resumeChecked(img.Epoch, idx, &from) {
				step, check = 0, step
			}
		}
		span[i].Hash = h.hash(data, step, from)
		if check > 0 && h.mids[check-1] != from {
			panic(fmt.Sprintf("core: page %d of %q at epoch %d differs in front of byte %d from the capture it was copied from, outside its dirty-line mask %#x: a write was not marked",
				idx, mi.Name, img.Epoch, check*midstateStep, f.Lines))
		}
		mi.midstates.store(idx, mi.capture, base, step, &h.mids)
		if step > 0 {
			resumed[i] = uint8(step)
		}
		bytes += int64(vm.PageSize - step*midstateStep)
	}
	return bytes
}

// resumeStep is the midstate step at which the hash of frame f of mi
// may resume: the last one at or before its first written line, for a
// captured frame written in some lines but not all; 0 for any other (and
// for no frame).
func (mi *MemImage) resumeStep(f *vm.Page) int {
	if mi.midstates == nil || f == nil || !f.PartlyWritten() || f.Lines == 0 {
		return 0
	}
	return bits.TrailingZeros64(f.Lines) << vm.LineShift / midstateStep
}

// PagesHashed reports how many SHA-256 computations stand behind
// PageHashes so far: 0 before its first use, and never more than the
// image's page count — hashes that arrived on the wire as refs are not
// recomputed.
func (img *Image) PagesHashed() int64 { return img.hashed.Load() }

// BytesHashed reports how many bytes the computations PagesHashed
// counts read: a page's whole size, or less for one whose hash resumed
// from a midstate (hashRun).
func (img *Image) BytesHashed() int64 { return img.hashedBytes.Load() }

// PagesPatched reports how many of the pages behind PagesHashed arrived
// as line entries, rebuilt from the receiver's previous epoch.
func (img *Image) PagesPatched() int64 { return img.patched }

// EncodeDelta serializes only this image's own records (not the
// chain), every page literal: the unit of continuous replication. The
// receiver links deltas onto its copy of the chain. It writes the one
// image layout — what EncodeDeltaCompact writes when nothing is skipped,
// byte for byte — without hashing a page. Objects and pages are written
// in ascending (ObjID, page index), so encoding an image twice gives the
// same bytes. A page the image holds by name is read (EncodeLiteral);
// when one cannot be there is no layout to write, and EncodeDelta
// returns nil.
func (img *Image) EncodeDelta() []byte {
	payload, _ := img.EncodeLiteral(nil, nil)
	return payload
}

// EncodeLiteral is EncodeDelta given the bytes a flush read of the
// pages the image holds by name (named, which it does not modify; nil:
// none): the rest of them are read on lane (nil: a lane of the store's
// clock) by the flush's read plan (readNamed), and a failed read is the
// error. A replica link's need-resend writes it on its own lane: the one
// read of a page held by name that a flush leaves to a destination.
func (img *Image) EncodeLiteral(named NamedBytes, lane *storage.Clock) ([]byte, error) {
	pages, _, err := img.pageOrder()
	var list []PageHash
	if err == nil {
		list, err = namedPages(img.Memory)
	}
	if err != nil {
		return nil, err
	}
	if list != nil {
		got := make(NamedBytes, len(list))
		maps.Copy(got, named)
		if err := readNamed(img.Memory, list, nil, lane, got); err != nil {
			return nil, fmt.Errorf("core: epoch %d of group %d: %w", img.Epoch, img.Group, err)
		}
		named = got
	}
	return img.encodeDelta(pages, make([]byte, len(pages)), named), nil
}

// Page tags, the one image layout's: a page entry carries the literal
// bytes (every entry EncodeDelta and Encode write), just the content hash of bytes the receiver is
// believed to hold already (the dedup idea applied to the wire), or the
// lines in which the page differs from the one the receiver holds at
// the previous epoch ("send log records instead of disk pages").
const (
	deltaPageLiteral byte = 0 // payload is the page bytes
	deltaPageRef     byte = 1 // payload is the 32-byte content hash
	deltaPageLines   byte = 2 // payload is the line mask, the masked lines' bytes, the 32-byte content hash
)

// EncodeDeltaCompact serializes one replication delta like EncodeDelta
// but replaces every page whose content hash `skip` claims the
// receiver holds with a 34-byte hash reference. It returns the
// payload, the image's PageHashes (the pages in encoding order — the
// sender caches these as receiver-held once the epoch is acked; shared,
// not to be modified), and how many pages were elided. The claim is an
// optimization, never a correctness input: a receiver missing a
// referenced block answers with a resend request for the full delta.
// A page the image holds by name goes by its hash (EncodeDeltaLink).
// The payload is nil when the store the image holds pages in by name
// cannot list them.
func (img *Image) EncodeDeltaCompact(skip func(objstore.Hash) bool) (payload []byte, pages []PageHash, skipped int) {
	payload, pages, skipped, _, _ = img.EncodeDeltaLink(skip, 0, nil)
	return payload, pages, skipped
}

// EncodeDeltaLink is EncodeDeltaCompact for one replica link, given the
// last epoch its receiver holds contiguously (0: none). When that is
// the epoch before this incremental image, a captured frame written in
// some but not all of its lines since the previous barrier, and not
// skipped as a ref, goes as a line entry: this page at the previous
// epoch with these lines replaced, and the content hash of the result.
// lined counts those pages. The receiver rebuilds each from its own copy
// of the previous epoch and checks it against the hash; a base it lacks
// or a result that does not match draws the same resend request as a
// missing ref, so neither the line masks nor the sender's idea of what
// the receiver holds is ever a correctness input. A page the image holds
// by name in a store goes literal with the bytes a flush read for it
// (named), and by its hash where skip claims it or named has none: it
// reads nothing. The error is the one PageHashes met listing the pages
// held by name.
func (img *Image) EncodeDeltaLink(skip func(objstore.Hash) bool, acked uint64, named NamedBytes) (payload []byte, pages []PageHash, skipped, lined int, err error) {
	if pages, _, err = img.pageHashes(); err != nil {
		return nil, nil, 0, 0, err
	}
	tags := make([]byte, len(pages))
	lines := !img.Full && acked != 0 && acked+1 == img.Epoch
	c := cursor{mem: img.Memory}
	for i := range pages {
		switch _, f, data := c.at(&pages[i]); {
		case skip != nil && skip(pages[i].Hash), data == nil && named[pages[i].Hash] == nil:
			tags[i] = deltaPageRef
			skipped++
		case lines && f != nil && f.PartlyWritten():
			tags[i] = deltaPageLines
			lined++
		}
	}
	return img.encodeDelta(pages, tags, named), pages, skipped, lined, nil
}

// deltaSink is what the delta layout is written to: a codec.Sizer to
// measure it, then a codec.Encoder grown to that size.
type deltaSink interface {
	U64(uint64)
	I64(int64)
	U32(uint32)
	U8(uint8)
	Bool(bool)
	Bytes2([]byte)
	Raw([]byte)
	Str(string)
	U64Slice([]uint64)
}

// encodeDelta writes the image layout into a buffer of exactly its
// size. pages is the image's pages in wire order, and page i goes as the
// entry tags[i] names; a literal page the image holds by name goes with
// its bytes in named.
func (img *Image) encodeDelta(pages []PageHash, tags []byte, named NamedBytes) []byte {
	ids := objectOrder(img.Memory)

	write := func(w deltaSink) {
		w.U64(img.Group)
		w.U64(img.Epoch)
		w.U64(img.Gen)
		w.Str(img.Name)
		w.Bool(img.Full)
		w.U64(uint64(len(img.Meta)))
		for _, m := range img.Meta {
			w.U64(m.OID)
			w.U64(uint64(m.Kind))
			w.Bytes2(m.Data)
		}
		w.U64(uint64(len(ids)))
		next, c := 0, cursor{mem: img.Memory}
		for _, id := range ids {
			mi := img.Memory[id]
			w.U64(id)
			w.Str(mi.Name)
			w.I64(mi.Size)
			end := next
			for end < len(pages) && pages[end].ObjID == id {
				end++
			}
			w.U64(uint64(end - next))
			for ; next < end; next++ {
				p := &pages[next]
				_, f, data := c.at(p)
				w.I64(p.Idx)
				w.U8(tags[next])
				switch tags[next] {
				case deltaPageRef:
					w.Bytes2(p.Hash[:])
				case deltaPageLines:
					mask := f.Lines
					w.U64(mask)
					w.U64(uint64(bits.OnesCount64(mask)) << vm.LineShift)
					for m := mask; m != 0; m &= m - 1 {
						off := bits.TrailingZeros64(m) << vm.LineShift
						w.Raw(data[off : off+vm.LineSize])
					}
					w.Bytes2(p.Hash[:])
				case deltaPageLiteral:
					if data == nil {
						data = named[p.Hash]
					}
					w.Bytes2(data)
				}
			}
			w.U64(uint64(len(mi.Heat)))
			for _, h := range mi.Heat {
				w.I64(h.Page)
				w.U32(h.Count)
			}
		}
		w.U64Slice(img.Roots)
	}
	var size codec.Sizer
	write(&size)
	e := codec.NewEncoder()
	e.Grow(size.Len())
	write(e)
	return e.Bytes()
}

// decodeObjects parses the metadata and the objects, with their pages
// and heat, handing each page entry's payload (everything after its
// index) to page, which returns the frame holding it; a nil frame with a
// nil error skips the page. Counts come off the wire, so each is checked
// against the bytes that remain before anything is sized by it. Objects
// must come in ascending ID and each object's pages in ascending index,
// as every encoder writes them: anything else — an object or page listed
// twice among them, whose second copy would orphan the first one's
// frames — is corrupt, so each page run is built in wire order.
func decodeObjects(d *codec.Decoder, img *Image, page func(objID uint64, idx int64) (*vm.Frame, error)) error {
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		img.Meta = append(img.Meta, MetaRec{OID: d.U64(), Kind: kernel.Kind(d.U64()), Data: d.Bytes2()})
	}
	var last uint64
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		mi := &MemImage{ObjID: d.U64(), Name: d.Str(), Size: d.I64()}
		if d.Err() != nil {
			break
		}
		if i > 0 && mi.ObjID <= last {
			return fmt.Errorf("decoding image delta: object %d after object %d: %w", mi.ObjID, last, codec.ErrCorrupt)
		}
		img.Memory[mi.ObjID], last = mi, mi.ObjID
		n := d.Count()
		mi.Pages = make([]vm.Page, 0, n)
		for j, prev := 0, int64(0); j < n && d.Err() == nil; j++ {
			idx := d.I64()
			if d.Err() != nil {
				break
			}
			if j > 0 && idx <= prev {
				return fmt.Errorf("decoding image delta: page %d of object %d after page %d: %w", idx, mi.ObjID, prev, codec.ErrCorrupt)
			}
			prev = idx
			f, err := page(mi.ObjID, idx)
			if err != nil {
				return err
			}
			if f != nil {
				mi.Pages = append(mi.Pages, vm.Page{Idx: idx, Frame: f, Lines: vm.AllLines})
			}
		}
		for j, n := 0, d.Count(); j < n && d.Err() == nil; j++ {
			mi.Heat = append(mi.Heat, vm.PageHeat{Page: d.I64(), Count: d.U32()})
		}
		if !vm.HeatInOrder(mi.Heat) && d.Err() == nil {
			// Heat resolves by vm.MergeHeat, which needs page order.
			return fmt.Errorf("decoding image delta: heat of object %d out of page order: %w", mi.ObjID, codec.ErrCorrupt)
		}
	}
	return nil
}

// DecodeDelta parses an image whose every page is a literal — what
// EncodeDelta and Encode write. It is DecodeDeltaCompact with nothing to
// resolve a ref or rebuild a line entry against, so either is corrupt
// here. The caller links Prev.
func DecodeDelta(payload []byte, pm *vm.PhysMem) (*Image, error) {
	img, missing, err := DecodeDeltaCompact(payload, pm, nil, nil)
	if err == nil && len(missing) > 0 {
		img.Release(pm)
		return nil, fmt.Errorf("core: image delta of group %d epoch %d: %d pages are refs or line entries: %w",
			img.Group, img.Epoch, len(missing), codec.ErrCorrupt)
	}
	return img, err
}

// DecodeDeltaCompact is the one image parser: it reads whatever
// EncodeDeltaLink, EncodeDeltaCompact, EncodeDelta or Encode wrote. Literal
// pages are copied into fresh frames and hashed as they are copied; a hash
// ref is handed to `resolve` (the receiver's block index, typically
// backed by its chains and local object store), which returns a frame
// holding those bytes with one reference taken for the image; a line
// entry's page is rebuilt in a fresh frame from `base` — which copies
// the page as the receiver holds it at a given epoch of a group into
// dst and reports whether it does — at the epoch before this one, with
// the sent lines copied over it, and hashed. Either way the page's hash
// is now known, so the image comes back with its PageHashes filled in
// and no holder need hash it again. Refs that fail to resolve, line
// entries whose base is not held and rebuilt pages that do not hash to
// the hash sent with them are collected in missing; when missing is
// non-empty the image is incomplete — the caller must Release it and
// request a full resend — but Group/Epoch are valid for addressing the
// request. A line entry whose byte count is not its mask's lines, or in
// a full image, is corrupt.
func DecodeDeltaCompact(payload []byte, pm *vm.PhysMem, resolve func(objstore.Hash) (*vm.Frame, bool),
	base func(group, epoch, objID uint64, idx int64, dst []byte) bool) (img *Image, missing []objstore.Hash, err error) {
	d := codec.NewDecoder(payload)
	img = &Image{
		Group:  d.U64(),
		Epoch:  d.U64(),
		Gen:    d.U64(),
		Name:   d.Str(),
		Full:   d.Bool(),
		Memory: make(map[uint64]*MemImage),
	}
	var pages []PageHash
	var hashed, patched int64
	entry := lineEntry{base: base, group: img.Group, epoch: img.Epoch - 1}
	hash := func() (h objstore.Hash, err error) {
		raw := d.View2()
		if d.Err() == nil && len(raw) != len(h) {
			err = fmt.Errorf("core: image delta: bad hash length %d: %w", len(raw), codec.ErrCorrupt)
		}
		copy(h[:], raw)
		return h, err
	}
	err = decodeObjects(d, img, func(objID uint64, idx int64) (*vm.Frame, error) {
		switch tag := d.U8(); tag {
		case deltaPageLiteral:
			data := d.View2()
			if d.Err() != nil {
				return nil, nil
			}
			f, err := pm.AllocData(data)
			if err != nil {
				return nil, err
			}
			// Hash what the frame holds, not what the wire carried: a
			// short literal is zero-padded to a page.
			pages = append(pages, PageHash{ObjID: objID, Idx: idx, Hash: PageContentHash(f.Data)})
			hashed++
			return f, nil
		case deltaPageRef:
			h, err := hash()
			if err != nil || d.Err() != nil {
				return nil, err
			}
			if resolve != nil {
				if f, ok := resolve(h); ok {
					pages = append(pages, PageHash{ObjID: objID, Idx: idx, Hash: h})
					return f, nil
				}
			}
			missing = append(missing, h)
			return nil, nil
		case deltaPageLines:
			mask, lines := d.U64(), d.View2()
			h, err := hash()
			if err != nil || d.Err() != nil {
				return nil, err
			}
			if len(lines) != bits.OnesCount64(mask)<<vm.LineShift || img.Full {
				return nil, fmt.Errorf("core: image delta: line entry of %d bytes for mask %#x (full=%v): %w",
					len(lines), mask, img.Full, codec.ErrCorrupt)
			}
			// The base copy writes the whole frame, so it is filled as it
			// comes off the free list, without being cleared first.
			entry.objID, entry.mask, entry.lines, entry.hash = objID, mask, lines, h
			f, err := pm.Fill(func(dst []byte) (bool, error) { return entry.fill(idx, dst), nil })
			if err != nil {
				return nil, err
			}
			if f == nil {
				missing = append(missing, h)
				return nil, nil
			}
			pages = append(pages, PageHash{ObjID: objID, Idx: idx, Hash: h})
			hashed++
			patched++
			return f, nil
		default:
			return nil, fmt.Errorf("core: image delta: bad page tag %d: %w", tag, codec.ErrCorrupt)
		}
	})
	if err == nil {
		img.Roots = d.U64Slice()
		err = d.Finish("image delta")
	}
	if err != nil {
		img.Release(pm)
		return nil, nil, err
	}
	if len(missing) == 0 {
		img.pages, img.hashDone, img.patched = pages, true, patched
		img.hashed.Store(hashed)
		img.hashedBytes.Store(hashed * vm.PageSize)
	}
	return img, missing, nil
}

// lineEntry is a line entry's page as a delta decode pages it in: page
// idx of object objID at epoch, as base copies it, with the entry's
// lines copied over it. It holds the page only if the result hashes to
// hash. One decode reuses it for all its entries.
type lineEntry struct {
	base         func(group, epoch, objID uint64, idx int64, dst []byte) bool
	group, epoch uint64
	objID, mask  uint64
	lines        []byte
	hash         objstore.Hash
}

// fill writes the page into dst and reports whether it holds it.
func (e *lineEntry) fill(idx int64, dst []byte) bool {
	return e.base != nil && e.base(e.group, e.epoch, e.objID, idx, dst) && patchLines(dst, e.mask, e.lines, e.hash)
}

// patchLines copies a line entry's lines over its base page, in mask
// order, and reports whether the result hashes to h.
func patchLines(page []byte, mask uint64, lines []byte, h objstore.Hash) bool {
	for m := mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m) << vm.LineShift
		lines = lines[copy(page[off:off+vm.LineSize], lines):]
	}
	return PageContentHash(page) == h
}

// String summarizes the image.
func (img *Image) String() string {
	return fmt.Sprintf("image(group=%d epoch=%d full=%v objs=%d pages=%d)",
		img.Group, img.Epoch, img.Full, len(img.Memory), img.PageCount())
}
