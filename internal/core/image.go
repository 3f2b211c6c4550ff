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
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"aurora/internal/codec"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
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
	// Pages holds the captured frames. The image owns one reference
	// per frame; restores COW-share against them without copying.
	Pages map[int64]*vm.Frame
	// SwapData holds pages that were on swap at the barrier, already
	// read back as bytes.
	SwapData map[int64][]byte
	// View locates pages still sitting in an object store: a lazily
	// loaded image (StoreBackend.LoadLazy) carries the store's live
	// page view instead of bytes, and restore attaches a demand-paging
	// source that looks up, reads — and hash-verifies — each block at
	// first touch. Nothing here is sized by the image.
	View *objstore.PageView
	// Heat is the access-count snapshot driving restore prefetch: the
	// non-zero counters in ascending page order.
	Heat []vm.PageHeat
	// Lines is the object's dirty set at the barrier (vm's
	// CheckpointSet.Lines): the 64-byte lines in which each captured
	// frame differs from the object's page at the previous epoch. Only
	// an incremental image's replica encode reads it; images that did
	// not come from a barrier have none.
	Lines map[int64]uint64
}

// PageCount returns the total captured page count.
func (mi *MemImage) PageCount() int { return len(mi.Pages) + len(mi.SwapData) + mi.View.Len() }

// PageData returns one page's bytes regardless of where it was
// captured from, or nil.
func (mi *MemImage) PageData(idx int64) []byte {
	if f, ok := mi.Pages[idx]; ok {
		return f.Data
	}
	return mi.SwapData[idx]
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

	// source is the store backend a lazily loaded image demand-pages
	// from (nil for fully materialized images); peers are consulted,
	// by content hash, when the source fails a page read.
	source *StoreBackend
	peers  []BlockProvider

	mu       sync.Mutex
	released bool
	sources  []*lazyPageSource // demand-paging sources created by restore

	// The PageHashes memo: hashMu guards pages, which are valid once
	// hashDone is set; hashed is how many of them were hashed here and
	// not supplied by the wire, patched how many of those a compact
	// delta's decoder rebuilt from line entries.
	hashMu   sync.Mutex
	hashDone bool
	pages    []PageHash
	hashed   atomic.Int64
	patched  int64
}

// AddBlockPeer registers a peer block provider (another store, a
// netback replica) that demand paging may fail over to when the
// image's primary store cannot serve a page.
func (img *Image) AddBlockPeer(p BlockProvider) {
	img.mu.Lock()
	img.peers = append(img.peers, p)
	img.mu.Unlock()
}

// takeSources drains the lazy sources restore created for this image,
// so the restored group can adopt them (health binding, repair stats).
func (img *Image) takeSources() []*lazyPageSource {
	img.mu.Lock()
	defer img.mu.Unlock()
	out := img.sources
	img.sources = nil
	return out
}

// MetaBytes totals the metadata payload size.
func (img *Image) MetaBytes() int {
	n := 0
	for _, m := range img.Meta {
		n += len(m.Data)
	}
	return n
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
// flush: captured frames and swap-page copies. A store view is
// excluded — it points at store blocks, not RAM. This is what the
// fleet's global memory budget charges per queued image.
func (img *Image) FootprintBytes() int64 {
	var n int64
	for _, mi := range img.Memory {
		n += int64(len(mi.Pages)+len(mi.SwapData)) * vm.PageSize
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
	img.mu.Unlock()
	for _, mi := range img.Memory {
		for _, f := range mi.Pages {
			pm.Free(f)
		}
		mi.Pages, mi.Lines = nil, nil
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
// and older is released. Every page, swap page, VM object and metadata
// record of older that newer does not shadow moves into newer, which
// takes older's Full flag and Prev; a full newer shadows everything.
// Each object's smaller page map moves into the larger, so a small
// delta folds into a large base in O(delta). A frame newer shadows goes
// to free with its page's hash (zero unless older's PageHashes had been
// computed). When both images' PageHashes had been computed, newer's
// become the merged set; otherwise they are recomputed on next use.
// Neither image may be read elsewhere while it folds, and a walk that
// reaches older afterwards finds it released.
func Fold(older, newer *Image, free func(PageHash, *vm.Frame)) {
	older.mu.Lock()
	mem, meta, prev, full := older.Memory, older.Meta, older.Prev, older.Full
	older.released, older.Memory, older.Meta, older.Prev = true, nil, nil, nil
	older.mu.Unlock()
	older.hashMu.Lock()
	oldSums, oldDone := older.pages, older.hashDone
	older.pages, older.hashDone = nil, false
	older.hashMu.Unlock()
	shadowed := func(id uint64) func(int64, *vm.Frame) {
		return func(idx int64, f *vm.Frame) {
			p := PageHash{ObjID: id, Idx: idx}
			if i, ok := findPage(oldSums, id, idx); ok {
				p.Hash = oldSums[i].Hash
			}
			free(p, f)
		}
	}

	newer.mu.Lock()
	defer newer.mu.Unlock()
	if newer.Full {
		for id, mi := range mem {
			drop := shadowed(id)
			for idx, f := range mi.Pages {
				drop(idx, f)
			}
		}
		return
	}
	for id, mi := range mem {
		if heir, ok := newer.Memory[id]; ok {
			foldPages(mi, heir, shadowed(id))
			if len(heir.Heat) == 0 {
				heir.Heat = mi.Heat
			}
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
}

// foldPages moves old's pages and swap pages into heir wherever heir
// does not shadow them — old's page map into heir's or, when old's is
// the larger, heir's into old's, which heir then takes — and hands each
// frame heir shadows to free.
func foldPages(old, heir *MemImage, free func(int64, *vm.Frame)) {
	for idx := range heir.SwapData {
		if f, ok := old.Pages[idx]; ok {
			free(idx, f)
			delete(old.Pages, idx)
		}
	}
	if len(old.Pages) > len(heir.Pages) {
		for idx, f := range heir.Pages {
			if g, ok := old.Pages[idx]; ok {
				free(idx, g)
			}
			old.Pages[idx] = f
		}
		heir.Pages = old.Pages
	} else {
		for idx, f := range old.Pages {
			if _, ok := heir.Pages[idx]; ok {
				free(idx, f)
			} else {
				heir.Pages[idx] = f
			}
		}
	}
	for idx, d := range old.SwapData {
		_, paged := heir.Pages[idx]
		_, swapped := heir.SwapData[idx]
		if !paged && !swapped {
			if heir.SwapData == nil {
				heir.SwapData = make(map[int64][]byte)
			}
			heir.SwapData[idx] = d
		}
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

// chainState is the state at one image, read off its chain in one walk:
// the newest metadata record per OID, and per VM object its newest name,
// size and heat and its pages — newest capture wins. A restore resolves
// an image once and builds everything from this.
type chainState struct {
	meta []MetaRec
	objs map[uint64]*objectState
	// own counts the pages the image itself captured (not the chain
	// under it): what a restore's metadata charge is sized by.
	own int64
	// pinned is the allocator the frames below hold a reference from
	// (nil: none taken).
	pinned *vm.PhysMem
}

// objectState is one VM object's part of a chainState.
type objectState struct {
	name   string
	size   int64
	frames map[int64]*vm.Frame // captured frames
	bytes  map[int64][]byte    // swap pages, already read back
	view   *objstore.PageView  // store-resident pages of a lazily loaded image
	heat   []vm.PageHeat
}

func (o *objectState) has(idx int64) bool {
	if _, ok := o.frames[idx]; ok {
		return true
	}
	_, ok := o.bytes[idx]
	return ok
}

// resolve walks img and the images under it, newest first, down to the
// nearest full one, reading each under its lock. Any image on the way
// that has been released makes it ErrNoImage: that part of the history
// now lives in a backend only, and resolving around the hole would pass
// off a partial state as the whole. With pin set every frame collected
// takes a reference from pin, so that a release of the chain after this
// walk cannot take the frames from under the caller, who drops them with
// unpin.
func (img *Image) resolve(pin *vm.PhysMem) (*chainState, error) {
	st := &chainState{meta: make([]MetaRec, 0, len(img.Meta)), objs: make(map[uint64]*objectState, len(img.Memory)), pinned: pin}
	seen := make(map[uint64]bool, len(img.Meta))
	for cur := img; cur != nil; {
		cur.mu.Lock()
		if cur.released {
			cur.mu.Unlock()
			st.unpin()
			return nil, fmt.Errorf("%w: image of group %d epoch %d builds on epoch %d, whose frames were already released",
				ErrNoImage, img.Group, img.Epoch, cur.Epoch)
		}
		for _, m := range cur.Meta {
			if !seen[m.OID] {
				seen[m.OID] = true
				st.meta = append(st.meta, m)
			}
		}
		for id, mi := range cur.Memory {
			if cur == img {
				st.own += int64(mi.PageCount())
			}
			o := st.objs[id]
			if o == nil {
				o = &objectState{name: mi.Name, size: mi.Size}
				st.objs[id] = o
			}
			for idx, f := range mi.Pages {
				if !o.has(idx) {
					if pin != nil {
						f.Ref()
					}
					if o.frames == nil {
						o.frames = make(map[int64]*vm.Frame, len(mi.Pages))
					}
					o.frames[idx] = f
				}
			}
			for idx, d := range mi.SwapData {
				if !o.has(idx) {
					if o.bytes == nil {
						o.bytes = make(map[int64][]byte, len(mi.SwapData))
					}
					o.bytes[idx] = d
				}
			}
			if o.view == nil {
				o.view = mi.View
			}
			if len(o.heat) == 0 {
				o.heat = mi.Heat
			}
		}
		prev, full := cur.Prev, cur.Full
		cur.mu.Unlock()
		if full {
			break
		}
		cur = prev
	}
	return st, nil
}

// unpin drops the references resolve took.
func (st *chainState) unpin() {
	if st.pinned == nil {
		return
	}
	for _, o := range st.objs {
		for _, f := range o.frames {
			st.pinned.Free(f)
		}
	}
	st.pinned = nil
}

// objectIDs lists the state's VM objects by ascending ID.
func (st *chainState) objectIDs() []uint64 {
	ids := make([]uint64, 0, len(st.objs))
	for id := range st.objs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Resolvable reports whether the state at this image can still be
// resolved from memory: neither it nor any image it builds on has been
// released.
func (img *Image) Resolvable() bool {
	_, err := img.resolve(nil)
	return err == nil
}

// ResolvePage finds one page of an object at this image: the newest
// bytes captured for it along the chain, or nil when the chain holds
// none (or reaches a released image before it finds them).
func (img *Image) ResolvePage(objID uint64, idx int64) []byte {
	for cur := img; cur != nil; {
		cur.mu.Lock()
		released, prev := cur.released, cur.Prev
		cur.mu.Unlock()
		if released {
			return nil
		}
		if mi, ok := cur.Memory[objID]; ok {
			if data := mi.PageData(idx); data != nil {
				return data
			}
		}
		if cur.Full {
			return nil
		}
		cur = prev
	}
	return nil
}

// Encode serializes a *consolidated* view of the image chain (the
// effective state at this epoch) for network transfer or file export.
// Objects go by ascending ID and pages by ascending index, so one chain
// always encodes to the same bytes.
func (img *Image) Encode() []byte {
	st, err := img.resolve(nil)
	if err != nil {
		st = &chainState{} // nothing is resolvable: the identity alone
	}
	e := codec.NewEncoder()
	e.U64(img.Group)
	e.U64(img.Epoch)
	e.U64(img.Gen)
	e.Str(img.Name)
	e.U64(uint64(len(st.meta)))
	for _, m := range st.meta {
		e.U64(m.OID)
		e.U64(uint64(m.Kind))
		e.Bytes2(m.Data)
	}
	objIDs := st.objectIDs()
	e.U64(uint64(len(objIDs)))
	for _, id := range objIDs {
		o := st.objs[id]
		e.U64(id)
		e.Str(o.name)
		e.I64(o.size)
		e.U64(uint64(len(o.frames) + len(o.bytes)))
		idxs := make([]int64, 0, len(o.frames)+len(o.bytes))
		for idx := range o.frames {
			idxs = append(idxs, idx)
		}
		for idx := range o.bytes {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		for _, idx := range idxs {
			e.I64(idx)
			if f, ok := o.frames[idx]; ok {
				e.Bytes2(f.Data)
			} else {
				e.Bytes2(o.bytes[idx])
			}
		}
		heat := o.heat
		e.U64(uint64(len(heat)))
		for _, h := range heat {
			e.I64(h.Page)
			e.U32(h.Count)
		}
	}
	e.U64Slice(img.Roots)
	return e.Bytes()
}

// DecodeImage parses an encoded image into a standalone full image.
// Page data is copied into fresh frames owned by the image.
func DecodeImage(payload []byte, pm *vm.PhysMem) (*Image, error) {
	d := codec.NewDecoder(payload)
	img := &Image{
		Group:  d.U64(),
		Epoch:  d.U64(),
		Gen:    d.U64(),
		Name:   d.Str(),
		Full:   true,
		Memory: make(map[uint64]*MemImage),
	}
	if err := decodeBody(d, img, pm, "image", literalPage); err != nil {
		return nil, err
	}
	return img, nil
}

// PageHash names one page an image holds in bytes — a captured frame
// or a swap-page copy, never a store ref — and its content hash.
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

// objectOrder lists the image's own VM objects by ascending ID: the
// order of the wire format and of the store's records.
func (img *Image) objectOrder() []uint64 {
	ids := make([]uint64, 0, len(img.Memory))
	for id := range img.Memory {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// pageOrder lists the image's own pages in wire order — ascending
// (ObjID, page index) — with their hashes left zero.
func (img *Image) pageOrder() []PageHash {
	pages := make([]PageHash, 0, img.PageCount())
	for id, mi := range img.Memory {
		for idx := range mi.Pages {
			pages = append(pages, PageHash{ObjID: id, Idx: idx})
		}
		for idx := range mi.SwapData {
			pages = append(pages, PageHash{ObjID: id, Idx: idx})
		}
	}
	sortPages(pages)
	return pages
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

// PageHashes returns the content hash of every page the image holds in
// bytes, in wire order: ascending (ObjID, page index). It is the one
// place the replication path gets a page hash from. The set is
// computed on first use — the image's first flush to a replica, or its
// joining a receiver's chain — and kept, so however many links, encodes
// and receiver indexes ask, each page of an image is hashed at most
// once on a machine; concurrent callers wait for the first and share
// its result, which none may modify. Images that arrived as compact
// deltas come with the set filled in by the decoder (see
// DecodeDeltaCompact).
func (img *Image) PageHashes() []PageHash {
	img.hashMu.Lock()
	defer img.hashMu.Unlock()
	if !img.hashDone {
		pages := img.pageOrder()
		img.hashPages(pages)
		img.pages, img.hashDone = pages, true
		img.hashed.Store(int64(len(pages)))
	}
	return img.pages
}

// hashSpan is the least number of pages worth a goroutine of their own:
// about two hundred microseconds of SHA-256. An image of fewer than two
// spans is hashed inline — at 64 pages the fork-join measurably cost a
// replicated group more than it saved, its other core being busy with
// the replica links (EXPERIMENTS.md "Flush data path").
const hashSpan = 64

// hashPages fills in the hashes of pages, the image's own pages in
// order. Hashing is pure, so a large set is split into contiguous
// spans hashed on up to GOMAXPROCS goroutines — each writes only its
// own span — and joined before returning: nothing outlives the call
// and the result does not depend on how it was split.
func (img *Image) hashPages(pages []PageHash) {
	workers := min(runtime.GOMAXPROCS(0), len(pages)/hashSpan)
	if workers < 2 {
		img.hashRun(pages)
		return
	}
	var wg sync.WaitGroup
	per := (len(pages) + workers - 1) / workers
	for ; len(pages) > per; pages = pages[per:] {
		wg.Add(1)
		go func(span []PageHash) {
			defer wg.Done()
			img.hashRun(span)
		}(pages[:per])
	}
	img.hashRun(pages) // the caller is the last worker
	wg.Wait()
}

func (img *Image) hashRun(span []PageHash) {
	for i := range span {
		span[i].Hash = PageContentHash(img.Memory[span[i].ObjID].PageData(span[i].Idx))
	}
}

// PagesHashed reports how many SHA-256 computations stand behind
// PageHashes so far: 0 before its first use, and never more than the
// image's page count — hashes that arrived on the wire as refs are not
// recomputed.
func (img *Image) PagesHashed() int64 { return img.hashed.Load() }

// PagesPatched reports how many of the pages behind PagesHashed arrived
// as line entries, rebuilt from the receiver's previous epoch.
func (img *Image) PagesPatched() int64 { return img.patched }

// EncodeDelta serializes only this image's own records (not the
// chain): the unit of continuous replication. The receiver links
// deltas onto its copy of the chain. Objects and pages are written in
// ascending (ObjID, page index), so encoding an image twice gives the
// same bytes.
func (img *Image) EncodeDelta() []byte {
	return img.encodeDelta(img.pageOrder(), nil)
}

// Compact-delta page tags: a page entry in a compact delta carries the
// literal bytes, just the content hash of bytes the receiver is
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
func (img *Image) EncodeDeltaCompact(skip func(objstore.Hash) bool) (payload []byte, pages []PageHash, skipped int) {
	payload, pages, skipped, _ = img.EncodeDeltaLink(skip, 0)
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
// the receiver holds is ever a correctness input.
func (img *Image) EncodeDeltaLink(skip func(objstore.Hash) bool, acked uint64) (payload []byte, pages []PageHash, skipped, lined int) {
	pages = img.PageHashes()
	tags := make([]byte, len(pages))
	lines := !img.Full && acked != 0 && acked+1 == img.Epoch
	for i, p := range pages {
		switch {
		case skip != nil && skip(p.Hash):
			tags[i] = deltaPageRef
			skipped++
		case lines && img.Memory[p.ObjID].partlyWritten(p.Idx):
			tags[i] = deltaPageLines
			lined++
		}
	}
	return img.encodeDelta(pages, tags), pages, skipped, lined
}

// partlyWritten reports whether page idx is a captured frame that
// differs from the object's page at the previous barrier in some lines
// but not all.
func (mi *MemImage) partlyWritten(idx int64) bool {
	if _, ok := mi.Pages[idx]; !ok {
		return false
	}
	mask, ok := mi.Lines[idx]
	return ok && mask != vm.AllLines
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

// encodeDelta writes the delta wire format into a buffer of exactly
// its size. pages is the image's pages in wire order; tags selects the
// compact layout, in which page i goes as the entry tags[i] names, and
// nil the plain one, every page its bytes.
func (img *Image) encodeDelta(pages []PageHash, tags []byte) []byte {
	ids := img.objectOrder()

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
		next := 0
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
				w.I64(p.Idx)
				if tags == nil {
					w.Bytes2(mi.PageData(p.Idx))
					continue
				}
				w.U8(tags[next])
				switch tags[next] {
				case deltaPageRef:
					w.Bytes2(p.Hash[:])
				case deltaPageLines:
					mask, data := mi.Lines[p.Idx], mi.Pages[p.Idx].Data
					w.U64(mask)
					w.U64(uint64(bits.OnesCount64(mask)) << vm.LineShift)
					for m := mask; m != 0; m &= m - 1 {
						off := bits.TrailingZeros64(m) << vm.LineShift
						w.Raw(data[off : off+vm.LineSize])
					}
					w.Bytes2(p.Hash[:])
				default:
					w.Bytes2(mi.PageData(p.Idx))
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

// pageDecoder reads one page entry's payload (everything after its
// index) and returns the frame holding it; a nil frame with a nil
// error skips the page.
type pageDecoder func(d *codec.Decoder, pm *vm.PhysMem, objID uint64, idx int64) (*vm.Frame, error)

// literalPage is the pageDecoder of a page stored as its bytes, which
// it copies once: wire buffer to frame.
func literalPage(d *codec.Decoder, pm *vm.PhysMem, _ uint64, _ int64) (*vm.Frame, error) {
	data := d.View2()
	if d.Err() != nil {
		return nil, nil
	}
	return pm.AllocData(data)
}

// decodeBody parses what follows the header in all three image
// layouts: metadata, objects with their pages and heat, roots. Counts
// come off the wire, so each is checked against the bytes that remain
// before anything is sized by it, and an object or page that appears
// twice is corrupt (the second would orphan the first one's frames).
// On error the frames decoded so far have been released.
func decodeBody(d *codec.Decoder, img *Image, pm *vm.PhysMem, what string, page pageDecoder) error {
	err := decodeObjects(d, img, pm, what, page)
	if err == nil {
		img.Roots = d.U64Slice()
		err = d.Finish(what)
	}
	if err != nil {
		img.Release(pm)
	}
	return err
}

func decodeObjects(d *codec.Decoder, img *Image, pm *vm.PhysMem, what string, page pageDecoder) error {
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		img.Meta = append(img.Meta, MetaRec{OID: d.U64(), Kind: kernel.Kind(d.U64()), Data: d.Bytes2()})
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		mi := &MemImage{ObjID: d.U64(), Name: d.Str(), Size: d.I64(), Pages: make(map[int64]*vm.Frame)}
		if _, dup := img.Memory[mi.ObjID]; dup {
			return fmt.Errorf("decoding %s: object %d appears twice: %w", what, mi.ObjID, codec.ErrCorrupt)
		}
		img.Memory[mi.ObjID] = mi
		for j, n := 0, d.Count(); j < n && d.Err() == nil; j++ {
			idx := d.I64()
			if d.Err() != nil {
				break
			}
			if _, dup := mi.Pages[idx]; dup {
				return fmt.Errorf("decoding %s: page %d of object %d appears twice: %w", what, idx, mi.ObjID, codec.ErrCorrupt)
			}
			f, err := page(d, pm, mi.ObjID, idx)
			if err != nil {
				return err
			}
			if f != nil {
				mi.Pages[idx] = f
			}
		}
		for j, n := 0, d.Count(); j < n && d.Err() == nil; j++ {
			mi.Heat = append(mi.Heat, vm.PageHeat{Page: d.I64(), Count: d.U32()})
		}
	}
	return nil
}

// DecodeDelta parses one replication delta. The caller links Prev.
func DecodeDelta(payload []byte, pm *vm.PhysMem) (*Image, error) {
	d := codec.NewDecoder(payload)
	img := &Image{
		Group:  d.U64(),
		Epoch:  d.U64(),
		Gen:    d.U64(),
		Name:   d.Str(),
		Full:   d.Bool(),
		Memory: make(map[uint64]*MemImage),
	}
	if err := decodeBody(d, img, pm, "image delta", literalPage); err != nil {
		return nil, err
	}
	return img, nil
}

// DecodeDeltaCompact parses one compact replication delta. Literal
// pages are copied into fresh frames and hashed as they arrive; a hash
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
			err = fmt.Errorf("core: compact delta: bad hash length %d: %w", len(raw), codec.ErrCorrupt)
		}
		copy(h[:], raw)
		return h, err
	}
	err = decodeBody(d, img, pm, "compact image delta", func(d *codec.Decoder, pm *vm.PhysMem, objID uint64, idx int64) (*vm.Frame, error) {
		switch tag := d.U8(); tag {
		case deltaPageLiteral:
			f, err := literalPage(d, pm, objID, idx)
			if f != nil {
				// Hash what the frame holds, not what the wire carried:
				// a short literal is zero-padded to a page.
				pages = append(pages, PageHash{ObjID: objID, Idx: idx, Hash: PageContentHash(f.Data)})
				hashed++
			}
			return f, err
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
				return nil, fmt.Errorf("core: compact delta: line entry of %d bytes for mask %#x (full=%v): %w",
					len(lines), mask, img.Full, codec.ErrCorrupt)
			}
			// The base copy writes the whole frame, so it is filled as it
			// comes off the free list, without being cleared first.
			entry.objID, entry.mask, entry.lines, entry.hash = objID, mask, lines, h
			f, err := pm.PageIn(&entry, idx)
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
			return nil, fmt.Errorf("core: compact delta: bad page tag %d: %w", tag, codec.ErrCorrupt)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if len(missing) == 0 {
		sortPages(pages) // a no-op pass for a sender that wrote them in order
		img.pages, img.hashDone, img.patched = pages, true, patched
		img.hashed.Store(hashed)
	}
	return img, missing, nil
}

// lineEntry is the vm.PageSource a line entry's page is paged in
// through: page idx of object objID at epoch, as base copies it, with
// the entry's lines copied over it. It holds the page only if the
// result hashes to hash. One decode reuses it for all its entries.
type lineEntry struct {
	base         func(group, epoch, objID uint64, idx int64, dst []byte) bool
	group, epoch uint64
	objID, mask  uint64
	lines        []byte
	hash         objstore.Hash
}

// FetchInto implements vm.PageSource.
func (e *lineEntry) FetchInto(idx int64, dst []byte) (bool, error) {
	return e.base != nil && e.base(e.group, e.epoch, e.objID, idx, dst) && patchLines(dst, e.mask, e.lines, e.hash), nil
}

// HasPage implements vm.PageSource: the fetch decides.
func (e *lineEntry) HasPage(int64) bool { return true }

// Pages implements vm.PageSource.
func (e *lineEntry) Pages() []int64 { return nil }

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
