package core

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"

	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// midstateStep is the stride, in bytes, at which hashing a captured
// page leaves its SHA-256 state behind: the hash runs left to right, so
// the state after the bytes in front of a page's first written line is
// the state the previous capture's hash reached there. A page is hashed
// in midstateSteps steps.
const (
	midstateStep  = 512
	midstateSteps = vm.PageSize / midstateStep
)

// midstate is SHA-256's chaining state after a whole number of
// midstateSteps of a page.
type midstate [sha256.Size]byte

// pageMidstates is what hashing one page passed: [k] is the state
// after (k+1) steps. The state after none is the hash's initial one,
// and after all of them the hash is done, so neither is kept.
type pageMidstates [midstateSteps - 1]midstate

// midstateTable is an object's record, per page, of the midstates the
// last hash of a captured frame of that page passed, and which capture
// (vm.CheckpointSet.Capture) the frame was. A COW copy of that frame
// (vm.Frame.CopiedFrom names the capture) holds the same bytes in front
// of its first dirty line, so its hash may resume from there. The
// group keeps one per object it tracks (Group.midstates); the flush
// fills it in, one capture after the other, and it holds for each page
// the newest capture hashed: seven states and the capture's ID, 232
// bytes a page, made the first time the page is hashed and kept as
// long as the group tracks the object.
type midstateTable struct {
	mu     sync.Mutex
	chunks map[int64]*midChunk
}

// midChunkPages is how many pages' entries are allocated at once.
const midChunkPages = 8

type midEntry struct {
	capture uint64
	states  pageMidstates
}

type midChunk [midChunkPages]midEntry

// load returns state k of page idx, if the states held for the page
// are the ones capture's hash left.
func (m *midstateTable) load(idx int64, capture uint64, k int) (midstate, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.chunks[idx/midChunkPages]
	if c == nil || capture == 0 {
		return midstate{}, false
	}
	e := &c[idx%midChunkPages]
	if e.capture != capture {
		return midstate{}, false
	}
	return e.states[k], true
}

// store records the states the hash of page idx at capture passed. A
// hash that resumed at step from > 0 passed states[from:] only, and
// resumed from base's states, which are the page's states up to there
// too; it is recorded only while base's are the ones held. A whole
// hash (from == 0) replaces an older capture's states and leaves a
// newer one's: a capture hashed out of order changes nothing.
func (m *midstateTable) store(idx int64, capture, base uint64, from int, states *pageMidstates) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.chunks[idx/midChunkPages]
	if c == nil {
		if from > 0 {
			return
		}
		if m.chunks == nil {
			m.chunks = make(map[int64]*midChunk)
		}
		c = new(midChunk)
		m.chunks[idx/midChunkPages] = c
	}
	switch e := &c[idx%midChunkPages]; {
	case from > 0 && e.capture == base:
		copy(e.states[from:], states[from:])
		e.capture = capture
	case from == 0 && e.capture < capture:
		e.states = *states
		e.capture = capture
	}
}

// resumeCheckEvery is how rare the check of a resume is: about one page
// in this many that could resume is hashed whole instead (resumeChecked),
// and the midstate its hash passes at the resume step must be the one
// it would have resumed from. A resumed hash is the page's content hash
// only while the lines in front of the first dirty one are the bytes
// the earlier capture hashed, that is, while the dirty-line mask covers
// every write; a mask that missed a write there would otherwise give a
// line entry and a hash that agree with each other and not with the
// page. At 1 in 64, redis-incr's 192 resumable pages an epoch check
// about three, some 5 KiB more to hash.
const resumeCheckEvery = 64

// resumeChecked reports whether the page at idx, which could resume
// from midstate from, is hashed whole and checked instead. The choice
// is a function of the epoch, the page and its bytes in front of the
// resume step, so it never depends on timing, and a page is checked
// again at later epochs.
func resumeChecked(epoch uint64, idx int64, from *midstate) bool {
	x := epoch*0x9E3779B97F4A7C15 ^ uint64(idx)*0xBF58476D1CE4E5B9 ^ binary.LittleEndian.Uint64(from[:8])
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x%resumeCheckEvery == 0
}

// pageHashers lends each span of hashRun a pageHasher, so that hashing
// allocates nothing per page.
var pageHashers = sync.Pool{New: func() any { return newPageHasher() }}

// sha256State is crypto/sha256's marshaled digest: a magic, the eight
// chaining words, the partial block and the length hashed so far. A
// midstate is the chaining words at a block boundary, where the partial
// block is empty; this is how one is restored into a digest.
const (
	sha256Magic = "sha\x03"
	sha256State = len(sha256Magic) + sha256.Size + sha256.BlockSize + 8
)

// pageHasher hashes pages with crypto/sha256, reading a midstate out
// of the digest (snapshot) and putting one back (resume). It keeps its
// digest, its scratch and the midstates of the page it hashed last.
type pageHasher struct {
	d     hash.Hash
	load  encoding.BinaryUnmarshaler   // d, taking a state back
	save  func([]byte) ([]byte, error) // d's state appended to a slice
	state [sha256State]byte
	sum   [sha256.Size]byte
	mids  pageMidstates // what the last hash passed, from its first step on
}

// newPageHasher makes a hasher around a crypto/sha256 digest, which
// hands out its state and takes it back (MarshalBinary, UnmarshalBinary).
// From Go 1.24 on it appends its state to a slice it is given
// (AppendBinary), so a snapshot allocates nothing; before, it is
// marshaled into a new one.
func newPageHasher() *pageHasher {
	d := sha256.New()
	h := &pageHasher{d: d, load: d.(encoding.BinaryUnmarshaler)}
	if a, ok := d.(interface {
		AppendBinary([]byte) ([]byte, error)
	}); ok {
		h.save = a.AppendBinary
	} else {
		m := d.(encoding.BinaryMarshaler)
		h.save = func([]byte) ([]byte, error) { return m.MarshalBinary() }
	}
	return h
}

// hash returns the content hash of page, a whole page, hashing it from
// step on — from is the midstate the page's bytes before that step
// hash to — and leaves in h.mids[step:] the midstates it passes. At
// step 0 from is not read.
func (h *pageHasher) hash(page []byte, step int, from midstate) objstore.Hash {
	h.d.Reset()
	if step > 0 {
		h.resume(step, &from)
	}
	for k := step; k < midstateSteps; k++ {
		h.d.Write(page[k*midstateStep : (k+1)*midstateStep])
		if k < midstateSteps-1 {
			h.snapshot(&h.mids[k])
		}
	}
	return objstore.Hash(h.d.Sum(h.sum[:0]))
}

// resume sets the digest to midstate m after step steps of a page.
func (h *pageHasher) resume(step int, m *midstate) {
	b := h.state[:]
	copy(b, sha256Magic)
	copy(b[len(sha256Magic):], m[:])
	clear(b[len(sha256Magic)+sha256.Size : sha256State-8])
	binary.BigEndian.PutUint64(b[sha256State-8:], uint64(step*midstateStep))
	if h.load.UnmarshalBinary(b) != nil {
		panic("core: the SHA-256 digest refused a midstate it handed out")
	}
}
