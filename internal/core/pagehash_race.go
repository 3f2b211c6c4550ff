//go:build race

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"reflect"
	"sync"
)

// Under the race detector crypto/sha256's AppendBinary allocates: an
// instrumented build compiles its zero padding, an append of a make, as
// a fresh slice, which the flush's allocation guard (TestFlushAllocs)
// would count seven times a page. So the race build reads the digest's
// chaining words where they lie, through reflect, once the first use
// has checked that they read what MarshalBinary hands out. Hashing and
// resuming are the release build's, and the store's
// verifySuppliedHashes recomputes every hash over the whole page.

// snapshot copies the digest's chaining words, at a block boundary, to m.
func (h *pageHasher) snapshot(m *midstate) {
	if !chainingWordsReadable() {
		b, _ := h.save(h.state[:0])
		copy(m[:], b[len(sha256Magic):])
		return
	}
	words := chainingWords(h.d)
	for i := range 8 {
		binary.BigEndian.PutUint32(m[4*i:], uint32(words.Index(i).Uint()))
	}
}

// chainingWords is the [8]uint32 a crypto/sha256 digest keeps its
// chaining state in: its field h.
func chainingWords(d hash.Hash) reflect.Value {
	return reflect.ValueOf(d).Elem().FieldByName("h")
}

// chainingWordsReadable reports whether chainingWords reads, on a
// digest in the middle of a hash, the words MarshalBinary hands out.
var chainingWordsReadable = sync.OnceValue(func() bool {
	d := sha256.New()
	v := reflect.ValueOf(d)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	words := chainingWords(d)
	if words.Kind() != reflect.Array || words.Len() != 8 || words.Type().Elem().Kind() != reflect.Uint32 {
		return false
	}
	d.Write(make([]byte, sha256.BlockSize))
	b, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return false
	}
	var m midstate
	for i := range 8 {
		binary.BigEndian.PutUint32(m[4*i:], uint32(words.Index(i).Uint()))
	}
	return bytes.Equal(m[:], b[len(sha256Magic):len(sha256Magic)+sha256.Size])
})
