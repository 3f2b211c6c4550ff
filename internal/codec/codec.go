// Package codec implements the compact binary encoding shared by
// checkpoint metadata, the object store index, and the Aurora file
// system: varints and length-prefixed byte strings, nothing
// reflective, so the on-disk format stays stable and deterministic.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrCorrupt is returned when a decoder runs off the end of its buffer
// or encounters an impossible value.
var ErrCorrupt = errors.New("codec: corrupt serialized object")

// Encoder serializes kernel objects into a compact binary form. Every
// POSIX object in Aurora carries code to serialize itself (the paper's
// "first class objects"); they all funnel through this encoder so the
// on-disk format is uniform and deterministic.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoding size.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow makes room for n more bytes, so an encoding whose size is known
// up front (see Sizer) is built in one allocation instead of by
// repeated append growth.
func (e *Encoder) Grow(n int) {
	if n > cap(e.buf)-len(e.buf) {
		buf := make([]byte, len(e.buf), len(e.buf)+n)
		copy(buf, e.buf)
		e.buf = buf
	}
}

// U64 appends a varint-encoded unsigned integer.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a varint-encoded signed integer.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// U32 appends a 32-bit value.
func (e *Encoder) U32(v uint32) { e.U64(uint64(v)) }

// U16 appends a 16-bit value.
func (e *Encoder) U16(v uint16) { e.U64(uint64(v)) }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(p []byte) {
	e.U64(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Raw appends p with no length prefix: pieces written after one U64 of
// their total length read back as one byte slice (View2).
func (e *Encoder) Raw(p []byte) { e.buf = append(e.buf, p...) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) { e.Bytes2([]byte(s)) }

// StrSlice appends a slice of strings.
func (e *Encoder) StrSlice(ss []string) {
	e.U64(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// U64Slice appends a slice of unsigned integers.
func (e *Encoder) U64Slice(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Sizer measures an encoding without building it. It has the Encoder's
// append methods, and each adds only the number of bytes the Encoder's
// would append: run the encoding code against a Sizer first, Grow an
// Encoder by Len, then run the same code against the Encoder.
type Sizer struct {
	n int
}

// Len returns the size of the encoding measured so far.
func (s *Sizer) Len() int { return s.n }

// U64 measures a varint-encoded unsigned integer.
func (s *Sizer) U64(v uint64) { s.n += (bits.Len64(v|1) + 6) / 7 }

// I64 measures a varint-encoded signed integer.
func (s *Sizer) I64(v int64) { s.U64(uint64(v)<<1 ^ uint64(v>>63)) }

// U32 measures a 32-bit value.
func (s *Sizer) U32(v uint32) { s.U64(uint64(v)) }

// U8 measures a byte.
func (s *Sizer) U8(uint8) { s.n++ }

// Bool measures a boolean.
func (s *Sizer) Bool(bool) { s.n++ }

// Bytes2 measures a length-prefixed byte slice.
func (s *Sizer) Bytes2(p []byte) {
	s.U64(uint64(len(p)))
	s.n += len(p)
}

// Raw measures bytes with no length prefix.
func (s *Sizer) Raw(p []byte) { s.n += len(p) }

// Str measures a length-prefixed string.
func (s *Sizer) Str(str string) {
	s.U64(uint64(len(str)))
	s.n += len(str)
}

// U64Slice measures a slice of unsigned integers.
func (s *Sizer) U64Slice(vs []uint64) {
	s.U64(uint64(len(vs)))
	for _, v := range vs {
		s.U64(v)
	}
}

// Decoder reads back what an Encoder produced.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Err returns the first decoding error encountered.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// U64 reads a varint-encoded unsigned integer.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// I64 reads a varint-encoded signed integer.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// U32 reads a 32-bit value.
func (d *Decoder) U32() uint32 { return uint32(d.U64()) }

// U16 reads a 16-bit value.
func (d *Decoder) U16() uint16 { return uint16(d.U64()) }

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes2 reads a length-prefixed byte slice into a buffer of its own.
func (d *Decoder) Bytes2() []byte {
	v := d.View2()
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// View2 reads a length-prefixed byte slice without copying it: the
// result aliases the decoder's buffer and is only valid while the
// caller keeps that buffer unchanged.
func (d *Decoder) View2() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	out := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// Count reads an element count written with U64. Every element of
// every encoding takes at least one byte, so a count beyond the bytes
// that remain is corrupt: it fails the decoder and returns 0, and
// callers may size allocations by the result.
func (d *Decoder) Count() int {
	n := d.U64()
	if d.err != nil || n > uint64(d.Remaining()) {
		d.fail()
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.View2()) }

// StrSlice reads a slice of strings.
func (d *Decoder) StrSlice() []string {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Str())
	}
	return out
}

// U64Slice reads a slice of unsigned integers.
func (d *Decoder) U64Slice() []uint64 {
	n := d.U64()
	if d.err != nil || n > uint64(d.Remaining())+1 {
		d.fail()
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.U64())
	}
	return out
}

// Finish returns ErrCorrupt-wrapped context if any read failed.
func (d *Decoder) Finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("decoding %s: %w", what, d.err)
	}
	return nil
}
