package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U64(math.MaxUint64)
	e.I64(math.MinInt64)
	e.I64(math.MaxInt64)
	e.U32(math.MaxUint32)
	e.U16(math.MaxUint16)
	e.U8(255)
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Bytes())
	if d.U64() != math.MaxUint64 {
		t.Fatal("u64 max")
	}
	if d.I64() != math.MinInt64 || d.I64() != math.MaxInt64 {
		t.Fatal("i64 extremes")
	}
	if d.U32() != math.MaxUint32 || d.U16() != math.MaxUint16 || d.U8() != 255 {
		t.Fatal("small ints")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestEmptyCollections(t *testing.T) {
	e := NewEncoder()
	e.Bytes2(nil)
	e.Str("")
	e.StrSlice(nil)
	e.U64Slice(nil)
	d := NewDecoder(e.Bytes())
	if len(d.Bytes2()) != 0 || d.Str() != "" || len(d.StrSlice()) != 0 || len(d.U64Slice()) != 0 {
		t.Fatal("empty round trip")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestTruncationDetected(t *testing.T) {
	e := NewEncoder()
	e.Str("hello world")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Str()
		if cut < len(full) && d.Err() == nil && cut != 0 {
			// A cut inside the payload must fail; cut==0 gives an
			// empty buffer which also fails.
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestErrorSticky(t *testing.T) {
	d := NewDecoder(nil)
	d.U64() // fails
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// All subsequent reads return zero values without panicking.
	if d.U64() != 0 || d.I64() != 0 || d.U8() != 0 || d.Bool() || d.Str() != "" {
		t.Fatal("reads after error should be zero-valued")
	}
	if d.Bytes2() != nil || d.StrSlice() != nil {
		t.Fatal("collections after error should be nil")
	}
	if err := d.Finish("thing"); err == nil {
		t.Fatal("Finish must surface the error")
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	e := NewEncoder()
	e.U64(1 << 50) // absurd length prefix
	d := NewDecoder(e.Bytes())
	if d.Bytes2() != nil || d.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestLenTracksBuffer(t *testing.T) {
	e := NewEncoder()
	if e.Len() != 0 {
		t.Fatal("fresh encoder not empty")
	}
	e.U8(1)
	e.U8(2)
	if e.Len() != 2 {
		t.Fatalf("len = %d", e.Len())
	}
}

// Property: any sequence of heterogeneous fields round-trips exactly.
func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, s string, p []byte, flag bool, ss []string, us []uint64) bool {
		e := NewEncoder()
		e.U64(a)
		e.Bool(flag)
		e.I64(b)
		e.Str(s)
		e.Bytes2(p)
		e.U64(uint64(2 * len(p))) // two raw pieces read back as one slice
		e.Raw(p)
		e.Raw(p)
		e.StrSlice(ss)
		e.U64Slice(us)

		var sz Sizer
		sz.U64(a)
		sz.Bool(flag)
		sz.I64(b)
		sz.Str(s)
		sz.Bytes2(p)
		sz.U64(uint64(2 * len(p)))
		sz.Raw(p)
		sz.Raw(p)
		sz.U64Slice(us)
		if sz.Len() != e.Len()-strSliceLen(ss) {
			return false
		}

		d := NewDecoder(e.Bytes())
		if d.U64() != a || d.Bool() != flag || d.I64() != b || d.Str() != s {
			return false
		}
		if !bytes.Equal(d.Bytes2(), p) || !bytes.Equal(d.View2(), append(append([]byte(nil), p...), p...)) {
			return false
		}
		gs := d.StrSlice()
		if len(gs) != len(ss) {
			return false
		}
		for i := range ss {
			if gs[i] != ss[i] {
				return false
			}
		}
		gu := d.U64Slice()
		if len(gu) != len(us) {
			return false
		}
		for i := range us {
			if gu[i] != us[i] {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding random garbage never panics and either errors or
// consumes bounded input.
func TestQuickGarbageSafety(t *testing.T) {
	f := func(garbage []byte) bool {
		d := NewDecoder(garbage)
		d.U64()
		d.Str()
		d.Bytes2()
		d.StrSlice()
		d.U64Slice()
		d.I64()
		d.Bool()
		return true // not panicking is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// strSliceLen is the encoded size of a string slice, which Sizer has
// no method for.
func strSliceLen(ss []string) int {
	e := NewEncoder()
	e.StrSlice(ss)
	return e.Len()
}

// TestSizerMatchesEncoderAtBoundaries: the Sizer agrees with the
// Encoder at every varint length boundary, and an Encoder grown by the
// measured size is filled exactly, without reallocating.
func TestSizerMatchesEncoderAtBoundaries(t *testing.T) {
	var sz Sizer
	fill := func(w interface {
		U64(uint64)
		I64(int64)
		U32(uint32)
		U8(uint8)
	}) {
		for shift := 0; shift < 64; shift++ {
			for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
				w.U64(v)
				w.I64(int64(v))
				w.I64(-int64(v))
				w.U32(uint32(v))
			}
		}
		w.U64(math.MaxUint64)
		w.I64(math.MinInt64)
		w.U8(0)
	}
	fill(&sz)
	e := NewEncoder()
	e.U8(0xAA) // Grow must keep what is already there
	e.Grow(sz.Len())
	start := &e.Bytes()[0]
	fill(e)
	if e.Len() != 1+sz.Len() {
		t.Fatalf("encoder wrote %d bytes, sizer measured %d", e.Len()-1, sz.Len())
	}
	if got := e.Bytes(); &got[0] != start || cap(got) != len(got) || got[0] != 0xAA {
		t.Fatalf("grown encoder reallocated or lost its prefix: len %d cap %d", len(got), cap(got))
	}
}

// TestViewAliasesAndCountBounds: View2 returns the decoder's own bytes,
// capped so an append cannot scribble on what follows; Count rejects a
// count the remaining bytes cannot hold.
func TestViewAliasesAndCountBounds(t *testing.T) {
	e := NewEncoder()
	e.Bytes2([]byte("abc"))
	e.U64(2) // a count with exactly two bytes after it
	e.U8(7)
	e.U8(8)
	buf := e.Bytes()
	d := NewDecoder(buf)
	v := d.View2()
	if string(v) != "abc" || &v[0] != &buf[1] || cap(v) != 3 {
		t.Fatalf("view = %q (cap %d), want the decoder's own 3 bytes", v, cap(v))
	}
	if n := d.Count(); n != 2 || d.Err() != nil {
		t.Fatalf("count = %d err %v, want 2", n, d.Err())
	}

	e = NewEncoder()
	e.U64(3) // three elements promised, two bytes left
	e.U8(7)
	e.U8(8)
	d = NewDecoder(e.Bytes())
	if n := d.Count(); n != 0 || d.Err() == nil {
		t.Fatalf("count beyond the buffer = %d err %v, want 0 and ErrCorrupt", n, d.Err())
	}
	if d.View2() != nil || d.Count() != 0 {
		t.Fatal("reads after error should be zero-valued")
	}
}
