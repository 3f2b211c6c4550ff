package netback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"aurora/internal/codec"
	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// restamp rewrites the CRC of every whole frame in stream, so that a
// mutated payload reaches the decoder behind the checksum instead of
// always dying at the frame layer.
func restamp(stream []byte) []byte {
	out := bytes.Clone(stream)
	for off := 0; len(out)-off >= frameHdrSize; {
		n := binary.LittleEndian.Uint64(out[off+1 : off+9])
		body := out[off+frameHdrSize:]
		if n > uint64(len(body)) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+9:], crc32.Checksum(body[:n], frameCRC))
		off += frameHdrSize + int(n)
	}
	return out
}

// FuzzServeReplica feeds arbitrary bytes to a receiver as its frame
// stream — once as they are, once with the frame checksums made good —
// and requires what ServeReplica promises its caller whatever the wire
// carries: a clean end or a typed error, the frames of every image it
// did not keep released, and a block index that empties with the chains.
func FuzzServeReplica(f *testing.F) {
	src := newMachine()
	p, g := spawn(f, src)
	src.o.Attach(g, core.NewMemoryBackend(src.k.Mem, 4))
	p.WriteMem(p.HeapBase()+vm.PageSize, bytes.Repeat([]byte{7}, vm.PageSize))
	src.k.Run(3)
	if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		f.Fatal(err)
	}
	img := g.LastImage()
	frames := func(parts ...any) []byte {
		var buf bytes.Buffer
		for i := 0; i < len(parts); i += 2 {
			writeFrame(&buf, parts[i].(byte), parts[i+1].([]byte))
		}
		return buf.Bytes()
	}
	u64s := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	literal, _, _ := img.EncodeDeltaCompact(func(objstore.Hash) bool { return false })
	refs, _, _ := img.EncodeDeltaCompact(func(objstore.Hash) bool { return true })
	hello := frames(frameHello, u64s(g.ID))
	f.Add(hello)
	f.Add(frames(frameHello, u64s(g.ID), frameDeltaC, literal, frameDeltaC, refs, frameBye, []byte(nil)))
	f.Add(frames(frameDeltaC, refs, frameDelta, img.EncodeDelta())) // a need, then the full resend
	f.Add(frames(frameHandoff, u64s(g.ID, 3, 1), frameDeltaC, literal))
	f.Add(hello[:frameHdrSize-4])

	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, in := range [][]byte{stream, restamp(stream)} {
			pm := vm.NewPhysMem(0)
			recv := NewReceiver(pm, nil)
			err := serveBytes(recv, in)
			typed := false
			for _, want := range []error{ErrBadFrame, ErrCorruptFrame, io.ErrUnexpectedEOF, codec.ErrCorrupt} {
				typed = typed || errors.Is(err, want)
			}
			if err != nil && !typed {
				t.Fatalf("untyped error: %v", err)
			}
			recv.mu.Lock()
			for _, chain := range recv.chains {
				for _, held := range chain {
					recv.drop(held)
				}
			}
			entries := len(recv.blocks)
			recv.mu.Unlock()
			if pm.Resident() != 0 || entries != 0 {
				t.Fatalf("after dropping the chains: %d frames resident, %d block entries (err %v)", pm.Resident(), entries, err)
			}
		}
	})
}
