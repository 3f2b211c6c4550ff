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
	"aurora/internal/storage"
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

// lineEntryDelta hand-writes a compact delta of group 1 at epoch whose
// one page is a line entry: mask, the lines' bytes, and hash.
func lineEntryDelta(epoch, mask uint64, lines []byte, hash objstore.Hash) []byte {
	e := codec.NewEncoder()
	e.U64(1)     // group
	e.U64(epoch) // epoch
	e.U64(0)     // gen
	e.Str("")
	e.Bool(false) // incremental
	e.U64(0)      // metadata
	e.U64(1)      // objects
	e.U64(1)      // object ID
	e.Str("heap")
	e.I64(1 << 30)
	e.U64(1) // pages
	e.I64(0)
	e.U8(2) // the line-entry tag
	e.U64(mask)
	e.Bytes2(lines)
	e.Bytes2(hash[:])
	e.U64(0) // heat
	e.U64Slice(nil)
	return e.Bytes()
}

// FuzzServeReplica feeds arbitrary bytes to a receiver as its frame
// stream — once as they are, once with the frame checksums made good —
// and requires what ServeReplica promises its caller whatever the wire
// carries: a clean end or a typed error, no held page that differs from
// the hash it is indexed under, the frames of every image it did not
// keep released, and a block index that empties with the chains.
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

	// Line entries over a hand-built lineage: epoch 2 as lines after the
	// epoch 1 it is built on; a forged epoch 2, whose lines do not
	// rebuild the hash they came with, and its full resend; a mask of two
	// lines with the bytes of one; and epoch 2 to a receiver without
	// epoch 1. Then the fold's edge cases (foldStreams).
	pm := vm.NewPhysMem(0)
	e1 := pageImage(f, pm, 1, true, pages(0, 8, 100))
	e1c, _, _ := e1.EncodeDeltaCompact(nil)
	good, _, _, _ := rewrite(f, pm, e1, 2, false).EncodeDeltaLink(nil, 1)
	forged := rewrite(f, pm, e1, 2, true)
	bad, _, _, _ := forged.EncodeDeltaLink(nil, 1)
	f.Add(frames(frameDeltaC, e1c, frameDeltaC, good))
	f.Add(frames(frameDeltaC, e1c, frameDeltaC, bad, frameDelta, forged.EncodeDelta()))
	page := e1.Memory[1].Pages[0].Data
	f.Add(frames(frameDeltaC, e1c, frameDeltaC, lineEntryDelta(2, 3, page[:vm.LineSize], core.PageContentHash(page))))
	f.Add(frames(frameDeltaC, good))
	for _, s := range foldStreams(f) {
		f.Add(s.stream)
	}

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
					for _, p := range held.PageHashes() {
						if core.PageContentHash(held.Memory[p.ObjID].Pages[p.Idx].Data) != p.Hash {
							t.Fatalf("epoch %d page %d is held under a hash its bytes do not have", held.Epoch, p.Idx)
						}
					}
				}
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

// FuzzReplicaSender is the sender's side of the same promise: a
// hostile receiver — a plain function at the far end of a link that
// answers each request with the next piece of the input, [len u8]
// [bytes], as it is and with the frame checksums made good — answers a
// Connect, two Flushes and a Handoff. Every call must return nil or a
// typed error, no reply may advance the acked frontier past what the
// handshake reported or the sender sent, and a failed flush must teach
// the known-pages cache nothing.
func FuzzReplicaSender(f *testing.F) {
	src := newMachine()
	p, g := spawn(f, src)
	src.o.Attach(g, core.NewMemoryBackend(src.k.Mem, 4))
	var imgs []*core.Image
	for i := 1; i <= 2; i++ {
		p.WriteMem(p.HeapBase()+vm.Addr(i)*vm.PageSize, bytes.Repeat([]byte{byte(i)}, vm.PageSize))
		src.k.Run(1)
		if _, err := src.o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			f.Fatal(err)
		}
		imgs = append(imgs, g.LastImage())
	}
	if err := src.o.Sync(g); err != nil {
		f.Fatal(err)
	}
	frame := func(typ byte, vs ...uint64) []byte {
		var payload []byte
		for _, v := range vs {
			payload = binary.LittleEndian.AppendUint64(payload, v)
		}
		var buf bytes.Buffer
		writeFrame(&buf, typ, payload)
		return buf.Bytes()
	}
	script := func(pieces ...[]byte) []byte {
		var out []byte
		for _, piece := range pieces {
			out = append(append(out, byte(len(piece))), piece...)
		}
		return out
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	hello := frame(frameHelloAck, g.ID, 0)
	f.Add(script(hello, frame(frameAck, g.ID, 1), frame(frameAck, g.ID, 2), frame(frameHandoffAck, g.ID, 3)))
	f.Add(script(cat(hello, hello), cat(frame(frameAck, g.ID, 1), frame(frameAck, g.ID, 1)),
		cat(frame(frameAck, g.ID, 3), frame(frameAck, g.ID, 2)),
		cat(frame(frameHandoffAck, g.ID, 2), frame(frameNeed, g.ID, 2), frame(frameHandoffAck, g.ID, 3))))
	f.Add(script(hello, frame(frameNeed, g.ID, 1), frame(frameAck, g.ID, 1),
		frame(frameFenced, g.ID, 5, 1), frame(frameHandoffAck, g.ID, 3)))
	f.Add(script(frame(frameHelloAck, g.ID, 9), frame(frameHandoffAck, g.ID+1, 3)))

	f.Fuzz(func(t *testing.T, in []byte) {
		for _, good := range []bool{false, true} {
			rest := in
			link := newFaultLink(LinkFaultConfig{}, nil, func(w io.Writer, _ byte, _ []byte) error {
				if len(rest) == 0 {
					return nil
				}
				n := min(int(rest[0]), len(rest)-1)
				piece := rest[1 : 1+n]
				if rest = rest[1+n:]; good {
					piece = restamp(piece)
				}
				w.Write(piece)
				return nil
			})
			rb := NewReplicaBackend(storage.NewClock())
			typed := func(call string, err error) {
				var fe *core.FenceError
				if err != nil && !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrBadFrame) &&
					!errors.Is(err, ErrCorruptFrame) && !errors.As(err, &fe) {
					t.Fatalf("%s: untyped error: %v", call, err)
				}
			}
			_, err := rb.Connect(link, g.ID)
			typed("connect", err)
			sent := rb.Floor()
			for _, img := range imgs {
				known := len(rb.core.held)
				_, err := rb.Flush(img)
				typed("flush", err)
				if err != nil && len(rb.core.held) > known {
					t.Fatalf("failed flush of epoch %d grew the mirror %d -> %d hashes", img.Epoch, known, len(rb.core.held))
				}
				sent = max(sent, img.Epoch)
				if got := rb.AckedFloor(g.ID); got > sent {
					t.Fatalf("acked floor %d past the handshake floor %d and epoch %d sent", got, rb.Floor(), img.Epoch)
				}
			}
			typed("handoff", rb.Handoff(g.ID, 3, 2))
		}
	})
}
