package netback

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// pageImage builds a one-object image by hand: page idx holds the
// 32-bit pattern fill[idx] repeated, so equal patterns are equal
// contents and there are plenty of distinct ones.
func pageImage(tb testing.TB, pm *vm.PhysMem, epoch uint64, full bool, fill map[int64]uint32) *core.Image {
	tb.Helper()
	mi := &core.MemImage{ObjID: 1, Name: "heap", Size: 1 << 30, Pages: make([]vm.Page, 0, len(fill))}
	idxs := make([]int64, 0, len(fill))
	for idx := range fill {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		f, err := pm.Alloc()
		if err != nil {
			tb.Fatal(err)
		}
		for off := 0; off < len(f.Data); off += 4 {
			binary.LittleEndian.PutUint32(f.Data[off:], fill[idx])
		}
		mi.Pages = append(mi.Pages, vm.Page{Idx: idx, Frame: f, Lines: vm.AllLines})
	}
	return &core.Image{Group: 1, Epoch: epoch, Full: full, Name: "test",
		Memory: map[uint64]*core.MemImage{1: mi}}
}

// pages returns fill for page indices [lo, lo+n) with patterns
// first, first+1, ...
func pages(lo int64, n int, first uint32) map[int64]uint32 {
	out := make(map[int64]uint32, n)
	for i := 0; i < n; i++ {
		out[lo+int64(i)] = first + uint32(i)
	}
	return out
}

// deliver writes one frame to a serving receiver and waits for its ack.
func deliver(t *testing.T, conn net.Conn, typ byte, payload []byte) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- writeFrame(conn, typ, payload) }()
	got, ack, err := readFrame(conn)
	if err != nil || got != frameAck || len(ack) != 16 {
		t.Fatalf("frame type %d: reply type %d (%d bytes), err %v; want an ack", typ, got, len(ack), err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// checkBlocks checks the receiver's block index against its chains:
// every frame the chains reach is resident exactly once per distinct
// content and nothing else is; FetchBlock of every held page's hash
// returns that page's bytes; the index has one entry per content.
func checkBlocks(t *testing.T, r *Receiver, pm *vm.PhysMem, when string) {
	t.Helper()
	frames := make(map[*vm.Frame]bool)
	contents := make(map[[32]byte]bool)
	for _, g := range r.Groups() {
		for _, ep := range r.ReplicaEpochs(g) {
			img, err := r.ImageAt(g, ep)
			if err != nil {
				t.Fatal(err)
			}
			if img.Released() {
				t.Fatalf("%s: epoch %d is in the chain but released", when, ep)
			}
			for _, mi := range img.Memory {
				for _, p := range mi.Pages {
					idx, f := p.Idx, p.Frame
					frames[f] = true
					h := core.PageContentHash(f.Data)
					contents[h] = true
					got, ok := r.FetchBlock(h)
					if !ok {
						t.Fatalf("%s: FetchBlock misses page %d of epoch %d, which the chain holds", when, idx, ep)
					}
					if core.PageContentHash(got) != h || !bytes.Equal(got, f.Data) {
						t.Fatalf("%s: FetchBlock returned bytes that do not hash to the key (page %d of epoch %d)", when, idx, ep)
					}
				}
			}
		}
	}
	if got := pm.Resident(); got != int64(len(frames)) {
		t.Fatalf("%s: %d frames resident, the chains reach %d", when, got, len(frames))
	}
	if len(frames) != len(contents) {
		t.Fatalf("%s: %d frames hold %d distinct contents", when, len(frames), len(contents))
	}
	if got := r.BlockStats().Entries; got != len(contents) {
		t.Fatalf("%s: %d index entries for %d distinct contents held", when, got, len(contents))
	}
}

// TestReceiverReleasesSupersededImages: an epoch delivered again
// releases the copy it supersedes — the receiver's memory is what its
// chains reach, on a bounded allocator redelivery never runs out, and
// the block index neither loses a held page nor keeps a released one.
func TestReceiverReleasesSupersededImages(t *testing.T) {
	src := vm.NewPhysMem(0)
	const base, dirty = 32, 8
	// Room for the chain plus one arriving image, which is decoded
	// before it is deduplicated against the chain.
	pm := vm.NewPhysMem(2*base + 3*dirty)
	recv := NewReceiver(pm, nil)
	near, far := net.Pipe()
	done := serveReplica(recv, far)

	full := pageImage(t, src, 1, true, pages(0, base, 1000))
	deliver(t, near, frameDelta, full.EncodeDelta())
	checkBlocks(t, recv, pm, "after the full image")

	// Epoch 2 rewrites 8 pages: 6 new contents, 2 that page 0 and 1
	// already hold (they dedup onto the held frames).
	fill := pages(8, dirty-2, 2000)
	fill[20], fill[21] = 1000, 1001
	e2 := pageImage(t, src, 2, false, fill)
	for i := 0; i < 12; i++ { // twice is the bug; a dozen would exhaust the bound
		deliver(t, near, frameDelta, e2.EncodeDelta())
		checkBlocks(t, recv, pm, fmt.Sprintf("after delivery %d of epoch 2", i+1))
	}
	if got := recv.ReplicaEpochs(1); len(got) != 2 {
		t.Fatalf("chain holds epochs %v, want [1 2]", got)
	}

	// The same epoch again as a compact delta: every page a ref.
	payload, _, skipped := e2.EncodeDeltaCompact(func(objstore.Hash) bool { return true })
	if skipped != dirty {
		t.Fatalf("compact re-encode skipped %d of %d pages", skipped, dirty)
	}
	deliver(t, near, frameDelta, payload)
	checkBlocks(t, recv, pm, "after the all-refs redelivery")

	near.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// replicaLink is one sender/receiver pair over a pipe.
type replicaLink struct {
	rb   *ReplicaBackend
	recv *Receiver
	pm   *vm.PhysMem
	near net.Conn
	done chan error
}

func newReplicaLink(t *testing.T, group uint64) *replicaLink {
	t.Helper()
	l := &replicaLink{rb: NewReplicaBackend(storage.NewClock()), pm: vm.NewPhysMem(0)}
	l.recv = NewReceiver(l.pm, storage.NewClock())
	var far net.Conn
	l.near, far = net.Pipe()
	l.done = serveReplica(l.recv, far)
	if _, err := l.rb.Connect(l.near, group); err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *replicaLink) close(t *testing.T) {
	t.Helper()
	l.near.Close()
	if err := <-l.done; err != nil {
		t.Fatal(err)
	}
}

// TestReceiverHashesOnlyArrivingLiterals is the count-based guard on
// O(delta) replication, immune to host-clock noise: after K compact
// deltas of L literal pages (new ones) and R ref pages each, the
// receiver has hashed exactly initial + K·L pages and resolved K·R refs
// — the same per delta whether 4 epochs were linked or 64.
func TestReceiverHashesOnlyArrivingLiterals(t *testing.T) {
	const initial, L, R = 96, 12, 4
	for _, K := range []int{4, 64} {
		src := vm.NewPhysMem(0)
		l := newReplicaLink(t, 1)
		full := pageImage(t, src, 1, true, pages(0, initial, 1))
		if _, err := l.rb.Flush(full, nil); err != nil {
			t.Fatal(err)
		}
		if got := l.recv.BlockStats(); got.Hashed != initial || got.Resolved != 0 || got.Entries != initial {
			t.Fatalf("K=%d: after the full image: %+v, want %d hashed, %d entries", K, got, initial, initial)
		}
		for k := 0; k < K; k++ {
			// L contents nobody has seen, R the full image holds.
			fill := pages(int64(initial+k*L), L, uint32(1_000_000+k*L))
			for i := 0; i < R; i++ {
				fill[int64(1<<20+i)] = uint32(1 + (k+i)%initial)
			}
			img := pageImage(t, src, uint64(2+k), false, fill)
			if _, err := l.rb.Flush(img, nil); err != nil {
				t.Fatal(err)
			}
			want := BlockStats{Hashed: int64(initial + (k+1)*L), Resolved: int64((k + 1) * R), Entries: initial + (k+1)*L}
			if got := l.recv.BlockStats(); got != want {
				t.Fatalf("K=%d: after delta %d: %+v, want %+v", K, k+1, got, want)
			}
		}
		if sent, skipped, resends := l.rb.DeltaStats(); sent != int64(initial+K*L) || skipped != int64(K*R) || resends != 0 {
			t.Fatalf("K=%d: sender shipped %d literals, %d refs, %d resends", K, sent, skipped, resends)
		}
		checkBlocks(t, l.recv, l.pm, fmt.Sprintf("K=%d", K))
		l.close(t)
	}
}

// TestFlushToThreeLinksHashesOnce: the links of a replica set flush one
// image concurrently; its pages are hashed once on the sending machine,
// not once per link, and once on each receiving one.
func TestFlushToThreeLinksHashesOnce(t *testing.T) {
	const n = 48
	links := []*replicaLink{newReplicaLink(t, 1), newReplicaLink(t, 1), newReplicaLink(t, 1)}
	img := pageImage(t, vm.NewPhysMem(0), 1, true, pages(0, n, 1))
	var wg sync.WaitGroup
	for _, l := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.rb.Flush(img, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := img.PagesHashed(); got != n {
		t.Fatalf("sender hashed %d pages to flush a %d-page image to 3 links", got, n)
	}
	for i, l := range links {
		if got := l.recv.BlockStats().Hashed; got != n {
			t.Fatalf("receiver %d hashed %d pages for %d literals", i, got, n)
		}
		l.close(t)
	}
}

// frameLoop is the far end of a benchmark connection: it plays the
// given frames round-robin, `total` of them, then reports EOF, and it
// swallows the acks.
type frameLoop struct {
	frames [][]byte
	total  int
	cur    []byte
	sent   int
}

func (c *frameLoop) Read(p []byte) (int, error) {
	if len(c.cur) == 0 {
		if c.sent == c.total {
			return 0, io.EOF
		}
		c.cur = c.frames[c.sent%len(c.frames)]
		c.sent++
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	return n, nil
}

func (c *frameLoop) Write(p []byte) (int, error) { return len(p), nil }

func frameBytes(tb testing.TB, typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReceiverCompactDelta is the receiver's cost of one epoch —
// read, CRC, decode, hash the literals, index, fold, ack — with `chain`
// epochs of 64 pages already linked (and folded). One op delivers a
// 64-page compact delta (48 literals, 16 refs) for the epoch after the
// chain's last; ops alternate between two versions of it, each
// superseding the other as the floor image, so every literal is new
// content. Per-epoch cost must not depend on history: chain=512 within
// 1.5× of chain=1. With base=held the 48 pages are the chain's last
// epoch written in one byte each — quorum3-incr's mix — and go as line
// entries, rebuilt on that epoch and hashed.
func BenchmarkReceiverCompactDelta(b *testing.B) {
	const perEpoch, literals = 64, 48
	for _, chain := range []int{1, 64, 512} {
		for _, held := range []bool{false, true} {
			name := fmt.Sprintf("chain=%d", chain)
			if held {
				name += "/base=held"
			}
			b.Run(name, func(b *testing.B) {
				pm := vm.NewPhysMem(0)
				recv := NewReceiver(pm, nil)
				for ep := 1; ep <= chain; ep++ {
					recv.link(pageImage(b, pm, uint64(ep), ep == 1, pages(0, perEpoch, uint32(ep*perEpoch))))
				}
				src := vm.NewPhysMem(0)
				known := func(h objstore.Hash) bool { _, ok := recv.blocks[h]; return ok }
				var frames [][]byte
				for v := 0; v < 2; v++ {
					fill := pages(0, literals, uint32(1<<30+v*literals))
					if held {
						fill = pages(0, literals, uint32(chain*perEpoch))
					}
					for i := literals; i < perEpoch; i++ {
						fill[int64(i)] = uint32(chain*perEpoch + i) // the chain's last epoch holds these
					}
					img := pageImage(b, src, uint64(chain+1), false, fill)
					if held {
						mi := img.Memory[1]
						for i := int64(0); i < literals; i++ { // pages 0, 1, ... are the run's first
							mi.Pages[i].Frame.Data[i*vm.LineSize+int64(v)]++
							mi.Pages[i].Lines = 1 << i
						}
					}
					payload, _, skipped, lined, _ := img.EncodeDeltaLink(known, uint64(chain), nil)
					if skipped != perEpoch-literals || held && lined != literals {
						b.Fatalf("fixture: %d refs, %d line entries", skipped, lined)
					}
					frames = append(frames, frameBytes(b, frameDelta, payload))
				}
				b.ReportAllocs()
				b.SetBytes(perEpoch * vm.PageSize)
				b.ResetTimer()
				applied, err := recv.ServeReplica(&frameLoop{frames: frames, total: b.N})
				b.StopTimer()
				if err != nil || applied != b.N {
					b.Fatalf("applied %d of %d frames, err %v", applied, b.N, err)
				}
				if got := recv.ReplicaEpochs(1); !slices.Equal(got, []uint64{uint64(chain), uint64(chain + 1)}) {
					b.Fatalf("chain holds epochs %v, want [%d %d]", got, chain, chain+1)
				}
				if held && recv.BlockStats().Patched != int64(b.N*literals) {
					b.Fatalf("%d pages patched over %d ops", recv.BlockStats().Patched, b.N)
				}
			})
		}
	}
}
