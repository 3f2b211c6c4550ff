package netback

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"testing"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// checkChain requires a group's chain on recv to be its state at epoch
// and nothing more: [epoch] alone, or a full base at epoch-1 under the
// floor image epoch.
func checkChain(t *testing.T, recv *Receiver, group, epoch uint64, when string) {
	t.Helper()
	switch eps := recv.ReplicaEpochs(group); {
	case slices.Equal(eps, []uint64{epoch}):
	case slices.Equal(eps, []uint64{epoch - 1, epoch}):
		if base, err := recv.ImageAt(group, epoch-1); err != nil || !base.Full {
			t.Fatalf("%s: the base at epoch %d is not a full image (err %v)", when, epoch-1, err)
		}
	default:
		t.Fatalf("%s: chain holds epochs %v, want [%d] or [%d %d]", when, eps, epoch, epoch-1, epoch)
	}
	if got := recv.ContiguousEpoch(group); got != epoch {
		t.Fatalf("%s: contiguous floor %d, want %d", when, got, epoch)
	}
}

// nextEpoch is epoch of the one-object lineage live holds: dirty of its
// pages, each changed in one byte of one line, with the masks a barrier
// would record. live follows.
func nextEpoch(t *testing.T, pm *vm.PhysMem, rng *rand.Rand, live map[int64][]byte, epoch uint64, dirty int) *core.Image {
	t.Helper()
	mi := &core.MemImage{ObjID: 1, Name: "heap", Size: 1 << 30, Pages: make([]vm.Page, 0, dirty)}
	for _, i := range rng.Perm(len(live))[:dirty] {
		idx := int64(i)
		f, err := pm.AllocData(live[idx])
		if err != nil {
			t.Fatal(err)
		}
		line := rng.IntN(vm.PageSize / vm.LineSize)
		f.Data[line*vm.LineSize+rng.IntN(vm.LineSize)]++
		mi.Pages = append(mi.Pages, vm.Page{Idx: idx, Frame: f, Lines: 1 << line})
		live[idx] = bytes.Clone(f.Data)
	}
	slices.SortFunc(mi.Pages, func(a, b vm.Page) int { return cmp.Compare(a.Idx, b.Idx) })
	return &core.Image{Group: 1, Epoch: epoch, Name: "test", Memory: map[uint64]*core.MemImage{1: mi}}
}

// TestReceiverFoldBounded: a receiver holds a lineage's state, not its
// history. After 50 and after 500 epochs that each write a line of 8 of
// 64 pages, the chain is a full base under the floor image, Latest
// resolves every page the sender holds, and three counts are one number
// — the receiver's resident frames, its block index entries (the
// distinct contents of base ∪ floor) and the size of the sender's mirror
// — the same at both.
func TestReceiverFoldBounded(t *testing.T) {
	const pageN, dirty = 64, 8
	src, pm := vm.NewPhysMem(0), vm.NewPhysMem(0)
	w := NewWire(LinkFaultConfig{}, storage.NewClock(), NewReceiver(pm, nil))
	if err := w.Connect(1); err != nil {
		t.Fatal(err)
	}
	rb, recv := w.Backend(), w.Receiver()
	rng := rand.New(rand.NewPCG(27, 1))
	img := pageImage(t, src, 1, true, pages(0, pageN, 1))
	live := make(map[int64][]byte, pageN)
	for _, p := range img.Memory[1].Pages {
		live[p.Idx] = bytes.Clone(p.Frame.Data)
	}
	var sizes []int
	for e := uint64(1); e <= 500; e++ {
		if e > 1 {
			img = nextEpoch(t, src, rng, live, e, dirty)
		}
		if _, err := rb.Flush(img, nil); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if e != 50 && e != 500 {
			continue
		}
		when := fmt.Sprintf("after %d epochs", e)
		checkChain(t, recv, 1, e, when)
		checkBlocks(t, recv, pm, when)
		latest, err := recv.Latest(1)
		if err != nil {
			t.Fatal(err)
		}
		for idx, want := range live {
			if !bytes.Equal(latest.ResolvePage(1, idx), want) {
				t.Fatalf("%s: page %d differs from the sender's", when, idx)
			}
		}
		rb.core.mu.Lock()
		mirror := len(rb.core.held)
		rb.core.mu.Unlock()
		resident, entries := pm.Resident(), recv.BlockStats().Entries
		if resident != int64(entries) || entries != mirror || entries != pageN+dirty {
			t.Fatalf("%s: %d frames resident, %d index entries, %d hashes in the sender's mirror; want %d each",
				when, resident, entries, mirror, pageN+dirty)
		}
		sizes = append(sizes, entries)
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("the receiver grew with its history: %d entries after 50 epochs, %d after 500", sizes[0], sizes[1])
	}
	_, _, resends := rb.DeltaStats()
	if lines, patched := rb.LinesSent(), recv.BlockStats().Patched; resends != 0 || lines == 0 || patched != lines {
		t.Fatalf("%d full resends, %d pages sent as lines, %d rebuilt; want none, and every line entry rebuilt", resends, lines, patched)
	}
}

// replicated is a source machine whose group replicates over clean wires
// to receivers with memories of their own.
type replicated struct {
	t     *testing.T
	src   *machine
	p     *kernel.Process
	g     *core.Group
	rng   *rand.Rand
	wires []*Wire
	pms   []*vm.PhysMem
}

const replicatedPages = 16

func newReplicated(t *testing.T, members, w int) *replicated {
	t.Helper()
	r := &replicated{t: t, src: newMachine(), rng: rand.New(rand.NewPCG(27, 2))}
	r.p, r.g = spawn(t, r.src)
	if _, err := r.p.Sbrk(replicatedPages * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, replicatedPages*vm.PageSize)
	for i := range buf {
		buf[i] = byte(r.rng.Uint32())
	}
	if err := r.p.WriteMem(r.p.HeapBase(), buf); err != nil {
		t.Fatal(err)
	}
	rs := NewReplicaSet(w)
	for i := 0; i < members; i++ {
		pm := vm.NewPhysMem(0)
		wire := NewWire(LinkFaultConfig{}, r.src.clock, NewReceiver(pm, storage.NewClock()))
		if err := wire.Connect(r.g.ID); err != nil {
			t.Fatal(err)
		}
		rs.Add(string(rune('a'+i)), wire.Backend(), wire.Receiver())
		r.wires, r.pms = append(r.wires, wire), append(r.pms, pm)
	}
	rs.AttachAll(r.src.o, r.g)
	return r
}

// epoch writes a few bytes to four heap pages, checkpoints and syncs to
// the write quorum: a cut-off member fails the Sync, not the epoch.
func (r *replicated) epoch() {
	r.t.Helper()
	for i := 0; i < 4; i++ {
		at := r.p.HeapBase() + vm.Addr(r.rng.IntN(replicatedPages*vm.PageSize-8))
		if err := r.p.WriteMem(at, []byte{byte(r.rng.Uint32()), 1, 2}); err != nil {
			r.t.Fatal(err)
		}
	}
	if _, err := r.src.o.Checkpoint(r.g, core.CheckpointOpts{Full: r.g.Epoch() == 0}); err != nil {
		r.t.Fatal(err)
	}
	if err := r.src.o.Sync(r.g); err != nil && r.g.Durable() != r.g.Epoch() {
		r.t.Fatalf("epoch %d: durable %d: %v", r.g.Epoch(), r.g.Durable(), err)
	}
}

// heap reads a process's heap.
func heap(t *testing.T, p *kernel.Process) []byte {
	t.Helper()
	buf := make([]byte, replicatedPages*vm.PageSize)
	if err := p.ReadMem(p.HeapBase(), buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// restoreOn restores img on a kernel of its own over pm and returns the
// restored process.
func restoreOn(t *testing.T, pm *vm.PhysMem, img *core.Image) *kernel.Process {
	t.Helper()
	k := kernel.NewWith(storage.NewClock(), pm)
	ng, _, err := core.NewOrchestrator(k).RestoreImage(img, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatalf("restoring epoch %d: %v", img.Epoch, err)
	}
	p, err := k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFoldLeavesRestoredProcessItsFrames: a process restored from a
// receiver's Latest maps frames of the chain. Twenty more epochs fold
// that chain over and over and recycle what it lets go, and the process
// still reads the snapshot it was restored at: a fold never frees a frame
// a restored process maps.
func TestFoldLeavesRestoredProcessItsFrames(t *testing.T) {
	r := newReplicated(t, 1, 1)
	for i := 0; i < 5; i++ {
		r.epoch()
	}
	img, err := r.wires[0].Receiver().Latest(r.g.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := heap(t, r.p)
	restored := restoreOn(t, r.pms[0], img)
	if !bytes.Equal(heap(t, restored), want) {
		t.Fatal("the restore differs from the source at its epoch")
	}
	for i := 0; i < 20; i++ {
		r.epoch()
	}
	checkChain(t, r.wires[0].Receiver(), r.g.ID, r.g.Epoch(), "after 20 more epochs")
	if !bytes.Equal(heap(t, restored), want) {
		t.Fatal("the restored process no longer reads its snapshot: a fold freed a frame it maps")
	}
}

// TestPromoteQuorumRepairsFromFoldedMember: a member cut off half way
// holds an older state than the elected one, which holds only a folded
// base and its floor. PromoteQuorum repairs the laggard from those two
// images — the base supersedes its whole chain — and afterwards every
// member holds the promoted floor and restores it bit-identical to the
// source.
func TestPromoteQuorumRepairsFromFoldedMember(t *testing.T) {
	r := newReplicated(t, 3, 2)
	for i := 0; i < 6; i++ {
		r.epoch()
	}
	r.wires[2].Link().Partition()
	for i := 0; i < 6; i++ {
		r.epoch()
	}
	floor := r.g.Durable()
	if behind := r.wires[2].Receiver().ContiguousEpoch(r.g.ID); behind >= floor {
		t.Fatalf("fixture: the cut-off member's floor %d is not behind the durable %d", behind, floor)
	}
	want := heap(t, r.p)

	srcs := make([]core.ReplicaSource, len(r.wires))
	for i, w := range r.wires {
		srcs[i] = w.Receiver()
	}
	rep, err := newMachine().o.PromoteQuorum(srcs, r.g.ID, nil, core.RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Floor != floor || rep.Elected == 2 || rep.Repaired != 2 {
		t.Fatalf("promotion: floor %d (want %d), elected %d, %d epochs repaired (want the base and the floor)",
			rep.Floor, floor, rep.Elected, rep.Repaired)
	}
	for i, w := range r.wires {
		when := fmt.Sprintf("member %d", i)
		checkChain(t, w.Receiver(), r.g.ID, floor, when)
		img, err := w.Receiver().ImageAt(r.g.ID, floor)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(heap(t, restoreOn(t, r.pms[i], img)), want) {
			t.Fatalf("%s: the restore differs from the source at the promoted floor", when)
		}
	}
}

// foldStream is a hand-built frame stream over a receiver's folds, and
// the reply its last frame must draw.
type foldStream struct {
	name   string
	stream []byte
	last   byte
}

// foldStreams builds the fold's edge cases over a one-object lineage of
// eight pages: epochs 1 (full), 2 and 3 fold 1 into 2, and then
//   - epoch 1 again, which the base holds: acked and released;
//   - a full image at 5 over [1, 3] (a hole at 2): it supersedes both;
//   - refs to epoch 1's pages, which the fold let go: a need.
func foldStreams(tb testing.TB) []foldStream {
	pm := vm.NewPhysMem(0)
	compact := func(img *core.Image, skip func(objstore.Hash) bool) []byte {
		payload, _, _ := img.EncodeDeltaCompact(skip)
		return frameBytes(tb, frameDelta, payload)
	}
	e1 := pageImage(tb, pm, 1, true, pages(0, 8, 100))
	e2 := rewrite(tb, pm, e1, 2, false)
	e3 := rewrite(tb, pm, e2, 3, false)
	chain := slices.Concat(compact(e1, nil), compact(e2, nil), compact(e3, nil))
	full5 := pageImage(tb, pm, 5, true, pages(0, 8, 500))
	stale := pageImage(tb, pm, 4, false, pages(0, 8, 100)) // epoch 1's contents
	all := func(objstore.Hash) bool { return true }
	return []foldStream{
		{"re-delivered folded epoch", slices.Concat(chain, compact(e1, nil)), frameAck},
		{"full image above a hole", slices.Concat(compact(e1, nil), compact(e3, nil), compact(full5, nil)), frameAck},
		{"need right after a fold", slices.Concat(chain, compact(stale, all)), frameNeed},
	}
}

// TestFoldStreams: each of the fold's edge cases ends in the reply it
// must — an ack or a need — with the chain in shape and every page held
// under the hash of its bytes.
func TestFoldStreams(t *testing.T) {
	for _, s := range foldStreams(t) {
		pm := vm.NewPhysMem(0)
		recv := NewReceiver(pm, nil)
		var replies bytes.Buffer
		if _, err := recv.ServeReplica(oneWay{bytes.NewReader(s.stream), &replies}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var last byte
		for {
			typ, _, err := readFrame(&replies)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			last = typ
		}
		if last != s.last {
			t.Errorf("%s: last reply type %d, want %d", s.name, last, s.last)
		}
		epochs := recv.ReplicaEpochs(1)
		checkChain(t, recv, 1, epochs[len(epochs)-1], s.name)
		checkBlocks(t, recv, pm, s.name)
	}
}
