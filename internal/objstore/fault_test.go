package objstore

import (
	"bytes"
	"errors"
	"testing"

	"aurora/internal/storage"
)

// faultStore builds a store on a fault-injecting device.
func faultStore(cfg storage.FaultConfig) (*Store, *storage.FaultDevice) {
	clock := storage.NewClock()
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock, cfg)
	return Create(fd, clock), fd
}

func onePage(b byte) []byte {
	return bytes.Repeat([]byte{b}, BlockSize)
}

// TestSyncBarrierOrdering audits the durability barrier protocol via
// the device op log: the index extent must be written AND synced
// before the superblock slot is published, and the slot synced before
// Sync returns.
func TestSyncBarrierOrdering(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 1})
	if _, err := s.PutRecord(1, 1, 1, 0, true, []byte("meta"), map[int64][]byte{0: onePage(0xaa)}, nil); err != nil {
		t.Fatal(err)
	}
	fd.SetLogging(true)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	log := fd.Log()
	if len(log) != 4 {
		t.Fatalf("Sync issued %d device ops, want 4 (write idx, sync, write sb, sync): %+v", len(log), log)
	}
	if log[0].Kind != "write" || log[0].Off < dataStart {
		t.Fatalf("op 1 must write the index extent past dataStart: %+v", log[0])
	}
	if log[1].Kind != "sync" {
		t.Fatalf("op 2 must sync the index before publishing: %+v", log[1])
	}
	if log[2].Kind != "write" || log[2].Len != sbSize ||
		(log[2].Off != sbSlot0 && log[2].Off != sbSlot1) {
		t.Fatalf("op 3 must write one superblock slot: %+v", log[2])
	}
	if log[3].Kind != "sync" {
		t.Fatalf("op 4 must sync the superblock: %+v", log[3])
	}
}

// TestSyncAlternatesSlots checks consecutive generations land in
// different slots.
func TestSyncAlternatesSlots(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 1})
	fd.SetLogging(true)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	var slots []int64
	for _, op := range fd.Log() {
		if op.Kind == "write" && op.Len == sbSize && op.Off < dataStart {
			slots = append(slots, op.Off)
		}
	}
	if len(slots) != 2 || slots[0] == slots[1] {
		t.Fatalf("superblock slots must alternate, got %v", slots)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}
}

// TestTornSuperblockRecovery injects a torn write on the superblock
// publish and checks the reopened store serves the previous
// acknowledged generation in full.
func TestTornSuperblockRecovery(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 2})
	if _, err := s.PutRecord(1, 1, 1, 0, true, []byte("epoch1"), map[int64][]byte{0: onePage(0x11)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil { // generation 1: acknowledged
		t.Fatal(err)
	}
	if _, err := s.PutRecord(1, 1, 2, 0, false, []byte("epoch2"), map[int64][]byte{0: onePage(0x22)}, nil); err != nil {
		t.Fatal(err)
	}
	// Generation 2's Sync: op +1 writes the index, +2 syncs it, +3
	// writes the superblock slot — tear that one.
	fd.TearOps(fd.OpCount()+3, fd.OpCount()+3)
	if err := s.Sync(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("torn superblock publish must surface, got %v", err)
	}
	fd.ClearScripts()

	re, err := Open(fd, storage.NewClock())
	if err != nil {
		t.Fatalf("reopen after torn publish: %v", err)
	}
	if re.Generation() != 1 {
		t.Fatalf("reopened generation = %d, want rollback to 1", re.Generation())
	}
	// Everything acknowledged by generation 1 is intact.
	rec, err := re.GetRecord(1, 1, 1)
	if err != nil {
		t.Fatalf("acknowledged record lost: %v", err)
	}
	data, err := re.ReadBlock(refOf(t, rec, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, onePage(0x11)) {
		t.Fatal("acknowledged page diverged after rollback")
	}
	// The unacknowledged epoch-2 record is simply absent.
	if _, err := re.GetRecord(1, 1, 2); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("unacknowledged record should be rolled back, got %v", err)
	}
}

// TestTornIndexRecovery tears the index write itself: the superblock
// was never touched, so rollback is immediate.
func TestTornIndexRecovery(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 3})
	if _, err := s.PutRecord(1, 1, 1, 0, true, nil, map[int64][]byte{0: onePage(0x33)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	fd.TearOps(fd.OpCount()+1, fd.OpCount()+1) // the very next write: the index extent
	if err := s.Sync(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("torn index write must surface, got %v", err)
	}
	fd.ClearScripts()
	re, err := Open(fd, storage.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if re.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", re.Generation())
	}
}

// TestCrashTornSlotFallsBack models a power cut that corrupts the
// freshly published slot without the writer noticing: Open must fall
// back to the older generation by checksum.
func TestCrashTornSlotFallsBack(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 4})
	if err := s.Sync(); err != nil { // gen 1 -> slot1
		t.Fatal(err)
	}
	if _, err := s.PutRecord(1, 9, 9, 0, true, nil, map[int64][]byte{0: onePage(0x99)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil { // gen 2 -> slot0
		t.Fatal(err)
	}
	// Tear gen 2's slot after the fact: garbage over its tail.
	if _, err := fd.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, sbSlot0+sbSize-4); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fd, storage.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if re.Generation() != 1 {
		t.Fatalf("generation = %d, want fallback to 1", re.Generation())
	}
	if _, err := re.GetRecord(1, 9, 9); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("gen-2 record should be gone after fallback, got %v", err)
	}
}

// TestReadVerifiesBlockHash checks both read paths catch silent
// corruption of a block's device contents.
func TestReadVerifiesBlockHash(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 5})
	rec, err := s.PutRecord(1, 1, 1, 0, true, nil, map[int64][]byte{0: onePage(0x44)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := refOf(t, rec, 0)
	if _, err := s.ReadBlock(ref); err != nil {
		t.Fatalf("pristine block must verify: %v", err)
	}
	// Rot the block directly on the device, behind the store's back.
	if _, err := fd.WriteAt([]byte("rotten"), ref.Off+100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlock(ref); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("ReadBlock must catch rot, got %v", err)
	}
	if _, err := s.ReadBlocks([]BlockRef{ref}); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("ReadBlocks must catch rot, got %v", err)
	}
}

// TestReadCatchesInjectedBitRot wires the FaultDevice's silent bit-rot
// into the verified read path.
func TestReadCatchesInjectedBitRot(t *testing.T) {
	s, _ := faultStore(storage.FaultConfig{Seed: 6, BitRot: 1.0})
	rec, err := s.PutRecord(1, 1, 1, 0, true, nil, map[int64][]byte{0: onePage(0x55)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlock(refOf(t, rec, 0)); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("verified read must catch injected bit rot, got %v", err)
	}
}

// TestScrubDetectsAndRepairs corrupts one block and heals it from a
// peer store holding the same content-addressed data.
func TestScrubDetectsAndRepairs(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 7})
	peer, _ := faultStore(storage.FaultConfig{Seed: 8})
	pages := map[int64][]byte{0: onePage(0x66), 1: onePage(0x77)}
	rec, err := s.PutRecord(1, 1, 1, 0, true, nil, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.PutRecord(1, 1, 1, 0, true, nil, pages, nil); err != nil {
		t.Fatal(err)
	}
	// Clean pass first.
	rep, err := s.Scrub(peer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 2 || rep.Corrupt != 0 {
		t.Fatalf("clean scrub: %+v", rep)
	}
	// Rot page 0 on the device.
	if _, err := fd.WriteAt([]byte("bitrot!"), refOf(t, rec, 0).Off+7); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Scrub(peer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Repaired != 1 || rep.Lost != 0 {
		t.Fatalf("repairing scrub: %+v", rep)
	}
	// The block reads verified again.
	data, err := s.ReadBlock(refOf(t, rec, 0))
	if err != nil {
		t.Fatalf("block must verify after repair: %v", err)
	}
	if !bytes.Equal(data, onePage(0x66)) {
		t.Fatal("repaired block has wrong contents")
	}
}

// TestScrubReportsLoss corrupts a block with no good copy anywhere and
// checks the affected record is named.
func TestScrubReportsLoss(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 9})
	rec, err := s.PutRecord(1, 4, 2, 0, true, nil, map[int64][]byte{0: onePage(0x88)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteAt([]byte("gone"), refOf(t, rec, 0).Off); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Lost != 1 || rep.Repaired != 0 {
		t.Fatalf("lossy scrub: %+v", rep)
	}
	if len(rep.LostRecords) != 1 || rep.LostRecords[0] != (RecordKey{Group: 1, OID: 4, Epoch: 2}) {
		t.Fatalf("lost records: %+v", rep.LostRecords)
	}
}

// TestPutBlockFailedWriteNotDeduped: a block put whose device write
// fails must leave no dedup-index entry behind. Before the fix, the
// entry was published before the write, so a retried put of the same
// content dedup-hit a block that never landed — durably poisoning
// every epoch that referenced the page.
func TestPutBlockFailedWriteNotDeduped(t *testing.T) {
	s, fd := faultStore(storage.FaultConfig{Seed: 3})
	data := onePage(0x42)
	fd.FailOps(storage.FaultWrite, fd.OpCount()+1, fd.OpCount()+1)
	put := func() (*Record, error) {
		return s.PutRecord(1, 1, 1, 0, true, nil, map[int64][]byte{0: data}, nil)
	}
	if _, err := put(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("faulted put = %v, want ErrInjected", err)
	}
	fd.ClearScripts()
	// The retry must write fresh bytes, not reference the ghost block.
	rec, err := put()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock(refOf(t, rec, 0))
	if err != nil {
		t.Fatalf("block written by the retry must verify: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retried block has wrong contents")
	}
	if hits := s.Stats().DedupHits; hits != 0 {
		t.Fatalf("dedup hits = %d, want 0: the failed put must not seed the index", hits)
	}
}
