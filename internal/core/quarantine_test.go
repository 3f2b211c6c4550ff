package core

import (
	"bytes"
	"errors"
	"testing"

	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// quarantineWorkload checkpoints a counter group n times against the
// rig's store backend and returns the group plus the counter value
// captured at each epoch.
func quarantineWorkload(t *testing.T, r *rig, n int) (*Group, map[uint64]uint64) {
	t.Helper()
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, r.store)
	vals := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		vals[g.Epoch()] = counterValue(p)
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	return g, vals
}

// corruptEpochBlock overwrites one data block belonging to exactly
// (group, epoch) — a block the epoch's own record wrote, so older
// epochs resolve to different (clean) blocks — with garbage, directly
// on the device underneath the store.
func corruptEpochBlock(t *testing.T, sb *StoreBackend, group, epoch uint64) {
	t.Helper()
	m, err := sb.store.Manifest(group, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range m.Records {
		if key.OID&vmBit == 0 || key.Epoch != epoch {
			continue
		}
		rec, err := sb.store.GetRecord(key.Group, key.OID, key.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rec.Pages {
			garbage := bytes.Repeat([]byte{0xAA}, objstore.BlockSize)
			if _, err := sb.store.Device().WriteAt(garbage, p.Ref.Off); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("epoch %d wrote no data block to corrupt", epoch)
}

// TestQuarantineValidateFallsBack: the Validate pre-pass catches a
// corrupted newest epoch, quarantines it (visibly, durably), and the
// restore lands on the previous epoch bit-identical.
func TestQuarantineValidateFallsBack(t *testing.T) {
	r := newRig(t)
	g, vals := quarantineWorkload(t, r, 3)
	bad := g.Durable()
	corruptEpochBlock(t, r.store, g.ID, bad)

	ng, bd, err := r.o.Restore(g, 0, RestoreOpts{Validate: true})
	if err != nil {
		t.Fatalf("restore should fall back, got %v", err)
	}
	if bd.FallbackFrom != bad {
		t.Fatalf("FallbackFrom = %d, want %d", bd.FallbackFrom, bad)
	}
	if bd.Quarantined != 1 || !bd.Validated {
		t.Fatalf("Quarantined=%d Validated=%v", bd.Quarantined, bd.Validated)
	}
	np, err := r.k.Process(ng.PIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(np); got != vals[bad-1] {
		t.Fatalf("restored counter = %d, want epoch %d's %d", got, bad-1, vals[bad-1])
	}
	// The quarantine is recorded in the store and on the group.
	if !r.store.store.IsQuarantined(g.ID, bad) {
		t.Fatal("store does not record the quarantine")
	}
	if why, ok := ng.Quarantined()[bad]; !ok || why == "" {
		t.Fatalf("group quarantine ledger = %v", ng.Quarantined())
	}
}

// TestQuarantineEagerLoadCorruption: without the pre-pass, the eager
// load's hash-verified block reads catch the corruption mid-load and
// trigger the same quarantine + fallback.
func TestQuarantineEagerLoadCorruption(t *testing.T) {
	r := newRig(t)
	g, vals := quarantineWorkload(t, r, 3)
	bad := g.Durable()
	corruptEpochBlock(t, r.store, g.ID, bad)

	ng, bd, err := r.o.Restore(g, 0, RestoreOpts{})
	if err != nil {
		t.Fatalf("eager restore should fall back, got %v", err)
	}
	if bd.FallbackFrom != bad || bd.Quarantined != 1 {
		t.Fatalf("FallbackFrom=%d Quarantined=%d, want %d/1", bd.FallbackFrom, bd.Quarantined, bad)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != vals[bad-1] {
		t.Fatalf("restored counter = %d, want %d", got, vals[bad-1])
	}
	if !r.store.store.IsQuarantined(g.ID, bad) {
		t.Fatal("mid-load corruption did not quarantine the epoch")
	}
}

// TestQuarantineSendFallsBack: `sls send` opens its epoch as a restore
// of epoch 0 does, so a corrupt newest epoch is quarantined and the file
// holds the newest good epoch below it, which Encode names.
func TestQuarantineSendFallsBack(t *testing.T) {
	r := newRig(t)
	g, vals := quarantineWorkload(t, r, 3)
	bad := g.Durable()
	corruptEpochBlock(t, r.store, g.ID, bad)

	file, epoch, err := r.o.Encode(g)
	if err != nil {
		t.Fatalf("send should fall back, got %v", err)
	}
	if epoch != bad-1 {
		t.Fatalf("sent epoch %d, want %d", epoch, bad-1)
	}
	if !r.store.store.IsQuarantined(g.ID, bad) {
		t.Fatal("send did not quarantine the corrupt epoch")
	}
	img, err := DecodeImage(file, r.k.Mem)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := r.o.RestoreImage(img, 0, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != vals[bad-1] {
		t.Fatalf("counter restored from the file = %d, want %d", got, vals[bad-1])
	}
}

// TestQuarantineExplicitEpochFallsBack: explicitly asking for a
// quarantined epoch does not resurrect it — the restore reports the
// fallback instead.
func TestQuarantineExplicitEpochFallsBack(t *testing.T) {
	r := newRig(t)
	g, vals := quarantineWorkload(t, r, 3)
	bad := g.Durable()
	corruptEpochBlock(t, r.store, g.ID, bad)
	if _, _, err := r.o.Restore(g, 0, RestoreOpts{Validate: true}); err != nil {
		t.Fatal(err)
	}

	// Second restore, explicitly naming the poisoned epoch.
	ng, bd, err := r.o.Restore(g, bad, RestoreOpts{})
	if err != nil {
		t.Fatalf("explicit restore of quarantined epoch should fall back: %v", err)
	}
	if bd.FallbackFrom != bad {
		t.Fatalf("FallbackFrom = %d, want %d", bd.FallbackFrom, bad)
	}
	np, _ := r.k.Process(ng.PIDs()[0])
	if got := counterValue(np); got != vals[bad-1] {
		t.Fatalf("restored counter = %d, want %d", got, vals[bad-1])
	}
}

// TestQuarantineAllEpochsPoisoned: when every epoch fails validation,
// the restore fails with an error selectable as ErrEpochQuarantined —
// not a generic "no image".
func TestQuarantineAllEpochsPoisoned(t *testing.T) {
	r := newRig(t)
	g, _ := quarantineWorkload(t, r, 3)
	for _, ep := range r.store.Epochs(g.ID) {
		corruptEpochBlock(t, r.store, g.ID, ep)
	}
	_, _, err := r.o.Restore(g, 0, RestoreOpts{Validate: true})
	if err == nil {
		t.Fatal("restore of an all-poisoned chain must fail")
	}
	if !errors.Is(err, ErrEpochQuarantined) {
		t.Fatalf("error not selectable as ErrEpochQuarantined: %v", err)
	}
}

// TestQuarantinePersistsAcrossRemount: a quarantine mark written by a
// failed restore survives store Sync + reopen, so the poisoned epoch
// stays skipped after the machine reboots.
func TestQuarantinePersistsAcrossRemount(t *testing.T) {
	clock := storage.NewClock()
	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)

	r := newRig(t)
	st := objstore.Create(dev, clock)
	sb := NewStoreBackend(st, r.k.Mem, r.clock)
	p := spawnCounter(t, r)
	g, err := r.o.Persist("app", p)
	if err != nil {
		t.Fatal(err)
	}
	r.o.Attach(g, sb)
	for i := 0; i < 3; i++ {
		r.k.Run(2)
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.o.Sync(g); err != nil {
		t.Fatal(err)
	}
	bad := g.Durable()
	corruptEpochBlock(t, sb, g.ID, bad)
	if _, _, err := r.o.Restore(g, 0, RestoreOpts{Validate: true}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	st2, err := objstore.Open(dev, clock)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.IsQuarantined(g.ID, bad) {
		t.Fatal("quarantine mark lost across remount")
	}
	if why := st2.QuarantinedEpochs(g.ID)[bad]; why == "" {
		t.Fatal("quarantine reason lost across remount")
	}
	// A reboot-restore from the remounted store skips the epoch.
	m, err := st2.LatestGoodManifest(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != bad-1 {
		t.Fatalf("latest good epoch after remount = %d, want %d", m.Epoch, bad-1)
	}
}
