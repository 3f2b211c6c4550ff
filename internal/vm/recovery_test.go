package vm

import (
	"bytes"
	"errors"
	"testing"

	"aurora/internal/storage"
)

// TestRecoveryBoundedSwapInRetry: the pager's swap-in path retries
// transient device faults within its budget but surfaces a typed error
// selectable with errors.Is(err, ErrBackendDown) when the swap device
// stays failed, instead of spinning the faulting thread forever.
func TestRecoveryBoundedSwapInRetry(t *testing.T) {
	clock := storage.NewClock()
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock,
		storage.FaultConfig{Seed: 1})
	pm := NewPhysMem(0)
	swap := NewSwap(fd)
	pager := NewPager(pm, swap, nil)

	obj := pm.NewObject("victim", 4*PageSize)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data, []byte("precious"))
	obj.InsertPage(pm, 0, f)

	// Evict the page by hand (the eviction half of Pager.evict).
	slot, err := swap.WritePage(f)
	if err != nil {
		t.Fatal(err)
	}
	ev := obj.SwapOut(0, slot)
	if ev == nil {
		t.Fatal("page did not swap out")
	}
	pm.Free(ev)

	// A permanently down device short-circuits to the typed error.
	fd.Down()
	err = pager.SwapIn(obj, 0)
	if err == nil {
		t.Fatal("swap-in from a dead device must fail")
	}
	if !errors.Is(err, ErrBackendDown) {
		t.Fatalf("error not selectable as ErrBackendDown: %v", err)
	}
	if f2 := obj.Lookup(0); f2 != nil {
		t.Fatal("failed swap-in must not install a page")
	}

	// Transient faults, by contrast, are retried away within bounds.
	fd.Up()
	fd.FailOps(storage.FaultRead, fd.OpCount()+1, fd.OpCount()+2)
	if err := pager.SwapIn(obj, 0); err != nil {
		t.Fatalf("bounded retry should absorb transient faults: %v", err)
	}
	f2 := obj.Lookup(0)
	if f2 == nil || !bytes.HasPrefix(f2.Data, []byte("precious")) {
		t.Fatal("swapped-in page missing or corrupted")
	}
}

// TestRecoverySwapInRetryBudgetConfigurable: the retry budget is
// honored — a fault streak longer than the budget fails typed, a
// shorter one is absorbed.
func TestRecoverySwapInRetryBudgetConfigurable(t *testing.T) {
	clock := storage.NewClock()
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock,
		storage.FaultConfig{Seed: 7})
	pm := NewPhysMem(0)
	swap := NewSwap(fd)
	pager := NewPager(pm, swap, nil)
	pager.SwapInRetries = 1 // 2 attempts total

	obj := pm.NewObject("victim", PageSize)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data, []byte("keep"))
	obj.InsertPage(pm, 0, f)
	slot, err := swap.WritePage(f)
	if err != nil {
		t.Fatal(err)
	}
	pm.Free(obj.SwapOut(0, slot))

	// 3 straight read faults > 2 attempts: typed failure.
	fd.FailOps(storage.FaultRead, fd.OpCount()+1, fd.OpCount()+3)
	if err := pager.SwapIn(obj, 0); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("budget overrun not typed as ErrBackendDown: %v", err)
	}
	// The remaining scripted fault is within a fresh budget.
	if err := pager.SwapIn(obj, 0); err != nil {
		t.Fatalf("retry within budget failed: %v", err)
	}
	f2 := obj.Lookup(0)
	if f2 == nil || !bytes.HasPrefix(f2.Data, []byte("keep")) {
		t.Fatal("page lost across retries")
	}
}
