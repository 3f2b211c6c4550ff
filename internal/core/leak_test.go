package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file is the goroutine-leak harness for the fleet runtime's
// shutdown paths: flusher close (Unpersist), orchestrator Close, and
// the poll-driven reclaimer/supervisor (which must own no goroutines
// at all). The regression it guards: before the fleet refactor, an
// Enqueue blocked on a full flush queue could be stranded forever by a
// concurrent Close — Unpersist of a group mid-checkpoint-storm leaked
// the checkpointing goroutine and its pinned image.

// goroutineSnapshot captures the current goroutine count and stacks.
type goroutineSnapshot struct {
	n      int
	stacks string
}

func snapshotGoroutines() goroutineSnapshot {
	// Settle briefly so goroutines in teardown (closed channels, done
	// wg.Waits) finish parking before we count.
	runtime.Gosched()
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return goroutineSnapshot{n: runtime.NumGoroutine(), stacks: string(buf[:n])}
}

// assertNoLeaks fails the test if the goroutine count has not returned
// to the baseline within a deadline, printing only the stacks that were
// not present in the baseline snapshot.
func assertNoLeaks(t *testing.T, before goroutineSnapshot) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var after goroutineSnapshot
	for {
		after = snapshotGoroutines()
		if after.n <= before.n {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	baseline := make(map[string]bool)
	for _, s := range strings.Split(before.stacks, "\n\n") {
		baseline[goroutineSite(s)] = true
	}
	var leaked []string
	for _, s := range strings.Split(after.stacks, "\n\n") {
		if !baseline[goroutineSite(s)] {
			leaked = append(leaked, s)
		}
	}
	t.Fatalf("goroutine leak: %d before, %d after; new stacks:\n%s",
		before.n, after.n, strings.Join(leaked, "\n\n"))
}

// goroutineSite reduces one goroutine's stack dump to its creation
// site, the stable key for diffing (goroutine IDs churn, sites don't).
func goroutineSite(stack string) string {
	if i := strings.Index(stack, "created by "); i >= 0 {
		return strings.SplitN(stack[i:], "\n", 2)[0]
	}
	return stack
}

// TestUnpersistWithQueuedEpochsDoesNotLeak reproduces the stranded-
// Enqueue leak: fill a group's flush pipeline past its admission
// window so a checkpoint blocks in Enqueue, then Unpersist the group.
// The blocked checkpoint must be woken (its epoch failed, not flushed)
// and every goroutine must exit once the gated flushes release.
func TestUnpersistWithQueuedEpochsDoesNotLeak(t *testing.T) {
	before := snapshotGoroutines()

	r := newRig(t)
	r.o.FlushQueueDepth = 1
	p := spawnCounter(t, r)
	g, err := r.o.Persist("leak", p)
	if err != nil {
		t.Fatal(err)
	}
	gb := newGateBackend()
	r.o.Attach(g, gb)

	// Epoch 1 occupies the single worker credit, epoch 2 fills the
	// queue, epoch 3 blocks in Enqueue — the admission window (1+1) is
	// full.
	for e := uint64(1); e <= 3; e++ {
		gb.gate(e)
	}
	for e := 1; e <= 2; e++ {
		if _, err := r.k.Run(1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	gb.awaitEntered(t, 1)

	var ckWg sync.WaitGroup
	ckWg.Add(1)
	go func() {
		defer ckWg.Done()
		// Blocks in Enqueue until Unpersist fails the job.
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Errorf("blocked checkpoint: %v", err)
		}
	}()
	waitFor(t, "checkpoint 3 to block in the window", func() bool {
		return g.QueueDepth() == 3
	})

	var unWg sync.WaitGroup
	unWg.Add(1)
	go func() {
		defer unWg.Done()
		r.o.Unpersist(g)
	}()
	// The blocked Enqueue must be woken by Close with every gate still
	// held — that wake IS the leak fix. Only then do the gates release,
	// letting Unpersist finish draining the in-flight epochs.
	ckWg.Wait()
	for e := uint64(1); e <= 3; e++ {
		gb.release(e)
	}
	unWg.Wait()
	if gb.hasFlushed(3) {
		t.Error("epoch 3 flushed after Unpersist; it should have been failed in Enqueue")
	}

	r.o.Close()
	assertNoLeaks(t, before)
}

// TestCloseReapsFleetWorkers proves orchestrator teardown: after real
// checkpoint traffic across several groups, Close drains every
// pipeline, stops the shard workers, and leaves zero goroutines.
// Reclaimer and supervisor are poll-driven and must hold none either.
func TestCloseReapsFleetWorkers(t *testing.T) {
	before := snapshotGoroutines()

	r := newRig(t)
	sup := NewSupervisor(r.o, SupervisorConfig{})
	rec := NewReclaimer(r.o, r.store, RetentionPolicy{KeepLast: 2}, Watermarks{})

	for i := 0; i < 4; i++ {
		p := spawnCounter(t, r)
		g, err := r.o.Persist("fleet-close", p)
		if err != nil {
			t.Fatal(err)
		}
		r.o.Attach(g, r.store)
		sup.Watch(g)
		for e := 0; e < 3; e++ {
			if _, err := r.k.Run(1); err != nil {
				t.Fatal(err)
			}
			if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	sup.Poll()
	rec.Scan()
	if st := r.o.FleetStats(); st.Dispatches == 0 {
		t.Fatal("no flushes went through the fleet runtime")
	}

	r.o.Close()
	assertNoLeaks(t, before)
}

// waitFor polls cond with a deadline; the fleet runtime is
// event-driven, so tests await observable state instead of sleeping.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
