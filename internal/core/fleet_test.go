package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file is the fleet-scale acceptance harness for the sharded
// orchestrator runtime: a seeded simulation that drives thousands of
// persistence groups through their whole lifecycle — spawn,
// checkpoint storms, crashes with supervised recovery, time-travel
// restores, and unpersist-while-queued — on one orchestrator whose
// flush work all runs on the fixed shard-worker pool under a global
// memory budget, with a fault-injecting primary device underneath.
//
// Scale is environment-gated: plain `go test` runs a smoke-sized
// fleet so tier-1 stays fast; `make fleetcheck` sets AURORA_SCALE=full
// and replays seeds 1/7/42 at 10,000 groups under the race detector.

// Scale picks a scale harness's size: smoke under plain `go test`, full
// when AURORA_SCALE=full — the one switch the fleet, placement and
// autoscale gates (`make fleetcheck`, `placecheck`, `scalecheck`) set.
// Exported from a test file so the external core_test harnesses share
// it.
func Scale(smoke, full int) int {
	if os.Getenv("AURORA_SCALE") == "full" {
		return full
	}
	return smoke
}

// fleetGroupTotal is the number of groups each seed drives.
func fleetGroupTotal() int { return Scale(256, 10_000) }

// fleetSeedPages is the patterned working set written to every group
// beyond the counter page, so images span several blocks.
const fleetSeedPages = 4

// fleetMaxLive bounds how many groups are alive at once: the fleet is
// a churn of short-lived FaaS-style instances, not 10k concurrent
// processes.
const fleetMaxLive = 64

// fleetSim is one group's live state in the simulation.
type fleetSim struct {
	g           *Group
	p           *kernel.Process
	ckpts       int
	lastDurable uint64
	samples     []fleetSample
}

// fleetSample pins one checkpointed state for a later bit-identical
// restore check.
type fleetSample struct {
	epoch uint64
	value uint64
	sum   uint64 // fnv64 over the counter page and the seeded pages
}

// fleetPrint is the deterministic fingerprint of one simulation run:
// two runs with the same seed and scale must produce identical
// fingerprints. Quantities that depend on real goroutine scheduling
// are deliberately excluded: budget stalls, and the virtual clock —
// cross-group dedup means whichever flush lane writes a shared block
// first pays the device-write cost, so lane-merged virtual time
// shifts by a few hundred nanoseconds with real flush interleaving
// even when every logical outcome is identical.
type fleetPrint struct {
	Ckpts     int
	Crashes   int
	Recovered int
	GaveUps   int
	Restores  int
	Retired   int
	CkptSum   uint64
}

func heapSum(t *testing.T, p *kernel.Process) uint64 {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, vm.PageSize)
	for pg := 0; pg <= fleetSeedPages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			t.Fatalf("read heap page %d: %v", pg, err)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// runFleetSim drives `total` groups through the full lifecycle on one
// orchestrator and returns the run's fingerprint.
func runFleetSim(t *testing.T, seed int64, total int) fleetPrint {
	t.Helper()
	before := snapshotGoroutines()

	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	o.FleetMemBudget = 96 << 10 // a handful of images; forces budget waits under storms
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock,
		storage.FaultConfig{Seed: seed, WriteErr: 0.002})
	store := NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)
	sup := NewSupervisor(o, SupervisorConfig{})

	rng := rand.New(rand.NewSource(seed))
	var fp fleetPrint
	var live []*fleetSim
	spawned := 0

	spawnOne := func() *fleetSim {
		p, err := k.Spawn(0, "counter")
		if err != nil {
			t.Fatal(err)
		}
		p.SetProgram(&counter{addr: p.HeapBase()})
		// Seed a patterned working set so the image is more than one
		// page; content is group-unique so dedup cannot flatter this run.
		buf := make([]byte, vm.PageSize)
		for pg := 1; pg <= fleetSeedPages; pg++ {
			for i := range buf {
				buf[i] = byte(int64(spawned)*131 + int64(pg)*31 + int64(i)*7 + seed)
			}
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
				t.Fatal(err)
			}
		}
		g, err := o.Persist(fmt.Sprintf("fleet-%d-%d", seed, spawned), p)
		if err != nil {
			t.Fatal(err)
		}
		o.Attach(g, store)
		sup.Watch(g)
		spawned++
		return &fleetSim{g: g, p: p}
	}

	retire := func(sg *fleetSim) {
		// Unpersist first — often with epochs still queued on the shard
		// workers, which is exactly the stranded-Enqueue regression path.
		// The fingerprint takes the barrier count, not Durable(): how
		// far the background flush got by the instant of retirement
		// depends on real scheduling, and the replay must not.
		fp.CkptSum += uint64(sg.ckpts)
		sup.Unwatch(sg.g)
		o.Unpersist(sg.g)
		if sg.p.State() == kernel.ProcRunning {
			k.Exit(sg.p, 0)
		}
		_ = k.Reap(sg.p)
		fp.Retired++
	}

	checkMonotone := func(sg *fleetSim) {
		if d := sg.g.Durable(); d < sg.lastDurable {
			t.Fatalf("group %d durable frontier regressed: %d -> %d", sg.g.ID, sg.lastDurable, d)
		} else {
			sg.lastDurable = d
		}
	}

	for spawned < total || len(live) > 0 {
		for len(live) < fleetMaxLive && spawned < total {
			live = append(live, spawnOne())
		}
		if _, err := k.Run(len(live)); err != nil {
			t.Fatal(err)
		}
		ops := 1 + rng.Intn(4)
		for i := 0; i < ops && len(live) > 0; i++ {
			idx := rng.Intn(len(live))
			sg := live[idx]
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // checkpoint, sometimes sampling the state
				if _, err := o.Checkpoint(sg.g, CheckpointOpts{}); err != nil {
					t.Fatalf("checkpoint group %d: %v", sg.g.ID, err)
				}
				sg.ckpts++
				fp.Ckpts++
				if rng.Intn(4) == 0 {
					sg.samples = append(sg.samples, fleetSample{
						epoch: sg.g.Epoch(),
						value: counterValue(sg.p),
						sum:   heapSum(t, sg.p),
					})
				}
			case 4: // crash; the supervisor restores from the durable frontier
				// Gate on the deterministic barrier count and pin the
				// durable frontier to the barrier before crashing, so the
				// epoch the supervisor restores from — and therefore the
				// whole downstream trajectory — does not depend on how far
				// the background flush happened to get. Crash-with-queued
				// epochs stays covered by the retire path.
				if sg.ckpts < 1 {
					continue
				}
				if err := o.Sync(sg.g); err != nil {
					t.Fatalf("pre-crash sync group %d: %v", sg.g.ID, err)
				}
				k.Exit(sg.p, 1)
				fp.Crashes++
				evs := sup.Poll()
				var ev *SupervisorEvent
				for j := range evs {
					if evs[j].Group == sg.g.ID {
						ev = &evs[j]
					}
				}
				if ev == nil || ev.Err != nil {
					t.Fatalf("crash of group %d not recovered: %+v", sg.g.ID, evs)
				}
				if ev.GaveUp {
					// Restart budget exhausted: the supervisor declared a
					// crash loop. The corpse still retires cleanly.
					fp.GaveUps++
					fp.CkptSum += uint64(sg.ckpts)
					o.Unpersist(sg.g)
					_ = k.Reap(sg.p)
					fp.Retired++
					live[idx] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				ng, err := o.Group(ev.NewGroup)
				if err != nil {
					t.Fatal(err)
				}
				np, err := k.Process(ng.PIDs()[0])
				if err != nil {
					t.Fatal(err)
				}
				// Drop the corpse group — its queued epochs fail closed.
				old := sg.g
				sg.g, sg.p, sg.samples, sg.lastDurable = ng, np, nil, 0
				o.Unpersist(old)
				fp.Recovered++
			case 5: // time-travel restore of a sampled durable epoch
				if len(sg.samples) == 0 {
					continue
				}
				s := sg.samples[rng.Intn(len(sg.samples))]
				// Sync first: every recorded sample sits at or below the
				// barrier, so after the sync it is durable by construction.
				// Filtering on a racy Durable() read here would let real
				// flush timing steer the simulation.
				if err := o.Sync(sg.g); err != nil {
					t.Fatalf("pre-restore sync group %d: %v", sg.g.ID, err)
				}
				ng, _, err := o.Restore(sg.g, s.epoch, RestoreOpts{})
				if err != nil {
					t.Fatalf("restore group %d epoch %d: %v", sg.g.ID, s.epoch, err)
				}
				np, err := k.Process(ng.PIDs()[0])
				if err != nil {
					t.Fatal(err)
				}
				if got := counterValue(np); got != s.value {
					t.Fatalf("group %d epoch %d restored counter = %d, want %d",
						sg.g.ID, s.epoch, got, s.value)
				}
				if got := heapSum(t, np); got != s.sum {
					t.Fatalf("group %d epoch %d restored pages differ from checkpointed state",
						sg.g.ID, s.epoch)
				}
				fp.Restores++
				o.Unpersist(ng)
				k.Exit(np, 0)
				_ = k.Reap(np)
			case 6: // sync: the durable frontier must catch the barrier
				if err := o.Sync(sg.g); err != nil {
					t.Fatalf("sync group %d: %v", sg.g.ID, err)
				}
				if d, e := sg.g.Durable(), sg.g.Epoch(); d != e {
					t.Fatalf("group %d synced but durable %d != epoch %d", sg.g.ID, d, e)
				}
			default: // retire once it has a little history
				if sg.ckpts < 2 {
					continue
				}
				checkMonotone(sg)
				retire(sg)
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			checkMonotone(sg)
		}
	}

	st := o.FleetStats()
	if st.Dispatches == 0 {
		t.Fatal("no flush ever ran on the shard workers")
	}
	if st.Shards < 2 {
		t.Fatalf("fleet ran on %d shards", st.Shards)
	}
	placed := 0
	for _, n := range st.Placements {
		if n == 0 {
			t.Fatalf("a shard received no groups across %d placements: %v", spawned, st.Placements)
		}
		placed += n
	}
	if placed < spawned {
		t.Fatalf("placements %d < groups %d", placed, spawned)
	}
	if st.MemPeak == 0 || st.MemPeak > st.MemBudget {
		t.Fatalf("budget violated: peak %d, budget %d", st.MemPeak, st.MemBudget)
	}
	if st.MemInUse != 0 {
		t.Fatalf("%d frame bytes still charged after the fleet drained", st.MemInUse)
	}
	o.Close()
	assertNoLeaks(t, before)

	t.Logf("seed %d: %d groups, %d ckpts, %d crashes (%d recovered), %d restores, vclock=%d dispatches=%d placements=%v stalls=%d",
		seed, spawned, fp.Ckpts, fp.Crashes, fp.Recovered, fp.Restores, clock.Now(), st.Dispatches, st.Placements, st.BudgetStalls)
	return fp
}

// TestFleetSimulation is the tentpole acceptance test: each seed
// drives the configured fleet (10k groups under `make fleetcheck`)
// through spawn/checkpoint/crash/restore/unpersist on one sharded
// orchestrator, asserting per-group durable monotonicity, bit-identical
// sampled restores, bounded flush memory, and zero goroutines left.
func TestFleetSimulation(t *testing.T) {
	total := fleetGroupTotal()
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fp := runFleetSim(t, seed, total)
			if fp.Retired != total {
				t.Fatalf("retired %d of %d groups", fp.Retired, total)
			}
			if fp.Ckpts == 0 || fp.Crashes == 0 || fp.Recovered+fp.GaveUps != fp.Crashes || fp.Restores == 0 {
				t.Fatalf("lifecycle coverage too thin: %+v", fp)
			}
		})
	}
}

// TestFleetSimulationDeterministic replays one smoke-scale seed twice:
// every lifecycle count must match exactly, proving the shard workers'
// real-time scheduling never leaks into simulated state.
func TestFleetSimulationDeterministic(t *testing.T) {
	total := fleetGroupTotal()
	if total > 128 {
		total = 128
	}
	a := runFleetSim(t, 1, total)
	b := runFleetSim(t, 1, total)
	if a != b {
		t.Fatalf("same seed diverged:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}

// TestFleetCloneDedup is the FaaS-density half of the tentpole: N
// clones of one image, checkpointed into a shared store through the
// fleet runtime, must cost about one image of device bytes — the
// content-hash block dedup plus sub-block metadata packing absorb the
// rest.
func TestFleetCloneDedup(t *testing.T) {
	const clones = 96
	const imagePages = 64

	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := NewOrchestrator(k)
	st := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
	store := NewStoreBackend(st, k.Mem, clock)

	// Build identical clones: same program, same patterned pages.
	procs := make([]*kernel.Process, clones)
	buf := make([]byte, vm.PageSize)
	for c := range procs {
		p, err := k.Spawn(0, "counter")
		if err != nil {
			t.Fatal(err)
		}
		p.SetProgram(&counter{addr: p.HeapBase()})
		for pg := 1; pg < imagePages; pg++ {
			for i := range buf {
				buf[i] = byte(pg*13 + i*3)
			}
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
				t.Fatal(err)
			}
		}
		procs[c] = p
	}

	groups := make([]*Group, clones)
	for c, p := range procs {
		g, err := o.Persist(fmt.Sprintf("clone-%d", c), p)
		if err != nil {
			t.Fatal(err)
		}
		o.Attach(g, store)
		groups[c] = g
	}

	used := func() int64 { return storage.ResidentBytes(st.Device()) }
	base := used()

	ckpt := func(g *Group) {
		if _, err := o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		o.Drain(g)
	}
	ckpt(groups[0])
	one := used() - base
	if one <= 0 {
		t.Fatalf("first clone wrote nothing (delta %d)", one)
	}
	for _, g := range groups[1:] {
		ckpt(g)
	}
	all := used() - base

	if limit := one + one/10; all > limit {
		t.Fatalf("%d clones cost %d bytes, limit 1.1x one image = %d (one=%d)", clones, all, limit, one)
	}
	stats := st.Stats()
	if stats.DedupHits == 0 {
		t.Fatal("no block writes were deduplicated")
	}
	if stats.PackBlocks == 0 {
		t.Fatal("clone metadata was not sub-block packed")
	}
	t.Logf("%d clones x %d pages: one image %d B, fleet total %d B (%.3fx), dedup hits %d, pack blocks %d",
		clones, imagePages, one, all, float64(all)/float64(one), stats.DedupHits, stats.PackBlocks)
	o.Close()
}

// TestFleetBudgetChargesInheritedPages: the first barrier of a lazily
// restored group holds the pages it inherits from the store by name, and
// its flush puts them by hash, reading none of them into memory. The
// fleet's memory budget charges what the image pins — its frames and its
// sources' byte runs — and nothing for a page held by name: the restored
// group's first barrier charges no more than the group's own barriers
// did (a step's worth of pages, two in flight), and once it is durable
// nothing stays charged.
func TestFleetBudgetChargesInheritedPages(t *testing.T) {
	const pages, step = 64, 8
	r := newRig(t)
	t.Cleanup(r.o.Close)
	r.o.FleetMemBudget = 2 * step * vm.PageSize
	p := spawnCounter(t, r)
	if _, err := p.Sbrk(pages * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	g, _ := r.o.Persist("app", p)
	r.o.Attach(g, r.store)
	buf := make([]byte, vm.PageSize)
	for pg := 0; pg < pages; pg++ {
		copy(buf, heapPage(pg))
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			t.Fatal(err)
		}
		if (pg+1)%step != 0 {
			continue
		}
		if _, err := r.o.Checkpoint(g, CheckpointOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.o.Sync(g); err != nil {
			t.Fatal(err)
		}
	}
	if peak := r.o.FleetStats().MemPeak; peak > 2*step*vm.PageSize {
		t.Fatalf("fixture: the group's barriers charged up to %d bytes, want at most %d", peak, 2*step*vm.PageSize)
	}
	ng, _, err := r.o.Restore(g, 0, RestoreOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.Checkpoint(ng, CheckpointOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Sync(ng); err != nil {
		t.Fatal(err)
	}
	st := r.o.FleetStats()
	if st.MemPeak > 2*step*vm.PageSize {
		t.Fatalf("the restored group's first barrier charged up to %d bytes, want at most %d: its %d inherited pages are held by name",
			st.MemPeak, 2*step*vm.PageSize, pages)
	}
	if st.MemInUse != 0 {
		t.Fatalf("%d bytes still charged after the restored group's epoch is durable", st.MemInUse)
	}
}
