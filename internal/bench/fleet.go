package bench

import (
	"fmt"
	"sort"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

func init() {
	kernel.RegisterProgram("bench-fleet-touch", func(*kernel.Kernel, *kernel.Process, []byte) (kernel.Program, error) {
		return &kernel.FuncProgram{Name: "bench-fleet-touch",
			Fn: func(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error { return nil }}, nil
	})
}

// fleetTouchPages is each group's dirtied working set per epoch beyond
// the counter page — FaaS-sized, so group count (not image size) is
// the scaling axis.
const fleetTouchPages = 2

// FleetPoint is one datapoint of the fleet-density sweep: an open-loop
// checkpoint storm across Groups persistence groups multiplexed onto
// the fixed shard-worker pool.
type FleetPoint struct {
	Groups      int     `json:"groups"`        // concurrently live persistence groups
	Checkpoints int     `json:"checkpoints"`   // total checkpoints across the fleet
	StopP50     Micros  `json:"stop_p50_us"`   // median application stop time
	StopP99     Micros  `json:"stop_p99_us"`   // 99th-percentile stop time — the density claim
	StopMax     Micros  `json:"stop_max_us"`   // worst stop observed
	CkptPerVSec float64 `json:"ckpt_per_vsec"` // aggregate fleet checkpoint throughput (virtual)
	Dispatches  int64   `json:"dispatches"`    // flush jobs run on shard workers
	Shards      int     `json:"shards"`        // shard count the fleet ran on
	MemPeak     int64   `json:"mem_peak"`      // high-water frame bytes pinned by flush backlogs
	BudgetStall int64   `json:"budget_stalls"` // Enqueue waits caused by the global memory budget
	DedupHits   int64   `json:"dedup_hits"`    // block writes absorbed by the content-hash index
}

// FleetStorm measures how per-group checkpoint latency and aggregate
// throughput respond as the number of groups multiplexed onto one
// sharded orchestrator grows. Every group checkpoints `rounds` times
// in an open-loop storm (no group waits for another's flush), all
// flushing into one shared store so cross-group dedup and the global
// memory budget are both on the path.
func FleetStorm(groupCounts []int, rounds int, seed int64) ([]FleetPoint, error) {
	points := make([]FleetPoint, 0, len(groupCounts))
	for _, n := range groupCounts {
		clock := storage.NewClock()
		k := kernel.NewWith(clock, vm.NewPhysMem(0))
		o := core.NewOrchestrator(k)
		o.FleetMemBudget = 1 << 20
		st := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
		store := core.NewStoreBackend(st, k.Mem, clock)

		groups := make([]*core.Group, n)
		buf := make([]byte, vm.PageSize)
		for i := range groups {
			p, err := k.Spawn(0, "fleet-touch")
			if err != nil {
				return nil, err
			}
			pages := fleetTouchPages
			p.SetProgram(&kernel.FuncProgram{Name: "bench-fleet-touch",
				Fn: func(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
					var b [8]byte
					if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
						return err
					}
					b[0]++
					for pg := 0; pg <= pages; pg++ {
						if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), b[:]); err != nil {
							return err
						}
					}
					return nil
				}})
			// Unique initial content per group so the dedup numbers come
			// from real overlap (zero pages, common patterns), not from a
			// degenerate all-identical fleet.
			for pg := 1; pg <= pages; pg++ {
				for j := range buf {
					buf[j] = byte(int64(i)*17 + int64(pg)*5 + seed)
				}
				if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
					return nil, err
				}
			}
			g, err := o.Persist(fmt.Sprintf("fleet-%d", i), p)
			if err != nil {
				return nil, err
			}
			o.Attach(g, store)
			groups[i] = g
		}

		stops := make([]time.Duration, 0, n*rounds)
		start := clock.Now()
		for r := 0; r < rounds; r++ {
			if _, err := k.Run(n); err != nil {
				return nil, err
			}
			for _, g := range groups {
				bd, err := o.Checkpoint(g, core.CheckpointOpts{})
				if err != nil {
					return nil, fmt.Errorf("%d groups, round %d: %w", n, r, err)
				}
				stops = append(stops, bd.StopTime)
			}
		}
		for _, g := range groups {
			if err := o.Sync(g); err != nil {
				return nil, fmt.Errorf("%d groups: final sync: %w", n, err)
			}
		}
		elapsed := clock.Now() - start

		fstats := o.FleetStats()
		o.Close()
		sort.Slice(stops, func(i, j int) bool { return stops[i] < stops[j] })
		pt := FleetPoint{
			Groups:      n,
			Checkpoints: len(stops),
			StopP50:     Micros(stops[len(stops)/2]),
			StopP99:     Micros(stops[len(stops)*99/100]),
			StopMax:     Micros(stops[len(stops)-1]),
			Dispatches:  fstats.Dispatches,
			Shards:      fstats.Shards,
			MemPeak:     fstats.MemPeak,
			BudgetStall: fstats.BudgetStalls,
			DedupHits:   st.Stats().DedupHits,
		}
		if sec := elapsed.Seconds(); sec > 0 {
			pt.CkptPerVSec = float64(pt.Checkpoints) / sec
		}
		points = append(points, pt)
	}
	return points, nil
}
