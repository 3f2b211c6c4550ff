package bench

import (
	"fmt"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
)

func init() {
	kernel.RegisterProgram("bench-fault-touch", func(*kernel.Kernel, *kernel.Process, []byte) (kernel.Program, error) {
		return &kernel.FuncProgram{Name: "bench-fault-touch",
			Fn: func(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error { return nil }}, nil
	})
}

// FaultPoint is one datapoint of the fault-rate sweep: the checkpoint
// pipeline driven with a given per-write fault probability on the
// primary device.
type FaultPoint struct {
	Rate        float64 `json:"fault_rate"`      // per-op injection probability on the primary
	Checkpoints int     `json:"checkpoints"`     // epochs checkpointed
	Durable     uint64  `json:"durable_epoch"`   // last externally-consistent epoch at the end
	Injected    int64   `json:"faults_injected"` // faults the device actually injected
	Retries     int64   `json:"flush_retries"`   // extra flush attempts across all backends
	Resyncs     int64   `json:"epochs_resynced"` // epochs replayed from catch-up queues
	VirtualTime Micros  `json:"virtual_time_us"` // total modeled time for the run
	// CkptPerVSec is checkpoint throughput against the virtual clock —
	// the number the fault matrix tracks as rates rise.
	CkptPerVSec float64 `json:"ckpt_per_vsec"`
}

// FaultSweep runs the same checkpoint workload against a two-backend
// group (a fault-injected primary plus a clean secondary) at each fault
// rate, and reports how throughput and recovery effort respond. Every
// run must end fully recovered: durable through the last epoch with
// all catch-up queues drained, or the sweep errors.
func FaultSweep(ckpts int, rates []float64, seed int64) ([]FaultPoint, error) {
	points := make([]FaultPoint, 0, len(rates))
	for _, rate := range rates {
		n := newNode("faults", storage.FaultConfig{Seed: seed, WriteErr: rate, SyncErr: rate}, 0)
		defer n.o.Close()
		clock, k, o, fd, primary := n.clock, n.k, n.o, n.fd, n.sb
		secondary := core.NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock), k.Mem, clock)

		p, err := k.Spawn(0, "fault-touch")
		if err != nil {
			return nil, err
		}
		p.SetProgram(&kernel.FuncProgram{Name: "bench-fault-touch",
			Fn: func(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
				var b [8]byte
				if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
					return err
				}
				b[0]++
				return p.WriteMem(p.HeapBase(), b[:])
			}})
		g, err := o.Persist("fault-touch", p)
		if err != nil {
			return nil, err
		}
		o.Attach(g, primary)
		o.Attach(g, secondary)

		start := clock.Now()
		for i := 0; i < ckpts; i++ {
			if _, err := k.Run(2); err != nil {
				return nil, err
			}
			if _, err := o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
				return nil, err
			}
		}
		if err := o.Sync(g); err != nil {
			return nil, fmt.Errorf("bench: fault sweep at rate %g did not recover: %w", rate, err)
		}

		elapsed := clock.Now() - start
		pt := FaultPoint{
			Rate:        rate,
			Checkpoints: ckpts,
			Durable:     g.Durable(),
			Injected:    fd.InjectedCount(),
			VirtualTime: Micros(elapsed),
		}
		for _, info := range g.Health() {
			if info.State != core.BackendHealthy || info.Pending != 0 {
				return nil, fmt.Errorf("bench: fault sweep at rate %g left %s %s with %d pending",
					rate, info.Name, info.State, info.Pending)
			}
			pt.Retries += info.Retries
			pt.Resyncs += info.Resyncs
		}
		if pt.Durable != uint64(ckpts) {
			return nil, fmt.Errorf("bench: fault sweep at rate %g durable %d, want %d",
				rate, pt.Durable, ckpts)
		}
		if elapsed > 0 {
			pt.CkptPerVSec = float64(ckpts) / elapsed.Seconds()
		}
		points = append(points, pt)
	}
	return points, nil
}
