package bench

import (
	"fmt"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

func init() {
	kernel.RegisterProgram("bench-recovery-touch", func(*kernel.Kernel, *kernel.Process, []byte) (kernel.Program, error) {
		return &kernel.FuncProgram{Name: "bench-recovery-touch",
			Fn: func(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error { return nil }}, nil
	})
}

// recoveryPages is the patterned working set the recovery sweep
// demand-pages back in (beyond the counter page).
const recoveryPages = 64

// RecoveryPoint is one datapoint of the recovery sweep: a lazy restore
// demand-paging its full working set against a primary store with a
// given per-read fault probability, failing over to a clean secondary.
type RecoveryPoint struct {
	Rate          float64 `json:"read_fault_rate"`    // per-read injection probability on the primary
	Checkpoints   int     `json:"checkpoints"`        // epochs checkpointed before the restore
	Pages         int     `json:"pages"`              // pages demand-paged back in
	TimeToRecover Micros  `json:"time_to_recover_us"` // virtual time from Restore to last page resident
	Failovers     int64   `json:"failovers"`          // pages served by the secondary
	PagesRepaired int64   `json:"pages_repaired"`     // peer pages written back onto the primary
	Retries       int64   `json:"read_retries"`       // extra primary read attempts
	Injected      int64   `json:"faults_injected"`    // faults the device actually injected
}

func recoveryPattern(page int, seed int64) []byte {
	b := make([]byte, vm.PageSize)
	for i := range b {
		b[i] = byte(int64(page)*31 + int64(i)*7 + seed)
	}
	return b
}

// RecoverySweep measures time-to-recover for a lazy restore whose
// primary store read-faults at each given rate, with a clean secondary
// as the failover peer. Every run must end bit-correct — each
// demand-paged page is compared against what was checkpointed — or the
// sweep errors: degraded recovery may be slower, never wrong.
func RecoverySweep(ckpts int, rates []float64, seed int64) ([]RecoveryPoint, error) {
	points := make([]RecoveryPoint, 0, len(rates))
	for _, rate := range rates {
		n := NewNode("recovery", seed, 0, rate)
		defer n.o.Close()
		clock, k, o, fd, primary := n.clock, n.k, n.o, n.fd, n.sb
		secondary := core.NewStoreBackend(objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock), k.Mem, clock)

		p, err := k.Spawn(0, "recovery-touch")
		if err != nil {
			return nil, err
		}
		p.SetProgram(&kernel.FuncProgram{Name: "bench-recovery-touch",
			Fn: func(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
				var b [8]byte
				if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
					return err
				}
				b[0]++
				return p.WriteMem(p.HeapBase(), b[:])
			}})
		for pg := 1; pg <= recoveryPages; pg++ {
			if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), recoveryPattern(pg, seed)); err != nil {
				return nil, err
			}
		}
		g, err := o.Persist("recovery-touch", p)
		if err != nil {
			return nil, err
		}
		o.Attach(g, primary)
		o.Attach(g, secondary)

		for i := 0; i < ckpts; i++ {
			if _, err := k.Run(2); err != nil {
				return nil, err
			}
			if _, err := o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
				return nil, err
			}
		}
		if err := o.Sync(g); err != nil {
			return nil, fmt.Errorf("bench: recovery sweep at rate %g: sync: %w", rate, err)
		}
		var want [8]byte
		if err := p.ReadMem(p.HeapBase(), want[:]); err != nil {
			return nil, err
		}

		// Lazy restore, then demand-page the full working set back in:
		// that span is the time-to-recover under the given fault rate.
		start := clock.Now()
		ng, _, err := o.Restore(g, 0, core.RestoreOpts{Lazy: true})
		if err != nil {
			return nil, fmt.Errorf("bench: recovery sweep at rate %g: restore: %w", rate, err)
		}
		np, err := k.Process(ng.PIDs()[0])
		if err != nil {
			return nil, err
		}
		var got [8]byte
		if err := np.ReadMem(np.HeapBase(), got[:]); err != nil {
			return nil, fmt.Errorf("bench: recovery sweep at rate %g: paging counter: %w", rate, err)
		}
		if got != want {
			return nil, fmt.Errorf("bench: recovery sweep at rate %g: counter %v, want %v — recovery not bit-correct", rate, got, want)
		}
		if err := patternIntact(np, recoveryPages, seed); err != nil {
			return nil, fmt.Errorf("bench: recovery sweep at rate %g: %w", rate, err)
		}
		ttr := clock.Now() - start

		stats := ng.RecoveryStats()
		points = append(points, RecoveryPoint{
			Rate:          rate,
			Checkpoints:   ckpts,
			Pages:         recoveryPages + 1,
			TimeToRecover: Micros(ttr),
			Failovers:     stats.Failovers,
			PagesRepaired: stats.PagesRepaired,
			Retries:       stats.Retries,
			Injected:      fd.InjectedCount(),
		})
	}
	return points, nil
}
