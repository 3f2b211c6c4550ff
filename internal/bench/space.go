package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// This file is the space-pressure harness: the checkpoint workload from
// the fault sweep run against a device deliberately sized to a handful
// of epochs, with the retention reclaimer and admission control keeping
// the stream alive forever. A run is only accepted if the durable epoch
// advanced monotonically, no ErrOutOfSpace ever reached a caller, the
// reachability audit passed after every reclamation, and every retained
// epoch restores bit-identical to what an unbounded control run
// checkpointed at the same workload point.

// spacePages is the patterned working set beyond the counter page.
const spacePages = 8

// SpaceConfig parameterizes one space-pressure run. Zero values pick
// defaults.
type SpaceConfig struct {
	Seed          int64
	Checkpoints   int // checkpoint barriers attempted
	StepsPerEpoch int // kernel steps between barriers

	// CapacityEpochs sizes the device to this many steady-state epochs
	// of headroom, measured from the unbounded control run (0 = an
	// unbounded device).
	CapacityEpochs int
	// KeepLast is the retention floor. Setting it at or above
	// CapacityEpochs makes retention and capacity fight, forcing the
	// emergency ladder (ENOSPC reclaim, checkpoint shedding) to cycle.
	KeepLast int
	// WriteErr is a per-write injected fault probability composed on
	// top of the space pressure.
	WriteErr float64
	// Marks overrides the pressure watermarks (zero = defaults).
	Marks core.Watermarks
}

func (c SpaceConfig) withDefaults() SpaceConfig {
	if c.Checkpoints == 0 {
		c.Checkpoints = 200
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	return c
}

// SpaceReport is the outcome of one space-pressure run.
type SpaceReport struct {
	Seed           int64
	CapacityEpochs int   // configured headroom (0 = unbounded)
	Capacity       int64 // device bytes the headroom translated to
	Checkpoints    int   // barriers attempted
	Admitted       int   // barriers that minted an epoch
	Durable        uint64

	Sheds           int64 // barriers shed by admission control
	EmergencySheds  int64 // sheds taken at the emergency watermark
	Scans           int64
	EmergencyScans  int64 // ENOSPC-triggered reclamations
	EpochsReclaimed int64
	BytesReclaimed  int64
	RetainedEpochs  int     // manifests left on the device at the end
	MaxUsage        float64 // worst usage fraction observed at a barrier
	FinalUsage      float64
	Injected        int64 // device faults injected

	VirtualTime time.Duration
	CkptPerVSec float64 // admitted epochs per virtual second
}

// spaceOutcome carries the live machine out of a run for verification.
type spaceOutcome struct {
	rep   *SpaceReport
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
	sb    *core.StoreBackend
	g     *core.Group

	counterAt map[uint64]uint64 // epoch -> counter captured at its barrier
	barrierAt map[uint64]int    // epoch -> barrier index that minted it
	usedFirst int64             // device residency after the first durable epoch
}

// runSpace executes the workload loop against a device of the given
// byte capacity (0 = unbounded).
func runSpace(cfg SpaceConfig, capacity int64) (*spaceOutcome, error) {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)

	params := storage.ParamsOptaneNVMe
	params.Capacity = capacity
	fd := storage.NewFaultDevice(storage.NewMemDevice(params, clock), clock,
		storage.FaultConfig{Seed: cfg.Seed, WriteErr: cfg.WriteErr})
	sb := core.NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)
	var rec *core.Reclaimer
	if capacity > 0 {
		rec = core.NewReclaimer(o, sb, core.RetentionPolicy{KeepLast: cfg.KeepLast}, cfg.Marks)
		// The standing invariant: reachability audited after every
		// reclaimed epoch. A failure aborts the scan and fails the run.
		rec.Audit = (*objstore.Store).AuditReachability
		sb.SetReclaimer(rec)
	}

	p, err := k.Spawn(0, "space-app")
	if err != nil {
		return nil, err
	}
	p.SetProgram(&chaosCounter{addr: p.HeapBase()})
	for pg := 1; pg <= spacePages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), recoveryPattern(pg, cfg.Seed)); err != nil {
			return nil, err
		}
	}
	g, err := o.Persist("space-app", p)
	if err != nil {
		return nil, err
	}
	o.Attach(g, sb)

	out := &spaceOutcome{
		rep: &SpaceReport{
			Seed:           cfg.Seed,
			CapacityEpochs: cfg.CapacityEpochs,
			Capacity:       capacity,
			Checkpoints:    cfg.Checkpoints,
		},
		clock: clock, k: k, o: o, sb: sb, g: g,
		counterAt: make(map[uint64]uint64),
		barrierAt: make(map[uint64]int),
	}

	readCounter := func() (uint64, error) {
		var b [8]byte
		if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}

	enospc := func(err error) error {
		if errors.Is(err, storage.ErrOutOfSpace) || errors.Is(err, objstore.ErrStoreFull) {
			return fmt.Errorf("bench: space seed %d: ErrOutOfSpace surfaced to a caller: %w", cfg.Seed, err)
		}
		return err
	}

	t0 := clock.Now()
	prevDurable := g.Durable()
	for i := 1; i <= cfg.Checkpoints; i++ {
		if _, err := k.Run(cfg.StepsPerEpoch); err != nil {
			return nil, err
		}
		counter, err := readCounter()
		if err != nil {
			return nil, err
		}
		bd, err := o.Checkpoint(g, core.CheckpointOpts{})
		if err != nil {
			return nil, enospc(fmt.Errorf("bench: space seed %d: barrier %d: %w", cfg.Seed, i, err))
		}
		if !bd.Shed {
			out.rep.Admitted++
			out.counterAt[g.Epoch()] = counter
			out.barrierAt[g.Epoch()] = i
		}
		if d := g.Durable(); d < prevDurable {
			return nil, fmt.Errorf("bench: space seed %d: durable epoch regressed %d -> %d at barrier %d",
				cfg.Seed, prevDurable, d, i)
		} else {
			prevDurable = d
		}
		if _, _, frac := sb.Store().Usage(); frac > out.rep.MaxUsage {
			out.rep.MaxUsage = frac
		}
		if out.usedFirst == 0 && g.Durable() >= 1 {
			out.usedFirst, _, _ = sb.Store().Usage()
		}
	}

	// Drain the pipeline; under injected faults or a cycling device a
	// round can fail and a later one succeed with fresh rolls.
	var syncErr error
	for round := 0; round < 12; round++ {
		syncErr = o.Sync(g)
		if syncErr == nil && g.Durable() == g.Epoch() {
			break
		}
	}
	if syncErr != nil {
		return nil, enospc(fmt.Errorf("bench: space seed %d: final sync: %w", cfg.Seed, syncErr))
	}
	if g.Durable() != g.Epoch() {
		return nil, fmt.Errorf("bench: space seed %d: durable %d stuck below barrier %d",
			cfg.Seed, g.Durable(), g.Epoch())
	}

	out.rep.Durable = g.Durable()
	out.rep.VirtualTime = clock.Now() - t0
	if out.rep.VirtualTime > 0 {
		out.rep.CkptPerVSec = float64(out.rep.Admitted) / out.rep.VirtualTime.Seconds()
	}
	out.rep.Sheds, out.rep.EmergencySheds = g.Sheds()
	out.rep.Injected = fd.InjectedCount()
	out.rep.RetainedEpochs = len(sb.Store().Manifests(g.ID))
	_, _, out.rep.FinalUsage = sb.Store().Usage()
	if rec != nil {
		st := rec.Stats()
		out.rep.Scans, out.rep.EmergencyScans = st.Scans, st.EmergencyScans
		out.rep.EpochsReclaimed, out.rep.BytesReclaimed = st.EpochsReclaimed, st.BytesReclaimed
		if st.LastAuditErr != "" {
			return nil, fmt.Errorf("bench: space seed %d: reachability audit failed during reclamation: %s",
				cfg.Seed, st.LastAuditErr)
		}
	}
	return out, nil
}

// verifyEpoch restores the lineage at one retained epoch and checks it
// bit-for-bit against the counter recorded at that barrier and the
// patterned working set.
func (out *spaceOutcome) verifyEpoch(seed int64, epoch uint64) error {
	want, ok := out.counterAt[epoch]
	if !ok {
		return fmt.Errorf("bench: space seed %d: retained epoch %d has no recorded barrier", seed, epoch)
	}
	ng, _, err := out.o.Restore(out.g, epoch, core.RestoreOpts{Validate: true})
	if err != nil {
		return fmt.Errorf("bench: space seed %d: restoring retained epoch %d: %w", seed, epoch, err)
	}
	p, err := out.k.Process(ng.PIDs()[0])
	if err != nil {
		return err
	}
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		return fmt.Errorf("bench: space seed %d: epoch %d restored counter %d, want %d — not bit-identical",
			seed, epoch, got, want)
	}
	buf := make([]byte, vm.PageSize)
	for pg := 1; pg <= spacePages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			return err
		}
		ref := recoveryPattern(pg, seed)
		for i := range buf {
			if buf[i] != ref[i] {
				return fmt.Errorf("bench: space seed %d: epoch %d page %d byte %d differs — not bit-identical",
					seed, epoch, pg, i)
			}
		}
	}
	return nil
}

// verifyAgainstControl checks every epoch retained on the bounded
// device: it must restore bit-identical, and the state it restores must
// be exactly what the unbounded control run checkpointed at the same
// workload barrier.
func (out *spaceOutcome) verifyAgainstControl(seed int64, control *spaceOutcome) error {
	ms := out.sb.Store().Manifests(out.g.ID)
	if len(ms) == 0 {
		return fmt.Errorf("bench: space seed %d: no epochs retained", seed)
	}
	for _, m := range ms {
		if err := out.verifyEpoch(seed, m.Epoch); err != nil {
			return err
		}
		if control == nil {
			continue
		}
		barrier := out.barrierAt[m.Epoch]
		// The control admitted every barrier, so its epoch number IS the
		// barrier index; the captured counters must agree exactly.
		cwant, ok := control.counterAt[uint64(barrier)]
		if !ok {
			return fmt.Errorf("bench: space seed %d: control run has no epoch for barrier %d", seed, barrier)
		}
		if got := out.counterAt[m.Epoch]; got != cwant {
			return fmt.Errorf("bench: space seed %d: epoch %d (barrier %d) captured counter %d, control captured %d",
				seed, m.Epoch, barrier, got, cwant)
		}
	}
	return nil
}

// sizeFor converts an epoch-count headroom into device bytes using the
// control run's measured footprint: the first durable epoch's residency
// (superblock + full image) plus the steady-state per-epoch growth.
func (control *spaceOutcome) sizeFor(epochs int) int64 {
	perEpoch := int64(0)
	usedFinal, _, _ := control.sb.Store().Usage()
	if control.rep.Admitted > 1 {
		perEpoch = (usedFinal - control.usedFirst) / int64(control.rep.Admitted-1)
	}
	if perEpoch <= 0 {
		perEpoch = 1
	}
	// The control-plane reserve (superblock slots + two index
	// generations) is held back from data allocations and never
	// amortizes into per-epoch growth. Since sub-block metadata packing
	// made per-epoch growth a few KB, the reserve must be budgeted
	// explicitly or it would eat a meaningful slice of the headroom.
	return control.usedFirst + perEpoch*int64(epochs) + control.sb.Store().ControlOverhead()
}

// SpaceRun runs the unbounded control and then, if cfg bounds the
// device, the pressured run — verifying every retained epoch restores
// bit-identical to the control. It returns the pressured run's report
// (or the control's when CapacityEpochs is 0).
func SpaceRun(cfg SpaceConfig) (*SpaceReport, error) {
	cfg = cfg.withDefaults()
	control, err := runSpace(cfg, 0)
	if err != nil {
		return nil, err
	}
	if err := control.verifyAgainstControl(cfg.Seed, nil); err != nil {
		return nil, err
	}
	if cfg.CapacityEpochs <= 0 {
		return control.rep, nil
	}
	out, err := runSpace(cfg, control.sizeFor(cfg.CapacityEpochs))
	if err != nil {
		return nil, err
	}
	if err := out.verifyAgainstControl(cfg.Seed, control); err != nil {
		return nil, err
	}
	if out.rep.EpochsReclaimed == 0 {
		return nil, fmt.Errorf("bench: space seed %d: %d checkpoints on a %d-epoch device reclaimed nothing",
			cfg.Seed, cfg.Checkpoints, cfg.CapacityEpochs)
	}
	return out.rep, nil
}

// SpaceSweep runs the checkpoint workload at each capacity headroom
// (epochs of room; 0 = unbounded control) and reports how sustained
// throughput and shedding respond as headroom disappears. One control
// run anchors both the device sizing and the bit-identity checks.
func SpaceSweep(ckpts int, capacities []int, seed int64) ([]*SpaceReport, error) {
	cfg := SpaceConfig{Seed: seed, Checkpoints: ckpts}.withDefaults()
	control, err := runSpace(cfg, 0)
	if err != nil {
		return nil, err
	}
	if err := control.verifyAgainstControl(seed, nil); err != nil {
		return nil, err
	}
	reports := make([]*SpaceReport, 0, len(capacities))
	for _, c := range capacities {
		if c <= 0 {
			reports = append(reports, control.rep)
			continue
		}
		pcfg := cfg
		pcfg.CapacityEpochs = c
		out, err := runSpace(pcfg, control.sizeFor(c))
		if err != nil {
			return nil, err
		}
		if err := out.verifyAgainstControl(seed, control); err != nil {
			return nil, err
		}
		reports = append(reports, out.rep)
	}
	return reports, nil
}
