package bench

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// This file is the space-pressure script: the harness workload
// (harness.go) run against a device deliberately sized to a handful of
// epochs, with the retention reclaimer and admission control keeping
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
	Seed           int64  `json:"-"`
	CapacityEpochs int    `json:"capacity_epochs"` // configured headroom (0 = unbounded)
	Capacity       int64  `json:"capacity_bytes"`  // device bytes the headroom translated to
	Checkpoints    int    `json:"checkpoints"`     // barriers attempted
	Admitted       int    `json:"admitted"`        // barriers that minted an epoch
	Durable        uint64 `json:"durable_epoch"`

	Sheds           int64   `json:"sheds"`           // barriers shed by admission control
	EmergencySheds  int64   `json:"emergency_sheds"` // sheds taken at the emergency watermark
	Scans           int64   `json:"scans"`
	EmergencyScans  int64   `json:"emergency_scans"` // ENOSPC-triggered reclamations
	EpochsReclaimed int64   `json:"epochs_reclaimed"`
	BytesReclaimed  int64   `json:"bytes_reclaimed"`
	RetainedEpochs  int     `json:"retained_epochs"` // manifests left on the device at the end
	MaxUsage        float64 `json:"max_usage"`       // worst usage fraction observed at a barrier
	FinalUsage      float64 `json:"final_usage"`
	Injected        int64   `json:"-"` // device faults injected

	VirtualTime time.Duration `json:"-"`
	CkptPerVSec float64       `json:"ckpt_per_vsec"` // admitted epochs per virtual second
}

// spaceOutcome carries the live machine out of a run for verification.
type spaceOutcome struct {
	*harness
	rep *SpaceReport
	n   *Node
	l   *line

	barrierAt map[uint64]int // epoch -> barrier index that minted it
}

// runSpace executes the workload loop against a device of the given
// byte capacity (0 = unbounded).
func runSpace(cfg SpaceConfig, capacity int64) (*spaceOutcome, error) {
	out := &spaceOutcome{
		harness: newHarness("space", cfg.Seed),
		rep: &SpaceReport{
			Seed:           cfg.Seed,
			CapacityEpochs: cfg.CapacityEpochs,
			Capacity:       capacity,
			Checkpoints:    cfg.Checkpoints,
		},
		barrierAt: make(map[uint64]int),
	}
	out.n = out.own(newNode("space", storage.FaultConfig{Seed: cfg.Seed, WriteErr: cfg.WriteErr}, capacity))
	if err := out.run(cfg); err != nil {
		out.close()
		if errors.Is(err, storage.ErrOutOfSpace) || errors.Is(err, objstore.ErrStoreFull) {
			err = fmt.Errorf("ErrOutOfSpace surfaced to a caller: %w", err)
		}
		return nil, out.fail(err)
	}
	return out, nil
}

func (out *spaceOutcome) run(cfg SpaceConfig) error {
	n, rep := out.n, out.rep
	if rep.Capacity > 0 {
		n.bound(cfg.KeepLast, cfg.Marks)
	}
	// The counter page goes whole: a space run's epochs must cost space.
	l, err := newLine(n, workload{pages: spacePages, seed: cfg.Seed, whole: true}, "space-app")
	if err != nil {
		return err
	}
	out.l, out.lines = l, []*line{l}

	// A shed barrier is not retried here: the run counts how many of its
	// barriers admission control let through.
	t0 := n.clock.Now()
	for i := 1; i <= cfg.Checkpoints; i++ {
		out.at("barrier %d", i)
		shed, err := l.attempt(cfg.StepsPerEpoch, core.CheckpointOpts{})
		if err != nil {
			return err
		}
		if !shed {
			rep.Admitted++
			out.barrierAt[l.g.Epoch()] = i
		}
		if err := out.check(out.phase); err != nil {
			return err
		}
		if _, _, frac := n.sb.Store().Usage(); frac > rep.MaxUsage {
			rep.MaxUsage = frac
		}
	}

	// Drain the pipeline; under injected faults or a cycling device a
	// round can fail and a later one succeed with fresh rolls. Unlike
	// line.syncDurable, a sync error is never tolerated here: there is no
	// replica whose outage could excuse one.
	out.at("final sync")
	var syncErr error
	for round := 0; round < 12; round++ {
		syncErr = n.o.Sync(l.g)
		if syncErr == nil && l.g.Durable() == l.g.Epoch() {
			break
		}
	}
	if syncErr != nil {
		return syncErr
	}
	if l.g.Durable() != l.g.Epoch() {
		return fmt.Errorf("durable %d stuck below barrier %d", l.g.Durable(), l.g.Epoch())
	}

	rep.Durable = l.g.Durable()
	rep.VirtualTime = n.clock.Now() - t0
	if rep.VirtualTime > 0 {
		rep.CkptPerVSec = float64(rep.Admitted) / rep.VirtualTime.Seconds()
	}
	rep.Sheds, rep.EmergencySheds = l.g.Sheds()
	rep.Injected = n.fd.InjectedCount()
	rep.RetainedEpochs = len(n.sb.Store().Manifests(l.g.ID))
	_, _, rep.FinalUsage = n.sb.Store().Usage()
	if rec := n.sb.Reclaimer(); rec != nil {
		st := rec.Stats()
		rep.Scans, rep.EmergencyScans = st.Scans, st.EmergencyScans
		rep.EpochsReclaimed, rep.BytesReclaimed = st.EpochsReclaimed, st.BytesReclaimed
	}
	return n.auditErr()
}

// verifyAgainstControl checks every epoch retained on the device: it
// must restore bit-identical to the counter recorded at its barrier and
// the patterned working set, and (given a control) the state it
// restores must be exactly what the unbounded control run checkpointed
// at the same workload barrier.
func (out *spaceOutcome) verifyAgainstControl(control *spaceOutcome) error {
	out.at("verifying retained epochs")
	ms := out.n.sb.Store().Manifests(out.l.g.ID)
	if len(ms) == 0 {
		return out.fail(fmt.Errorf("no epochs retained"))
	}
	for _, m := range ms {
		if err := out.verifyEpoch(m.Epoch, control); err != nil {
			return out.fail(fmt.Errorf("retained epoch %d: %w", m.Epoch, err))
		}
	}
	return nil
}

func (out *spaceOutcome) verifyEpoch(epoch uint64, control *spaceOutcome) error {
	want, err := out.l.want(epoch)
	if err != nil {
		return err
	}
	ng, _, err := out.n.o.Restore(out.l.g, epoch, core.RestoreOpts{Validate: true})
	if err != nil {
		return err
	}
	if err := out.l.w.verifyLive(out.n.k, ng, want); err != nil || control == nil {
		return err
	}
	// The control admitted every barrier, so its epoch number IS the
	// barrier index; the captured counters must agree exactly.
	barrier := out.barrierAt[epoch]
	if cwant, ok := control.l.counterAt[uint64(barrier)]; !ok || cwant != want {
		return fmt.Errorf("barrier %d captured counter %d, control captured %d (recorded: %v)", barrier, want, cwant, ok)
	}
	return nil
}

// spaceControl runs and verifies the unbounded control that anchors the
// bit-identity checks of the pressured runs.
func spaceControl(cfg SpaceConfig) (*spaceOutcome, error) {
	cfg.CapacityEpochs = 0
	control, err := runSpace(cfg, 0)
	if err != nil {
		return nil, err
	}
	if err := control.verifyAgainstControl(nil); err != nil {
		control.close()
		return nil, err
	}
	return control, nil
}

// spacePressured runs cfg on a device sized by the harness probe to
// cfg.CapacityEpochs epochs of room and verifies it against control.
func spacePressured(cfg SpaceConfig, control *spaceOutcome) (*SpaceReport, error) {
	capacity, err := deviceFor(control.l.w, cfg.StepsPerEpoch, cfg.CapacityEpochs)
	if err != nil {
		return nil, fmt.Errorf("bench: space seed %d: %w", cfg.Seed, err)
	}
	out, err := runSpace(cfg, capacity)
	if err != nil {
		return nil, err
	}
	defer out.close()
	return out.rep, out.verifyAgainstControl(control)
}

// SpaceRun runs the unbounded control and then, if cfg bounds the
// device, the pressured run — verifying every retained epoch restores
// bit-identical to the control. It returns the pressured run's report
// (or the control's when CapacityEpochs is 0).
func SpaceRun(cfg SpaceConfig) (*SpaceReport, error) {
	cfg = cfg.withDefaults()
	control, err := spaceControl(cfg)
	if err != nil {
		return nil, err
	}
	defer control.close()
	if cfg.CapacityEpochs <= 0 {
		return control.rep, nil
	}
	rep, err := spacePressured(cfg, control)
	if err != nil {
		return nil, err
	}
	if rep.EpochsReclaimed == 0 {
		return nil, fmt.Errorf("bench: space seed %d: %d checkpoints on a %d-epoch device reclaimed nothing",
			cfg.Seed, cfg.Checkpoints, cfg.CapacityEpochs)
	}
	return rep, nil
}

// SpaceSweep runs the checkpoint workload at each capacity headroom
// (epochs of room; 0 = unbounded control) and reports how sustained
// throughput and shedding respond as headroom disappears. One control
// run anchors the bit-identity checks.
func SpaceSweep(ckpts int, capacities []int, seed int64) ([]*SpaceReport, error) {
	cfg := SpaceConfig{Seed: seed, Checkpoints: ckpts}.withDefaults()
	control, err := spaceControl(cfg)
	if err != nil {
		return nil, err
	}
	defer control.close()
	reports := make([]*SpaceReport, 0, len(capacities))
	for _, c := range capacities {
		rep := control.rep
		if c > 0 {
			cfg.CapacityEpochs = c
			if rep, err = spacePressured(cfg, control); err != nil {
				return nil, err
			}
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
