package bench

import (
	"fmt"

	"aurora/internal/apps/kvlsm"
	"aurora/internal/kernel"
)

func init() {
	kernel.RegisterProgram("bench-lsm-idle", func(*kernel.Kernel, *kernel.Process, []byte) (kernel.Program, error) {
		return &kernel.FuncProgram{Name: "bench-lsm-idle",
			Fn: func(*kernel.Kernel, *kernel.Process, *kernel.Thread) error { return nil }}, nil
	})
}

// PipelineResult measures what the background flush pipeline takes off
// the critical path for an LSM-store workload: the application pays
// only the serialization-barrier stop time per checkpoint, while the
// checkpoint+flush latency (what a synchronous flush would have
// charged) completes in the background.
type PipelineResult struct {
	Ops         int `json:"ops"`
	Checkpoints int `json:"checkpoints"`
	// TotalStop is the summed application stop time — the pipeline-era
	// critical-path cost.
	TotalStop Micros `json:"total_stop_us"`
	// TotalFlush is the summed background flush time.
	TotalFlush Micros `json:"total_flush_us"`
	// TotalFull is the critical-path cost a synchronous flush would have
	// charged: every checkpoint's stop time plus its flush time.
	TotalFull Micros `json:"ckpt_plus_flush_us"`
	// MaxStop and MaxFull compare the worst single barrier against the
	// worst full checkpoint+flush latency.
	MaxStop Micros `json:"max_stop_us"`
	MaxFull Micros `json:"max_full_us"`
	// PeakQueueDepth is the most un-retired epochs observed in flight.
	PeakQueueDepth int `json:"peak_queue_depth"`
}

// PipelineKVLSM runs an Aurora-mode LSM store (NT log + checkpoints,
// no WAL) for the given number of Puts, checkpointing every ckptEvery
// operations, and reports the stop-time vs. checkpoint+flush split.
func PipelineKVLSM(ops, ckptEvery int) (*PipelineResult, error) {
	m := NewMachine()
	defer m.Close()
	fs, err := newFS(m)
	if err != nil {
		return nil, err
	}
	p, err := m.K.Spawn(0, "lsm")
	if err != nil {
		return nil, err
	}
	p.SetProgram(&kernel.FuncProgram{Name: "bench-lsm-idle",
		Fn: func(*kernel.Kernel, *kernel.Process, *kernel.Thread) error { return nil }})
	g, err := m.O.Persist("lsm", p)
	if err != nil {
		return nil, err
	}
	m.O.Attach(g, m.Store)
	db, err := kvlsm.Open(fs, "/db", kvlsm.Options{
		Aurora: &kvlsm.AuroraHooks{API: m.API, Proc: p, CheckpointEvery: ckptEvery},
	})
	if err != nil {
		return nil, err
	}

	val := make([]byte, 512)
	for i := range val {
		val[i] = byte(i * 7)
	}
	r := &PipelineResult{Ops: ops}
	for i := 0; i < ops; i++ {
		if err := db.Put([]byte(fmt.Sprintf("row:%06d", i)), val); err != nil {
			return nil, err
		}
		if d := g.QueueDepth(); d > r.PeakQueueDepth {
			r.PeakQueueDepth = d
		}
	}
	// Settle the pipeline so every breakdown carries its flush time.
	if err := m.O.Sync(g); err != nil {
		return nil, err
	}
	for _, bd := range g.Breakdowns() {
		stop, full := Micros(bd.StopTime), Micros(bd.StopTime+bd.FlushTime)
		r.TotalStop += stop
		r.TotalFlush += Micros(bd.FlushTime)
		r.MaxStop = max(r.MaxStop, stop)
		r.MaxFull = max(r.MaxFull, full)
	}
	r.TotalFull = r.TotalStop + r.TotalFlush
	r.Checkpoints = len(g.Breakdowns())
	return r, nil
}
