// Package aurora's root benchmark suite: one testing.B benchmark per
// paper table, figure, and quantitative claim, plus the design
// ablations DESIGN.md calls out.
//
// Each benchmark reports two kinds of numbers: Go's wall-clock ns/op
// (the real cost of running the simulation) and custom metrics in
// virtual microseconds (the cost-model results that correspond to the
// paper's measurements). EXPERIMENTS.md records paper-vs-measured.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The paper-scale working set (2 GiB) is exercised by
// cmd/aurora-bench -ws 2147483648; benchmarks default to a scaled
// 64 MiB so the suite stays fast.
package aurora

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"aurora/internal/bench"
	"aurora/internal/core"
	"aurora/internal/vm"
)

const benchWS = 64 << 20 // scaled working set (paper: 2 GiB)

func vus(d int64) float64 { return float64(d) / 1e3 }

// BenchmarkTable3_FullCheckpoint regenerates Table 3's "Full" column.
func BenchmarkTable3_FullCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table3(benchWS, 0.125)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.Full.MetadataCopy)), "vus-metadata")
		b.ReportMetric(vus(int64(r.Full.LazyDataCopy)), "vus-datacopy")
		b.ReportMetric(vus(int64(r.Full.StopTime)), "vus-stop")
	}
}

// BenchmarkTable3_IncrementalCheckpoint regenerates the "Incremental"
// column: the sub-millisecond stop time.
func BenchmarkTable3_IncrementalCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table3(benchWS, 0.125)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.Incr.MetadataCopy)), "vus-metadata")
		b.ReportMetric(vus(int64(r.Incr.LazyDataCopy)), "vus-datacopy")
		b.ReportMetric(vus(int64(r.Incr.StopTime)), "vus-stop")
	}
}

// BenchmarkTable4_RedisMemoryRestore regenerates Table 4 column 1.
func BenchmarkTable4_RedisMemoryRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table4(benchWS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.RedisMem.MemoryState)), "vus-memory")
		b.ReportMetric(vus(int64(r.RedisMem.MetadataState)), "vus-metadata")
		b.ReportMetric(vus(int64(r.RedisMem.Total)), "vus-total")
	}
}

// BenchmarkTable4_ServerlessRestores regenerates Table 4 columns 2-3.
func BenchmarkTable4_ServerlessRestores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table4(benchWS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.ServerlessMem.Total)), "vus-mem-total")
		b.ReportMetric(vus(int64(r.ServerlessDisk.ObjectStoreRead)), "vus-disk-read")
		b.ReportMetric(vus(int64(r.ServerlessDisk.Total)), "vus-disk-total")
	}
}

// BenchmarkCheckpointFrequency covers the §3 claim: 100 checkpoints
// per second with modest overhead.
func BenchmarkCheckpointFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Freq(100, 50, benchWS/4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.AvgStop)), "vus-avgstop")
		b.ReportMetric(r.Overhead*100, "overhead-%")
	}
}

// BenchmarkServerlessDensity covers the §4 claim: functions stored as
// small deltas over a shared runtime image.
func BenchmarkServerlessDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Density(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.BytesPerFn), "bytes/function")
		b.ReportMetric(float64(r.NaiveBytesPerFn), "naive-bytes/function")
	}
}

// BenchmarkRedisPersistence covers the §4 claim: the Aurora port's
// durability path beats fork+AOF.
func BenchmarkRedisPersistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RedisPersistence(200, 8<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.AOFPerOp)), "vus-aof/op")
		b.ReportMetric(vus(int64(r.AuroraPerOp)), "vus-aurora/op")
	}
}

// BenchmarkCRIUBaseline covers the §2 claim: syscall-boundary
// checkpointing is prohibitive next to Aurora's in-kernel COW.
func BenchmarkCRIUBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.CRIUCompare(benchWS / 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.CRIUStop)), "vus-criu-stop")
		b.ReportMetric(vus(int64(r.AuroraStop)), "vus-aurora-stop")
	}
}

// BenchmarkWarmStart covers the §4 claim: restore beats cold boot.
func BenchmarkWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.WarmStart()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(r.Cold)), "vus-cold")
		b.ReportMetric(vus(int64(r.WarmMem)), "vus-warm-mem")
		b.ReportMetric(vus(int64(r.WarmDisk)), "vus-warm-disk")
	}
}

// BenchmarkRecordReplay covers the §4 claim: checkpoints bound the
// record log.
func BenchmarkRecordReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bench.NewMachine()
		ri, err := bench.NewRedisInstance(m, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		m.O.Attach(ri.Group, m.Store)
		// 100 inputs, checkpoint every 25: the log never exceeds 25.
		logHighWater := 0
		events := 0
		for j := 0; j < 100; j++ {
			events++
			if events > logHighWater {
				logHighWater = events
			}
			if j%25 == 24 {
				if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
					b.Fatal(err)
				}
				events = 0
			}
		}
		b.ReportMetric(float64(logHighWater), "log-high-water")
	}
}

// --- ablations ---

// BenchmarkAblationSharedCOW: Aurora's shared-page COW preserves
// shared-memory semantics at one fault per first write.
func BenchmarkAblationSharedCOW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationSharedCOW()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SharedFaults), "cow-faults")
	}
}

// BenchmarkAblationDedup: content-hash dedup across checkpoints.
func BenchmarkAblationDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationDedup(5, 16<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SavedFrac*100, "saved-%")
	}
}

// BenchmarkAblationLazyRestore contrasts eager, lazy, and
// lazy+prefetch restores of the same image.
func BenchmarkAblationLazyRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bench.NewMachine()
		ri, err := bench.NewRedisInstance(m, 16<<20)
		if err != nil {
			b.Fatal(err)
		}
		m.O.Attach(ri.Group, m.Store)
		if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
			b.Fatal(err)
		}
		// Checkpoint returns at resume; the store holds the image only
		// once the background flush lands.
		if err := m.O.Sync(ri.Group); err != nil {
			b.Fatal(err)
		}
		img, rt, err := m.Store.Load(ri.Group.ID, 0)
		if err != nil {
			b.Fatal(err)
		}
		_, eager, err := m.O.RestoreImage(img, rt, core.RestoreOpts{Lazy: false})
		if err != nil {
			b.Fatal(err)
		}
		img2, rt2, _ := m.Store.Load(ri.Group.ID, 0)
		_, lazy, err := m.O.RestoreImage(img2, rt2, core.RestoreOpts{Lazy: true})
		if err != nil {
			b.Fatal(err)
		}
		img3, rt3, _ := m.Store.Load(ri.Group.ID, 0)
		_, pf, err := m.O.RestoreImage(img3, rt3, core.RestoreOpts{Lazy: true, Prefetch: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vus(int64(eager.Total)), "vus-eager")
		b.ReportMetric(vus(int64(lazy.Total)), "vus-lazy")
		b.ReportMetric(vus(int64(pf.Total)), "vus-lazy-prefetch")
	}
}

// BenchmarkAblationIncrementalInterval sweeps the dirty fraction:
// stop time scales with the dirty set, not the working set.
func BenchmarkAblationIncrementalInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.01, 0.05, 0.25} {
			r, err := bench.Table3(benchWS/2, frac)
			if err != nil {
				b.Fatal(err)
			}
			switch frac {
			case 0.01:
				b.ReportMetric(vus(int64(r.Incr.StopTime)), "vus-stop-1%")
			case 0.05:
				b.ReportMetric(vus(int64(r.Incr.StopTime)), "vus-stop-5%")
			case 0.25:
				b.ReportMetric(vus(int64(r.Incr.StopTime)), "vus-stop-25%")
			}
		}
	}
}

// BenchmarkAblationExternalConsistency measures the latency cost the
// sls_fdctl escape hatch removes: gated output waits for the covering
// checkpoint.
func BenchmarkAblationExternalConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bench.NewMachine()
		srv, err := m.K.Spawn(0, "srv")
		if err != nil {
			b.Fatal(err)
		}
		idle := func() {}
		_ = idle
		g, _ := m.O.Persist("srv", srv)
		m.O.Attach(g, m.Store)
		if _, err := m.O.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			b.Fatal(err)
		}
		ext, _ := m.K.Spawn(0, "client")
		a, bb, _ := m.K.NewSocketPair(srv)
		fd, _ := srv.FDs.Get(bb)
		extFD, _ := ext.FDs.Install(m.K, fd.File, 4 /* ORdWr */)

		// Gated: write, then the wait is one checkpoint period away.
		gatedFrom := m.Clock.Now()
		m.K.Write(srv, a, []byte("reply"))
		if _, err := m.O.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			b.Fatal(err)
		}
		// Release of the gated write waits on durability, not the
		// barrier: drain the flush pipeline before reading.
		if err := m.O.Sync(g); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 8)
		if _, err := m.K.Read(ext, extFD, buf); err != nil {
			b.Fatal(err)
		}
		gated := m.Clock.Now() - gatedFrom

		// Ungated (sls_fdctl off): delivery is immediate.
		m.K.FDCtl(srv, a, false)
		unFrom := m.Clock.Now()
		m.K.Write(srv, a, []byte("reply"))
		if _, err := m.K.Read(ext, extFD, buf); err != nil {
			b.Fatal(err)
		}
		ungated := m.Clock.Now() - unFrom

		b.ReportMetric(vus(int64(gated)), "vus-gated")
		b.ReportMetric(vus(int64(ungated)), "vus-ungated")
	}
}

// BenchmarkPipelineKVLSM measures the background flush pipeline on the
// LSM-store workload and emits the stop-vs-flush split as
// BENCH_pipeline.json so regression tooling can track it.
func BenchmarkPipelineKVLSM(b *testing.B) {
	var last *bench.PipelineResult
	for i := 0; i < b.N; i++ {
		r, err := bench.PipelineKVLSM(500, 50)
		if err != nil {
			b.Fatal(err)
		}
		last = r
		b.ReportMetric(vus(int64(r.TotalStop)), "vus-stop")
		b.ReportMetric(vus(int64(r.TotalFull())), "vus-ckpt+flush")
		b.ReportMetric(float64(r.PeakQueueDepth), "peak-queue")
	}
	if err := writePipelineJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitPipelineBench smoke-runs the sweep behind BENCH_pipeline.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitPipelineBench(t *testing.T) {
	if _, err := bench.PipelineKVLSM(500, 50); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFaultMatrix measures checkpoint throughput under injected
// storage faults: the same workload at 0%, 1%, and 5% per-write fault
// rates on the primary, with a clean secondary carrying degraded-mode
// durability.
func BenchmarkFaultMatrix(b *testing.B) {
	var last []bench.FaultPoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.FaultSweep(100, []float64{0, 0.01, 0.05}, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			name := fmt.Sprintf("ckpt/vsec-%g%%", pt.Rate*100)
			b.ReportMetric(pt.CkptPerVSec, name)
		}
	}
	if err := writeFaultJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitFaultBench smoke-runs the sweep behind BENCH_faults.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitFaultBench(t *testing.T) {
	if _, err := bench.FaultSweep(100, []float64{0, 0.01, 0.05}, 42); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecoveryMatrix measures time-to-recover for lazy restores
// whose primary store read-faults at 0%, 1%, and 5%, demand paging
// failing over to a clean secondary with read-repair. Recovery must be
// bit-correct at every rate or the sweep errors.
func BenchmarkRecoveryMatrix(b *testing.B) {
	var last []bench.RecoveryPoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.RecoverySweep(20, []float64{0, 0.01, 0.05, 1}, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			b.ReportMetric(vus(int64(pt.TimeToRecover)), fmt.Sprintf("vus-recover-%g%%", pt.Rate*100))
		}
	}
	if err := writeRecoveryJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitRecoveryBench smoke-runs the sweep behind BENCH_recovery.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitRecoveryBench(t *testing.T) {
	// 0/1/5% transient read-fault rates, plus a dead primary (rate 1):
	// the first three exercise bounded retry, the last full failover
	// with read-repair.
	if _, err := bench.RecoverySweep(20, []float64{0, 0.01, 0.05, 1}, 42); err != nil {
		t.Fatal(err)
	}
}

// chaosAt runs the whole-system chaos schedule with every link fault
// probability scaled by rate (drops, duplicates, reorders at rate,
// corruption at half), against fixed moderate storage fault rates. The
// primary store is bounded to ~20 steady-state epochs — enough to hold
// the divergent suffix the permanent partition pins (epochs above the
// replica's catch-up floor are unreclaimable, and with sub-block
// metadata packing each pinned record also pins its pack block) — so
// the space scheduler (watermark reclamation under the replica's
// catch-up floor) is part of the standing fault mix.
func chaosAt(rate float64) (*bench.ChaosReport, error) {
	return bench.ChaosRun(bench.ChaosConfig{
		Seed:                42,
		Checkpoints:         24,
		StepsPerEpoch:       3,
		LinkDrop:            rate,
		LinkDup:             rate,
		LinkReorder:         rate,
		LinkCorrupt:         rate / 2,
		StoreWriteErr:       0.01,
		StoreReadErr:        0.005,
		CrashEvery:          8,
		PartitionAt:         10,
		PartitionLen:        3,
		DivergentEpochs:     4,
		PostEpochs:          6,
		StoreCapacityEpochs: 20,
	})
}

// BenchmarkChaosMatrix measures the replication pipeline under link
// faults: steady-state checkpoint cost, partition catch-up time, and
// promotion time-to-recover at 0%, 1%, and 5% per-frame fault rates.
func BenchmarkChaosMatrix(b *testing.B) {
	var last []*bench.ChaosReport
	for i := 0; i < b.N; i++ {
		last = last[:0]
		for _, rate := range []float64{0, 0.01, 0.05} {
			r, err := chaosAt(rate)
			if err != nil {
				b.Fatal(err)
			}
			last = append(last, r)
			b.ReportMetric(vus(int64(r.PerCheckpoint)), fmt.Sprintf("vus-ckpt-%g%%", rate*100))
			b.ReportMetric(vus(int64(r.PromoteTTR)), fmt.Sprintf("vus-promote-%g%%", rate*100))
			b.ReportMetric(vus(int64(r.CatchUp)), fmt.Sprintf("vus-catchup-%g%%", rate*100))
		}
	}
	if err := writeChaosJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitChaosBench smoke-runs the sweep behind BENCH_chaos.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitChaosBench(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.05} {
		if _, err := chaosAt(rate); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkSpaceMatrix measures sustained checkpoint throughput as
// device headroom disappears: the same workload on an unbounded device
// and on devices sized to 20, 10, and 5 steady-state epochs, with the
// retention reclaimer and admission control keeping the stream alive.
// Every retained epoch is verified bit-identical against the unbounded
// control before a point is reported.
func BenchmarkSpaceMatrix(b *testing.B) {
	var last []*bench.SpaceReport
	for i := 0; i < b.N; i++ {
		reps, err := bench.SpaceSweep(120, []int{0, 20, 10, 5}, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = reps
		for _, r := range reps {
			b.ReportMetric(r.CkptPerVSec, fmt.Sprintf("ckpt/vsec-%dep", r.CapacityEpochs))
		}
	}
	if err := writeSpaceJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitSpaceBench smoke-runs the sweep behind BENCH_space.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitSpaceBench(t *testing.T) {
	if _, err := bench.SpaceSweep(120, []int{0, 20, 10, 5}, 42); err != nil {
		t.Fatal(err)
	}
}

// writeBench writes one committed baseline, BENCH_<name>.json: the
// benchmark's label, its header keys, and (when the benchmark has a
// matrix) its points. Map keys marshal sorted, so the bytes depend only
// on the values.
func writeBench(name, benchmark string, header map[string]any, points any) error {
	doc := map[string]any{"benchmark": benchmark}
	for k, v := range header {
		doc[k] = v
	}
	if points != nil {
		doc["points"] = points
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+name+".json", append(data, '\n'), 0o644)
}

func writeSpaceJSON(reps []*bench.SpaceReport) error {
	rows := make([]map[string]any, 0, len(reps))
	for _, r := range reps {
		rows = append(rows, map[string]any{
			"capacity_epochs":  r.CapacityEpochs,
			"capacity_bytes":   r.Capacity,
			"checkpoints":      r.Checkpoints,
			"admitted":         r.Admitted,
			"durable_epoch":    r.Durable,
			"sheds":            r.Sheds,
			"emergency_sheds":  r.EmergencySheds,
			"scans":            r.Scans,
			"emergency_scans":  r.EmergencyScans,
			"epochs_reclaimed": r.EpochsReclaimed,
			"bytes_reclaimed":  r.BytesReclaimed,
			"retained_epochs":  r.RetainedEpochs,
			"max_usage":        r.MaxUsage,
			"final_usage":      r.FinalUsage,
			"ckpt_per_vsec":    r.CkptPerVSec,
		})
	}
	return writeBench("space", "space-matrix", map[string]any{"seed": 42}, rows)
}

func writeChaosJSON(reps []*bench.ChaosReport) error {
	rates := []float64{0, 0.01, 0.05}
	rows := make([]map[string]any, 0, len(reps))
	for i, r := range reps {
		rows = append(rows, map[string]any{
			"link_fault_rate":   rates[i],
			"checkpoints":       r.Checkpoints,
			"crashes":           r.Crashes,
			"restores":          r.Restores,
			"partitions":        r.Partitions,
			"link_dropped":      r.LinkDropped,
			"link_injected":     r.LinkInjected,
			"store_injected":    r.StoreInjected,
			"per_checkpoint_us": vus(int64(r.PerCheckpoint)),
			"catchup_us":        vus(int64(r.CatchUp)),
			"promote_ttr_us":    vus(int64(r.PromoteTTR)),
			"promote_gen":       r.PromoteGen,
			"floor":             r.Floor,
			"backfilled":        r.Backfilled,
			"quarantined":       r.Quarantined,
			"stale_rejected":    r.StaleRejected,
			"released":          r.Released,
			"store_capacity":    r.StoreCapacity,
			"epochs_reclaimed":  r.EpochsReclaimed,
			"emergency_scans":   r.EmergencyScans,
		})
	}
	return writeBench("chaos", "chaos-matrix", map[string]any{"seed": 42}, rows)
}

func writeRecoveryJSON(pts []bench.RecoveryPoint) error {
	rows := make([]map[string]any, 0, len(pts))
	for _, pt := range pts {
		rows = append(rows, map[string]any{
			"read_fault_rate":    pt.Rate,
			"checkpoints":        pt.Checkpoints,
			"pages":              pt.Pages,
			"time_to_recover_us": vus(int64(pt.TimeToRecover)),
			"failovers":          pt.Failovers,
			"pages_repaired":     pt.PagesRepaired,
			"read_retries":       pt.Retries,
			"faults_injected":    pt.Injected,
		})
	}
	return writeBench("recovery", "recovery-matrix", map[string]any{"seed": 42}, rows)
}

func writeFaultJSON(pts []bench.FaultPoint) error {
	rows := make([]map[string]any, 0, len(pts))
	for _, pt := range pts {
		rows = append(rows, map[string]any{
			"fault_rate":      pt.Rate,
			"checkpoints":     pt.Checkpoints,
			"durable_epoch":   pt.Durable,
			"faults_injected": pt.Injected,
			"flush_retries":   pt.Retries,
			"epochs_resynced": pt.Resyncs,
			"virtual_time_us": vus(int64(pt.VirtualTime)),
			"ckpt_per_vsec":   pt.CkptPerVSec,
		})
	}
	return writeBench("faults", "fault-matrix", map[string]any{"seed": 42}, rows)
}

// BenchmarkFleetStorm measures fleet density: an open-loop checkpoint
// storm across a growing number of groups multiplexed onto the fixed
// shard-worker pool, reporting p99 stop time and aggregate throughput.
func BenchmarkFleetStorm(b *testing.B) {
	var last []bench.FleetPoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.FleetStorm([]int{16, 64, 256}, 8, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			b.ReportMetric(vus(int64(pt.StopP99)), fmt.Sprintf("vus-stop-p99-%dg", pt.Groups))
			b.ReportMetric(pt.CkptPerVSec, fmt.Sprintf("ckpt/vsec-%dg", pt.Groups))
		}
	}
	if err := writeFleetJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitFleetBench smoke-runs the sweep behind BENCH_fleet.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitFleetBench(t *testing.T) {
	if _, err := bench.FleetStorm([]int{16, 64, 256}, 8, 42); err != nil {
		t.Fatal(err)
	}
}

func writeFleetJSON(pts []bench.FleetPoint) error {
	rows := make([]map[string]any, 0, len(pts))
	for _, pt := range pts {
		rows = append(rows, map[string]any{
			"groups":        pt.Groups,
			"checkpoints":   pt.Checkpoints,
			"stop_p50_us":   vus(int64(pt.StopP50)),
			"stop_p99_us":   vus(int64(pt.StopP99)),
			"stop_max_us":   vus(int64(pt.StopMax)),
			"ckpt_per_vsec": pt.CkptPerVSec,
			"dispatches":    pt.Dispatches,
			"shards":        pt.Shards,
			"mem_peak":      pt.MemPeak,
			"budget_stalls": pt.BudgetStall,
			"dedup_hits":    pt.DedupHits,
		})
	}
	return writeBench("fleet", "fleet-storm", map[string]any{"seed": 42}, rows)
}

func writePipelineJSON(r *bench.PipelineResult) error {
	return writeBench("pipeline", "pipeline-kvlsm", map[string]any{
		"ops":                r.Ops,
		"checkpoints":        r.Checkpoints,
		"total_stop_us":      vus(int64(r.TotalStop)),
		"total_flush_us":     vus(int64(r.TotalFlush)),
		"ckpt_plus_flush_us": vus(int64(r.TotalFull())),
		"max_stop_us":        vus(int64(r.MaxStop)),
		"max_full_us":        vus(int64(r.MaxFull)),
		"peak_queue_depth":   r.PeakQueueDepth,
	}, nil)
}

var _ = vm.PageSize // keep the import for documentation cross-reference

// --- Quorum replication matrix -------------------------------------

// BenchmarkQuorumMatrix sweeps replica count × link-fault rate under
// majority write quorums, reporting the median durable-ack latency
// (the W-th fastest replica ack) per cell.
func BenchmarkQuorumMatrix(b *testing.B) {
	var last []bench.QuorumPoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.QuorumSweep(40, []int{1, 3, 5}, []float64{0, 0.01, 0.05}, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			b.ReportMetric(vus(int64(pt.MedianDurable)),
				fmt.Sprintf("vus-durable-n%d-r%g", pt.Replicas, pt.Rate*100))
		}
	}
	if err := writeQuorumJSON(last); err != nil {
		b.Fatal(err)
	}
}

// TestEmitQuorumBench smoke-runs the sweep behind BENCH_quorum.json
// on every plain `go test`. It writes nothing: only the Benchmark*
// functions, under `make bench`, refresh a committed baseline.
func TestEmitQuorumBench(t *testing.T) {
	if _, err := bench.QuorumSweep(40, []int{1, 3, 5}, []float64{0, 0.01, 0.05}, 42); err != nil {
		t.Fatal(err)
	}
}

func writeQuorumJSON(pts []bench.QuorumPoint) error {
	rows := make([]map[string]any, 0, len(pts))
	for _, pt := range pts {
		rows = append(rows, map[string]any{
			"replicas":        pt.Replicas,
			"write_quorum":    pt.W,
			"fault_rate":      pt.Rate,
			"checkpoints":     pt.Checkpoints,
			"durable_epoch":   pt.Durable,
			"durable_med_us":  vus(int64(pt.MedianDurable)),
			"catchup_epochs":  pt.CatchUpEpochs,
			"pages_sent":      pt.PagesSent,
			"pages_skipped":   pt.PagesSkipped,
			"faults_injected": pt.LinkInjected,
		})
	}
	return writeBench("quorum", "quorum-matrix", map[string]any{"seed": 42}, rows)
}

// --- Live migration matrix ------------------------------------------

var migrateSeeds = []int64{1, 7, 42}
var migrateRates = []float64{0, 0.01, 0.05}

// BenchmarkMigrateMatrix sweeps seed × link/store fault rate over the
// full migration chaos schedule (chained planned hops with a
// mid-pre-copy partition, plus the unplanned hot-standby promotion),
// reporting blackout percentiles and TTR per cell.
func BenchmarkMigrateMatrix(b *testing.B) {
	var last []bench.MigratePoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.MigrateSweep(migrateSeeds, migrateRates)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			b.ReportMetric(pt.BlackoutP99us,
				fmt.Sprintf("vus-blackout-p99-s%d-r%g", pt.Seed, pt.LinkFaultPct))
			b.ReportMetric(pt.TTRus,
				fmt.Sprintf("vus-ttr-s%d-r%g", pt.Seed, pt.LinkFaultPct))
		}
	}
	if err := writeBench("migrate", "migrate-matrix", map[string]any{"seeds": migrateSeeds}, last); err != nil {
		b.Fatal(err)
	}
}

// baselinePoints reads the points of a committed BENCH_*.json baseline.
// A missing or empty baseline skips the calling gate — which has already
// run its sweep, so a gate without a baseline still smoke-runs it.
func baselinePoints[T any](t *testing.T, file string) []T {
	t.Helper()
	raw, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		t.Skipf("no committed %s baseline", file)
	}
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Points []T `json:"points"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parsing committed %s: %v", file, err)
	}
	if len(baseline.Points) == 0 {
		t.Skipf("committed %s has no points", file)
	}
	return baseline.Points
}

// TestMigrateBenchGate is the TTR/blackout regression gate: against
// the committed BENCH_migrate.json baseline, a fresh sweep may not
// exceed 2× the recorded blackout p99 or TTR in any cell. The sweep
// itself runs (and must succeed) even when no baseline is committed.
func TestMigrateBenchGate(t *testing.T) {
	fresh, err := bench.MigrateSweep(migrateSeeds, migrateRates)
	if err != nil {
		t.Fatal(err)
	}
	baseline := baselinePoints[bench.MigratePoint](t, "BENCH_migrate.json")
	byCell := make(map[string]bench.MigratePoint, len(fresh))
	for _, pt := range fresh {
		byCell[fmt.Sprintf("s%d-r%g", pt.Seed, pt.LinkFaultPct)] = pt
	}
	for _, base := range baseline {
		key := fmt.Sprintf("s%d-r%g", base.Seed, base.LinkFaultPct)
		pt, ok := byCell[key]
		if !ok {
			continue // baseline cell no longer in the sweep grid
		}
		if base.BlackoutP99us > 0 && pt.BlackoutP99us > 2*base.BlackoutP99us {
			t.Errorf("cell %s: blackout p99 %.1fµs exceeds 2× committed baseline %.1fµs",
				key, pt.BlackoutP99us, base.BlackoutP99us)
		}
		if base.TTRus > 0 && pt.TTRus > 2*base.TTRus {
			t.Errorf("cell %s: TTR %.1fµs exceeds 2× committed baseline %.1fµs",
				key, pt.TTRus, base.TTRus)
		}
	}
}

// --- Multi-store placement matrix ------------------------------------

var placementStores = []int{2, 4, 8}
var placementRates = []float64{0, 0.01, 0.05}

const placementSweepGroups = 32
const placementSweepSeed = 42

// BenchmarkPlacementMatrix sweeps fleet size × link/store fault rate
// over the full placement chaos schedule (spread under anti-affinity,
// open-loop load, store kill with throttled evacuation, drain),
// reporting evacuation TTR percentiles per cell.
func BenchmarkPlacementMatrix(b *testing.B) {
	var last []bench.PlacementPoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.PlacementSweep(placementSweepGroups, placementStores, placementRates, placementSweepSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			b.ReportMetric(pt.EvacTTRp99us,
				fmt.Sprintf("vus-evac-ttr-p99-n%d-r%g", pt.Stores, pt.LinkFaultPct))
		}
	}
	header := map[string]any{"seed": placementSweepSeed, "stores": placementStores}
	if err := writeBench("placement", "placement-matrix", header, last); err != nil {
		b.Fatal(err)
	}
}

// TestPlacementBenchGate is the evacuation-TTR regression gate:
// against the committed BENCH_placement.json baseline, a fresh sweep
// may not exceed 2× the recorded evacuation TTR p99 in any cell. The
// sweep itself runs (and must succeed) even when no baseline is
// committed.
func TestPlacementBenchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("placement gate sweeps the full matrix; skipped in -short")
	}
	fresh, err := bench.PlacementSweep(placementSweepGroups, placementStores, placementRates, placementSweepSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range fresh {
		if pt.LinkFaultPct == 5 && (pt.LinkDropped == 0 || pt.LinkInjected == 0) {
			t.Errorf("cell n%d-r5: link_dropped %d, link_injected %d — the directory's wires report no faults at 5%%",
				pt.Stores, pt.LinkDropped, pt.LinkInjected)
		}
	}
	baseline := baselinePoints[bench.PlacementPoint](t, "BENCH_placement.json")
	byCell := make(map[string]bench.PlacementPoint, len(fresh))
	for _, pt := range fresh {
		byCell[fmt.Sprintf("n%d-r%g", pt.Stores, pt.LinkFaultPct)] = pt
	}
	for _, base := range baseline {
		key := fmt.Sprintf("n%d-r%g", base.Stores, base.LinkFaultPct)
		pt, ok := byCell[key]
		if !ok {
			continue // baseline cell no longer in the sweep grid
		}
		if base.EvacTTRp99us > 0 && pt.EvacTTRp99us > 2*base.EvacTTRp99us {
			t.Errorf("cell %s: evacuation TTR p99 %.1fµs exceeds 2× committed baseline %.1fµs",
				key, pt.EvacTTRp99us, base.EvacTTRp99us)
		}
	}
}

// --- Elastic autoscale matrix -----------------------------------------

var autoscaleRates = []float64{0, 0.01, 0.05}

const autoscaleSweepGroups = 24
const autoscaleSweepSeed = 42

// BenchmarkAutoscaleMatrix sweeps link/store fault rate over the full
// scale-storm schedule (open-loop ramp 2→peak→2 with a dead warm
// spare mid-scale-out and a store kill mid-scale-in), reporting
// convergence times per cell.
func BenchmarkAutoscaleMatrix(b *testing.B) {
	var last []bench.AutoscalePoint
	for i := 0; i < b.N; i++ {
		pts, err := bench.AutoscaleSweep(autoscaleSweepGroups, autoscaleRates, autoscaleSweepSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
		for _, pt := range pts {
			b.ReportMetric(pt.ConvergeOutUs, fmt.Sprintf("vus-converge-out-r%g", pt.LinkFaultPct))
			b.ReportMetric(pt.ConvergeInUs, fmt.Sprintf("vus-converge-in-r%g", pt.LinkFaultPct))
		}
	}
	header := map[string]any{"seed": autoscaleSweepSeed, "groups": autoscaleSweepGroups}
	if err := writeBench("autoscale", "autoscale-matrix", header, last); err != nil {
		b.Fatal(err)
	}
}

// TestAutoscaleBenchGate is the convergence-time regression gate:
// against the committed BENCH_autoscale.json baseline, a fresh sweep
// may not take more than 2× the recorded ramp-up or ramp-down
// convergence ticks in any cell. Ticks, not wall time: the control
// loop runs on a simulated lane, so tick counts are the stable
// currency across machines. The sweep itself runs (and must succeed)
// even when no baseline is committed.
func TestAutoscaleBenchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale gate sweeps the full matrix; skipped in -short")
	}
	fresh, err := bench.AutoscaleSweep(autoscaleSweepGroups, autoscaleRates, autoscaleSweepSeed)
	if err != nil {
		t.Fatal(err)
	}
	baseline := baselinePoints[bench.AutoscalePoint](t, "BENCH_autoscale.json")
	byCell := make(map[float64]bench.AutoscalePoint, len(fresh))
	for _, pt := range fresh {
		byCell[pt.LinkFaultPct] = pt
	}
	for _, base := range baseline {
		pt, ok := byCell[base.LinkFaultPct]
		if !ok {
			continue // baseline cell no longer in the sweep grid
		}
		if base.ConvergeOutTicks > 0 && pt.ConvergeOutTicks > 2*base.ConvergeOutTicks {
			t.Errorf("cell r%g: ramp-up convergence %d ticks exceeds 2× committed baseline %d",
				base.LinkFaultPct, pt.ConvergeOutTicks, base.ConvergeOutTicks)
		}
		if base.ConvergeInTicks > 0 && pt.ConvergeInTicks > 2*base.ConvergeInTicks {
			t.Errorf("cell r%g: ramp-down convergence %d ticks exceeds 2× committed baseline %d",
				base.LinkFaultPct, pt.ConvergeInTicks, base.ConvergeInTicks)
		}
	}
}
