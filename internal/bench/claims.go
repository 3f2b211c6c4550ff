package bench

import (
	"fmt"
	"time"

	"aurora/internal/apps/faas"
	"aurora/internal/apps/redis"
	"aurora/internal/core"
	"aurora/internal/criu"
	"aurora/internal/kernel"
	"aurora/internal/rr"
	"aurora/internal/slsfs"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// FreqResult quantifies the §3 claim: checkpointing up to 100×/second
// with modest overhead.
type FreqResult struct {
	Hz          int    `json:"hz"`
	Checkpoints int    `json:"checkpoints"`
	AvgStop     Micros `json:"avg_stop_us"`
	MaxStop     Micros `json:"max_stop_us"`
	// Overhead is total stop time divided by the checkpoint period
	// budget: the fraction of wall time the application loses.
	Overhead float64 `json:"overhead"`
}

// Freq runs n checkpoints at the given rate over a Redis instance with
// a small steady dirty rate.
func Freq(hz, n int, wsBytes int64) (*FreqResult, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Store)
	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
		return nil, err
	}

	period := time.Second / time.Duration(hz)
	var total, worst time.Duration
	for i := 0; i < n; i++ {
		if err := ri.DirtyFraction(0.01); err != nil {
			return nil, err
		}
		bd, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{})
		if err != nil {
			return nil, err
		}
		total += bd.StopTime
		if bd.StopTime > worst {
			worst = bd.StopTime
		}
	}
	// Overhead counts stop time only: flushes ride the background
	// pipeline. Drain it so every epoch really landed before reporting.
	if err := m.O.Sync(ri.Group); err != nil {
		return nil, err
	}
	return &FreqResult{
		Hz:          hz,
		Checkpoints: n,
		AvgStop:     Micros(total / time.Duration(n)),
		MaxStop:     Micros(worst),
		Overhead:    float64(total) / float64(time.Duration(n)*period),
	}, nil
}

// Print renders the frequency claim.
func (r *FreqResult) Print() {
	fmt.Printf("Claim (§3): %d checkpoints at %d Hz\n", r.Checkpoints, r.Hz)
	fmt.Printf("  avg stop %s, max stop %s, application overhead %.2f%%\n\n",
		r.AvgStop, r.MaxStop, r.Overhead*100)
}

// DensityResult quantifies the §4 serverless-density claim.
type DensityResult struct {
	Functions       int     `json:"functions"`
	RuntimeBlocks   int     `json:"runtime_blocks"`
	BlocksPerFn     float64 `json:"blocks_per_function"`
	BytesPerFn      int64   `json:"bytes_per_function"`
	DedupHits       int64   `json:"dedup_hits"`
	NaiveBytesPerFn int64   `json:"naive_bytes_per_function"` // what each function would cost without dedup
}

// Density deploys n functions over one runtime image and measures
// store growth per function.
func Density(n int) (*DensityResult, error) {
	m := NewMachine()
	defer m.Close()
	rt := faas.NewRuntime(m.O, m.Store, nil) // store-only: measure disk density
	if _, err := rt.BuildBase(); err != nil {
		return nil, err
	}
	base := m.Objs.Stats()
	for i := 0; i < n; i++ {
		if _, err := rt.Deploy(fmt.Sprintf("fn-%04d", i), []byte(fmt.Sprintf("function-config-%04d", i))); err != nil {
			return nil, err
		}
	}
	after := m.Objs.Stats()
	added := after.Blocks - base.Blocks
	return &DensityResult{
		Functions:       n,
		RuntimeBlocks:   base.Blocks,
		BlocksPerFn:     float64(added) / float64(n),
		BytesPerFn:      int64(added) * 4096 / int64(n),
		DedupHits:       after.DedupHits - base.DedupHits,
		NaiveBytesPerFn: int64(base.Blocks) * 4096,
	}, nil
}

// Print renders the density claim.
func (r *DensityResult) Print() {
	fmt.Printf("Claim (§4): serverless density, %d functions over one runtime image\n", r.Functions)
	fmt.Printf("  runtime image: %d blocks (%s)\n", r.RuntimeBlocks, fmtBytes(int64(r.RuntimeBlocks)*4096))
	fmt.Printf("  per function: %.1f blocks (%s) vs %s without dedup — %.0fx density\n",
		r.BlocksPerFn, fmtBytes(r.BytesPerFn), fmtBytes(r.NaiveBytesPerFn),
		float64(r.NaiveBytesPerFn)/float64(max(r.BytesPerFn, 1)))
	fmt.Printf("  dedup hits: %d\n\n", r.DedupHits)
}

// RedisPersistenceResult compares the per-operation durability cost of
// the three engines (the §4 database claim).
type RedisPersistenceResult struct {
	Ops          int    `json:"ops"`
	AOFPerOp     Micros `json:"aof_per_op_us"`
	AuroraPerOp  Micros `json:"aurora_per_op_us"`
	ForkSnapshot Micros `json:"fork_snapshot_us"`     // one BGSAVE stop cost
	AuroraCkpt   Micros `json:"aurora_checkpoint_us"` // one sls_checkpoint stop cost
}

// RedisPersistence measures virtual time per SET under the AOF engine
// vs the Aurora engine, plus the snapshot costs of fork vs checkpoint.
func RedisPersistence(ops int, wsBytes int64) (*RedisPersistenceResult, error) {
	out := &RedisPersistenceResult{Ops: ops}
	val := make([]byte, 512)

	// AOF per-op cost (fsync every op: the durable configuration).
	{
		m := NewMachine()
		defer m.Close()
		fs, err := newFS(m)
		if err != nil {
			return nil, err
		}
		aof, err := redis.NewAOF(fs, "/appendonly.aof", 1)
		if err != nil {
			return nil, err
		}
		p, st, err := redis.Spawn(m.K, 0, "/redis.sock", 1024, wsBytes, aof)
		if err != nil {
			return nil, err
		}
		start := m.Clock.Now()
		for i := 0; i < ops; i++ {
			if err := st.Set([]byte(fmt.Sprintf("k-%06d", i)), val); err != nil {
				return nil, err
			}
			if err := aof.OnMutation(m.K, p, []byte(fmt.Sprintf("SET k-%06d <512B>", i))); err != nil {
				return nil, err
			}
		}
		out.AOFPerOp = Micros((m.Clock.Now() - start) / time.Duration(ops))

		// Fork snapshot cost on the same instance.
		snapStart := m.Clock.Now()
		fork := &redis.ForkSnapshot{FS: fs, Path: "/dump.rdb"}
		if err := fork.Snapshot(m.K, p); err != nil {
			return nil, err
		}
		out.ForkSnapshot = Micros(m.Clock.Now() - snapStart)
	}

	// Aurora per-op cost (sls_ntflush each op).
	{
		m := NewMachine()
		defer m.Close()
		eng := redis.NewAurora(m.API, ops*10) // no auto checkpoint inside the loop
		p, st, err := redis.Spawn(m.K, 0, "/redis.sock", 1024, wsBytes, eng)
		if err != nil {
			return nil, err
		}
		g, err := m.O.Persist("redis", p)
		if err != nil {
			return nil, err
		}
		m.O.Attach(g, m.Store)
		if _, err := m.O.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			return nil, err
		}
		start := m.Clock.Now()
		for i := 0; i < ops; i++ {
			if err := st.Set([]byte(fmt.Sprintf("k-%06d", i)), val); err != nil {
				return nil, err
			}
			if err := eng.OnMutation(m.K, p, []byte(fmt.Sprintf("SET k-%06d <512B>", i))); err != nil {
				return nil, err
			}
		}
		out.AuroraPerOp = Micros((m.Clock.Now() - start) / time.Duration(ops))

		bd, err := m.O.Checkpoint(g, core.CheckpointOpts{})
		if err != nil {
			return nil, err
		}
		out.AuroraCkpt = Micros(bd.StopTime)
	}
	return out, nil
}

// Print renders the database claim.
func (r *RedisPersistenceResult) Print() {
	fmt.Printf("Claim (§4): Redis persistence engines, %d SET operations\n", r.Ops)
	fmt.Printf("  per-op durability:  AOF+fsync %s   Aurora ntflush %s  (%.1fx)\n",
		r.AOFPerOp, r.AuroraPerOp, float64(r.AOFPerOp)/float64(max(r.AuroraPerOp, 1)))
	fmt.Printf("  snapshot stop:      fork+dump %s   sls_checkpoint %s  (%.1fx)\n\n",
		r.ForkSnapshot, r.AuroraCkpt, float64(r.ForkSnapshot)/float64(max(r.AuroraCkpt, 1)))
}

// CRIUResult compares the syscall-boundary baseline against Aurora's
// incremental checkpoint (the §2 claim).
type CRIUResult struct {
	WorkingSet int64  `json:"working_set"`
	CRIUStop   Micros `json:"criu_stop_us"`
	AuroraStop Micros `json:"aurora_stop_us"`
	CRIUBytes  int64  `json:"criu_bytes"`
}

// CRIUCompare checkpoints the same application both ways.
func CRIUCompare(wsBytes int64) (*CRIUResult, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Store)
	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
		return nil, err
	}
	if err := ri.DirtyFraction(0.01); err != nil {
		return nil, err
	}
	aurora, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{})
	if err != nil {
		return nil, err
	}

	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, m.Clock)
	c := criu.New(m.K, dev)
	cb, err := c.Checkpoint(ri.Proc)
	if err != nil {
		return nil, err
	}
	return &CRIUResult{
		WorkingSet: wsBytes,
		CRIUStop:   Micros(cb.StopTime),
		AuroraStop: Micros(aurora.StopTime),
		CRIUBytes:  cb.Bytes,
	}, nil
}

// Print renders the comparison.
func (r *CRIUResult) Print() {
	fmt.Printf("Claim (§2): CRIU-style vs Aurora incremental, working set %s\n", fmtBytes(r.WorkingSet))
	fmt.Printf("  CRIU stop %s (image %s, frozen throughout)\n", r.CRIUStop, fmtBytes(r.CRIUBytes))
	fmt.Printf("  Aurora stop %s  (%.0fx lower)\n\n",
		r.AuroraStop, float64(r.CRIUStop)/float64(max(r.AuroraStop, 1)))
}

// WarmStartResult compares cold boot with restore-based warm start.
type WarmStartResult struct {
	Cold     Micros `json:"cold_us"`
	WarmMem  Micros `json:"warm_memory_us"`
	WarmDisk Micros `json:"warm_disk_us"`
}

// WarmStart measures serverless start paths.
func WarmStart() (*WarmStartResult, error) {
	m := NewMachine()
	defer m.Close()
	rt := faas.NewRuntime(m.O, m.Store, m.Mem)
	rt.InitLoops = 200_000
	if _, err := rt.Deploy("ws", nil); err != nil {
		return nil, err
	}

	coldStart := m.Clock.Now()
	if _, err := rt.ColdStart(1); err != nil {
		return nil, err
	}
	cold := m.Clock.Now() - coldStart

	fn, err := rt.Function("ws")
	if err != nil {
		return nil, err
	}
	img, _, err := m.Mem.Load(fn.Group.ID, 0)
	if err != nil {
		return nil, err
	}
	warmMem, err := restore(m.O, img, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		return nil, err
	}
	dimg, rt2, err := m.Store.Load(fn.Group.ID, 0)
	if err != nil {
		return nil, err
	}
	warmDisk, err := restore(m.O, dimg, rt2, core.RestoreOpts{Lazy: true})
	if err != nil {
		return nil, err
	}
	return &WarmStartResult{Cold: Micros(cold), WarmMem: warmMem.Total, WarmDisk: warmDisk.Total}, nil
}

// Print renders the warm-start comparison.
func (r *WarmStartResult) Print() {
	fmt.Printf("Claim (§4): serverless starts\n")
	fmt.Printf("  cold boot %s, warm restore (memory) %s, warm restore (disk) %s\n\n",
		r.Cold, r.WarmMem, r.WarmDisk)
}

// --- ablations ---

// AblationCOWResult contrasts Aurora's shared-COW checkpointing with a
// fork-style private-COW alternative on a shared-memory workload.
type AblationCOWResult struct {
	SharedFaults int64 `json:"cow_faults"`
	// SharedResident is read while the checkpoint's flush may still
	// hold its captured frames: the Go scheduler decides it.
	SharedResident int64 `json:"-"`
	// ForkBreaksSharing is always true: it documents the semantic
	// failure (writes diverge) that motivates Aurora's design.
	ForkBreaksSharing bool `json:"-"`
}

// AblationSharedCOW demonstrates the design choice: two processes
// share a segment; after an Aurora checkpoint a write by one remains
// visible to the other, at the cost of exactly one COW fault.
func AblationSharedCOW() (*AblationCOWResult, error) {
	m := NewMachine()
	defer m.Close()
	p1, err := m.K.Spawn(0, "writer")
	if err != nil {
		return nil, err
	}
	p2, err := m.K.Fork(p1)
	if err != nil {
		return nil, err
	}
	seg, err := m.K.ShmGet(1, 64*vm.PageSize)
	if err != nil {
		return nil, err
	}
	a1, err := m.K.ShmAttach(p1, seg)
	if err != nil {
		return nil, err
	}
	a2, err := m.K.ShmAttach(p2, seg)
	if err != nil {
		return nil, err
	}
	if err := p1.WriteMem(a1, make([]byte, 64*vm.PageSize)); err != nil {
		return nil, err
	}

	g, err := m.O.Persist("shm", p1)
	if err != nil {
		return nil, err
	}
	m.O.Attach(g, m.Store)
	if _, err := m.O.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		return nil, err
	}

	before := m.K.Meter.CowFaults.Load()
	if err := p1.WriteMem(a1, []byte("post-ckpt")); err != nil {
		return nil, err
	}
	buf := make([]byte, 9)
	if err := p2.ReadMem(a2, buf); err != nil {
		return nil, err
	}
	if string(buf) != "post-ckpt" {
		return nil, fmt.Errorf("bench: Aurora COW broke sharing")
	}
	return &AblationCOWResult{
		SharedFaults:   m.K.Meter.CowFaults.Load() - before,
		SharedResident: m.K.Mem.Resident(),
		// Fork-style COW gives the writer a private page: the sibling
		// would still read the old data (see vm's fork tests).
		ForkBreaksSharing: true,
	}, nil
}

// AblationDedupResult measures the store with and without dedup value.
type AblationDedupResult struct {
	Checkpoints  int     `json:"checkpoints"`
	BlocksStored int     `json:"blocks_stored"`
	LogicalPages int64   `json:"logical_pages"`
	SavedFrac    float64 `json:"saved_frac"`
}

// AblationDedup checkpoints the same mostly-idle instance repeatedly;
// dedup absorbs the unchanged pages.
func AblationDedup(rounds int, wsBytes int64) (*AblationDedupResult, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Store)
	for i := 0; i < rounds; i++ {
		// Full checkpoints every round: without dedup this would store
		// the working set each time.
		if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{Full: true}); err != nil {
			return nil, err
		}
	}
	if err := m.O.Sync(ri.Group); err != nil {
		return nil, err
	}
	st := m.Objs.Stats()
	logical := st.LogicalBytes / 4096
	return &AblationDedupResult{
		Checkpoints:  rounds,
		BlocksStored: st.Blocks,
		LogicalPages: logical,
		SavedFrac:    1 - float64(st.Blocks)/float64(logical),
	}, nil
}

// newFS builds an Aurora FS on the machine's store.
func newFS(m *Machine) (*slsfs.FS, error) {
	fs := slsfs.New(m.Objs, 1000)
	m.O.AttachFS(fs)
	return fs, nil
}

// LazyRestoreResult contrasts eager, lazy, and lazy+prefetch restores
// of the same image.
type LazyRestoreResult struct {
	Eager        RestoreSplit `json:"eager"`
	Lazy         RestoreSplit `json:"lazy"`
	LazyPrefetch RestoreSplit `json:"lazy_prefetch"`
}

// AblationLazyRestore checkpoints a Redis instance to the store and
// restores the image three ways, reloading it before each.
func AblationLazyRestore(wsBytes int64) (*LazyRestoreResult, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Store)
	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
		return nil, err
	}
	// Checkpoint returns at resume; the store holds the image only once
	// the background flush lands.
	if err := m.O.Sync(ri.Group); err != nil {
		return nil, err
	}
	out := &LazyRestoreResult{}
	for _, c := range []struct {
		split *RestoreSplit
		opts  core.RestoreOpts
	}{
		{&out.Eager, core.RestoreOpts{}},
		{&out.Lazy, core.RestoreOpts{Lazy: true}},
		{&out.LazyPrefetch, core.RestoreOpts{Lazy: true, Prefetch: 64}},
	} {
		img, readTime, err := m.Store.Load(ri.Group.ID, 0)
		if err != nil {
			return nil, err
		}
		if *c.split, err = restore(m.O, img, readTime, c.opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExternalConsistencyResult is the latency the sls_fdctl escape hatch
// removes: output on a gated descriptor is released only once the
// checkpoint covering it is durable; ungated output is delivered at
// once.
type ExternalConsistencyResult struct {
	Gated   Micros `json:"gated_us"`
	Ungated Micros `json:"ungated_us"`
}

// AblationExternalConsistency writes one reply over a socket pair to
// an outside reader, gated and then ungated.
func AblationExternalConsistency() (*ExternalConsistencyResult, error) {
	m := NewMachine()
	defer m.Close()
	srv, err := m.K.Spawn(0, "srv")
	if err != nil {
		return nil, err
	}
	g, err := m.O.Persist("srv", srv)
	if err != nil {
		return nil, err
	}
	m.O.Attach(g, m.Store)
	if _, err := m.O.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		return nil, err
	}
	ext, err := m.K.Spawn(0, "client")
	if err != nil {
		return nil, err
	}
	a, b, err := m.K.NewSocketPair(srv)
	if err != nil {
		return nil, err
	}
	fd, err := srv.FDs.Get(b)
	if err != nil {
		return nil, err
	}
	extFD, _ := ext.FDs.Install(m.K, fd.File, kernel.ORdWr)
	buf := make([]byte, 8)

	// Gated: the reply waits for the next checkpoint to be durable.
	from := m.Clock.Now()
	if _, err := m.K.Write(srv, a, []byte("reply")); err != nil {
		return nil, err
	}
	if _, err := m.O.Checkpoint(g, core.CheckpointOpts{}); err != nil {
		return nil, err
	}
	if err := m.O.Sync(g); err != nil {
		return nil, err
	}
	if _, err := m.K.Read(ext, extFD, buf); err != nil {
		return nil, err
	}
	out := &ExternalConsistencyResult{Gated: Micros(m.Clock.Now() - from)}

	// Ungated (sls_fdctl off): delivery is immediate.
	if err := m.K.FDCtl(srv, a, false); err != nil {
		return nil, err
	}
	from = m.Clock.Now()
	if _, err := m.K.Write(srv, a, []byte("reply")); err != nil {
		return nil, err
	}
	if _, err := m.K.Read(ext, extFD, buf); err != nil {
		return nil, err
	}
	out.Ungated = Micros(m.Clock.Now() - from)
	return out, nil
}

// RecordReplayResult quantifies the §4 claim that checkpoints bound the
// record log: a replay needs only the inputs since the last checkpoint.
type RecordReplayResult struct {
	Inputs          int `json:"inputs"`
	CheckpointEvery int `json:"checkpoint_every"`
	LogHighWater    int `json:"log_high_water"`
}

// RecordReplay records inputs into a Redis instance's log and
// checkpoints every ckptEvery of them, tracking the longest the log
// grows.
func RecordReplay(inputs, ckptEvery int) (*RecordReplayResult, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, 4<<20)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Store)
	rec := rr.NewRecorder(m.API, ri.Group)
	out := &RecordReplayResult{Inputs: inputs, CheckpointEvery: ckptEvery}
	for i := 1; i <= inputs; i++ {
		rec.Record(rr.EvSocketData, []byte(fmt.Sprintf("input-%d", i)))
		out.LogHighWater = max(out.LogHighWater, rec.LogLen())
		if i%ckptEvery == 0 {
			if _, err := rec.Checkpoint(ri.Proc); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// PaperReport is every number of the paper's evaluation this
// reproduction regenerates, at the scaled working set: Tables 3 and 4,
// the §2–§4 claims, and the design ablations.
type PaperReport struct {
	WorkingSet          int64                      `json:"working_set"`
	Table3              *Table3Result              `json:"table3"`
	Table4              *Table4Result              `json:"table4"`
	Freq                *FreqResult                `json:"freq"`
	Density             *DensityResult             `json:"density"`
	Redis               *RedisPersistenceResult    `json:"redis_persistence"`
	CRIU                *CRIUResult                `json:"criu"`
	WarmStart           *WarmStartResult           `json:"warm_start"`
	RecordReplay        *RecordReplayResult        `json:"record_replay"`
	SharedCOW           *AblationCOWResult         `json:"ablation_shared_cow"`
	Dedup               *AblationDedupResult       `json:"ablation_dedup"`
	LazyRestore         *LazyRestoreResult         `json:"ablation_lazy_restore"`
	Interval            []*Table3Result            `json:"ablation_incremental_interval"`
	ExternalConsistency *ExternalConsistencyResult `json:"ablation_external_consistency"`
}

// Paper runs the whole evaluation with a Redis working set of wsBytes
// (the paper's is 2 GiB).
func Paper(wsBytes int64) (*PaperReport, error) {
	r := &PaperReport{WorkingSet: wsBytes}
	var err error
	if r.Table3, err = Table3(wsBytes, 0.125); err != nil {
		return nil, err
	}
	if r.Table4, err = Table4(wsBytes); err != nil {
		return nil, err
	}
	if r.Freq, err = Freq(100, 50, wsBytes/4); err != nil {
		return nil, err
	}
	if r.Density, err = Density(8); err != nil {
		return nil, err
	}
	if r.Redis, err = RedisPersistence(200, 8<<20); err != nil {
		return nil, err
	}
	if r.CRIU, err = CRIUCompare(wsBytes / 4); err != nil {
		return nil, err
	}
	if r.WarmStart, err = WarmStart(); err != nil {
		return nil, err
	}
	if r.RecordReplay, err = RecordReplay(100, 25); err != nil {
		return nil, err
	}
	if r.SharedCOW, err = AblationSharedCOW(); err != nil {
		return nil, err
	}
	if r.Dedup, err = AblationDedup(5, 16<<20); err != nil {
		return nil, err
	}
	if r.LazyRestore, err = AblationLazyRestore(16 << 20); err != nil {
		return nil, err
	}
	// Stop time scales with the dirty set, not the working set.
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		t3, err := Table3(wsBytes/2, frac)
		if err != nil {
			return nil, err
		}
		r.Interval = append(r.Interval, t3)
	}
	if r.ExternalConsistency, err = AblationExternalConsistency(); err != nil {
		return nil, err
	}
	return r, nil
}
