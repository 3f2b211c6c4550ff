// Package bench implements the experiment harness: one function per
// table, figure, or quantitative claim in the paper's evaluation, and
// the seeded sweeps behind the fault, chaos, space, fleet, replication
// and control-plane matrices. Each returns a report type whose JSON
// tags are the keys of its committed BENCH_*.json baseline: the root
// package's baseline table (bench_test.go) writes and checks those
// files, and cmd/aurora-bench prints the paper's tables.
//
// Workloads run on the simulated machine; reported times are virtual
// (cost-model) microseconds. See DESIGN.md §5 for calibration and
// EXPERIMENTS.md for paper-vs-measured numbers.
package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"aurora/internal/apps/redis"
	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Micros is a span of virtual time. It marshals as (fractional)
// microseconds, the unit every BENCH_*.json reports time in, and prints
// the way the paper's tables do.
type Micros time.Duration

func (d Micros) String() string { return storage.Micros(time.Duration(d)) }

// MarshalJSON writes d in microseconds.
func (d Micros) MarshalJSON() ([]byte, error) { return json.Marshal(float64(d) / 1e3) }

// Machine is one fully assembled simulated host: the paper's testbed
// (four Optane NVMe drives) in miniature.
type Machine struct {
	Clock *storage.Clock
	K     *kernel.Kernel
	O     *core.Orchestrator
	API   *core.API
	Objs  *objstore.Store
	Store *core.StoreBackend
	Mem   *core.MemoryBackend
}

// NewMachine boots the standard experiment machine.
func NewMachine() *Machine {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	array := storage.NewOptaneArray(4, clock)
	objs := objstore.Create(array, clock)
	return &Machine{
		Clock: clock,
		K:     k,
		O:     o,
		API:   core.NewAPI(o),
		Objs:  objs,
		Store: core.NewStoreBackend(objs, k.Mem, clock),
		Mem:   core.NewMemoryBackend(k.Mem, 8),
	}
}

// Close stops the machine's flush workers, which would otherwise keep
// the whole machine — its memory, store and device — reachable for the
// life of the process.
func (m *Machine) Close() { m.O.Close() }

// RedisInstance is the Table 3/4 workload: a mini-Redis populated to a
// working-set size.
type RedisInstance struct {
	M     *Machine
	Proc  *kernel.Process
	Store *redis.Store
	Group *core.Group
	Pages int64
}

// NewRedisInstance spawns and populates a mini-Redis whose resident
// working set is wsBytes. A few thousand keys go through the real SET
// path for object-graph realism; the rest of the arena is touched in
// bulk so multi-GiB working sets stay tractable.
func NewRedisInstance(m *Machine, wsBytes int64) (*RedisInstance, error) {
	arena := wsBytes + (wsBytes / 4)
	buckets := 4096
	p, st, err := redis.Spawn(m.K, 0, "/redis.sock", buckets, arena, nil)
	if err != nil {
		return nil, err
	}
	// Real keys through the data path.
	keys := 2000
	if wsBytes < 8<<20 {
		keys = int(wsBytes / (8 << 10))
	}
	if err := redis.PopulateDirect(st, keys, 1024); err != nil {
		return nil, err
	}
	// Bulk-touch the remaining working set.
	used, err := st.UsedBytes()
	if err != nil {
		return nil, err
	}
	if remaining := wsBytes - used; remaining > 0 {
		chunk := make([]byte, 1<<20)
		for i := range chunk {
			chunk[i] = byte(i * 13)
		}
		base := p.HeapBase() + vm.Addr(used)
		for off := int64(0); off < remaining; off += int64(len(chunk)) {
			n := int64(len(chunk))
			if off+n > remaining {
				n = remaining - off
			}
			if err := p.WriteMem(base+vm.Addr(off), chunk[:n]); err != nil {
				return nil, err
			}
		}
	}
	g, err := m.O.Persist("redis", p)
	if err != nil {
		return nil, err
	}
	return &RedisInstance{M: m, Proc: p, Store: st, Group: g, Pages: wsBytes >> vm.PageShift}, nil
}

// DirtyFraction rewrites the given fraction of the working set,
// spread uniformly, to set up an incremental checkpoint.
func (ri *RedisInstance) DirtyFraction(frac float64) error {
	if frac <= 0 {
		return nil
	}
	step := int64(1 / frac)
	if step < 1 {
		step = 1
	}
	for pg := int64(0); pg < ri.Pages; pg += step {
		if err := ri.Proc.WriteMem(ri.Proc.HeapBase()+vm.Addr(pg<<vm.PageShift), []byte{0xd1}); err != nil {
			return err
		}
	}
	return nil
}

// StopSplit is one column of Table 3: a checkpoint's stop time, the
// two parts the paper breaks it into, and the background flush after it.
type StopSplit struct {
	MetadataCopy  Micros `json:"metadata_copy_us"`
	LazyDataCopy  Micros `json:"lazy_data_copy_us"`
	StopTime      Micros `json:"stop_us"`
	FlushTime     Micros `json:"flush_us"`
	PagesCaptured int    `json:"pages_captured"`
}

func stopSplit(bd core.CheckpointBreakdown) StopSplit {
	return StopSplit{Micros(bd.MetadataCopy), Micros(bd.LazyDataCopy), Micros(bd.StopTime), Micros(bd.FlushTime), bd.PagesCaptured}
}

// Table3Result is the stop-time breakdown comparison of Table 3.
type Table3Result struct {
	WorkingSet int64     `json:"working_set"`
	DirtyFrac  float64   `json:"dirty_frac"`
	Full       StopSplit `json:"full"`
	Incr       StopSplit `json:"incremental"`
}

// Table3 reproduces Table 3: checkpoint a Redis instance with working
// set wsBytes in full mode, dirty dirtyFrac of it, and checkpoint
// incrementally.
func Table3(wsBytes int64, dirtyFrac float64) (*Table3Result, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Store)

	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{Full: true}); err != nil {
		return nil, err
	}
	if err := ri.DirtyFraction(dirtyFrac); err != nil {
		return nil, err
	}
	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
		return nil, err
	}
	// Checkpoint's breakdown holds stop time only; flush times are
	// patched into the group's records when the background flusher
	// retires each epoch. Sync and read those so the report carries both.
	if err := m.O.Sync(ri.Group); err != nil {
		return nil, err
	}
	bds := ri.Group.Breakdowns()
	return &Table3Result{WorkingSet: wsBytes, DirtyFrac: dirtyFrac,
		Full: stopSplit(bds[len(bds)-2]), Incr: stopSplit(bds[len(bds)-1])}, nil
}

// Print renders the result like the paper's Table 3.
func (r *Table3Result) Print() {
	fmt.Printf("Table 3: stop time, Redis working set %s (dirty %.0f%%)\n",
		fmtBytes(r.WorkingSet), r.DirtyFrac*100)
	fmt.Printf("  %-24s %14s %14s\n", "Checkpoint", "Full", "Incremental")
	fmt.Printf("  %-24s %14s %14s\n", "Metadata copy", r.Full.MetadataCopy, r.Incr.MetadataCopy)
	fmt.Printf("  %-24s %14s %14s\n", "Lazy data copy", r.Full.LazyDataCopy, r.Incr.LazyDataCopy)
	fmt.Printf("  %-24s %14s %14s\n", "Application stop time", r.Full.StopTime, r.Incr.StopTime)
	fmt.Printf("  (pages captured: full=%d incremental=%d; background flush: %s / %s)\n\n",
		r.Full.PagesCaptured, r.Incr.PagesCaptured, r.Full.FlushTime, r.Incr.FlushTime)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%d GiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%d MiB", n>>20)
	default:
		return fmt.Sprintf("%d KiB", n>>10)
	}
}
