package bench

import (
	"fmt"
	"time"

	"aurora/internal/apps/faas"
	"aurora/internal/core"
)

// RestoreSplit is one column of Table 4: a restore's latency and the
// parts the paper breaks it into (ObjectStoreRead is zero for an
// in-memory image).
type RestoreSplit struct {
	ObjectStoreRead Micros `json:"object_store_read_us"`
	MemoryState     Micros `json:"memory_state_us"`
	MetadataState   Micros `json:"metadata_state_us"`
	Total           Micros `json:"total_us"`
}

// restore restores img with o and returns the latency split.
func restore(o *core.Orchestrator, img *core.Image, readTime time.Duration, opts core.RestoreOpts) (RestoreSplit, error) {
	_, bd, err := o.RestoreImage(img, readTime, opts)
	return RestoreSplit{Micros(bd.ObjectStoreRead), Micros(bd.MemoryState), Micros(bd.MetadataState), Micros(bd.Total)}, err
}

// FirstBarrier is the first checkpoint of a lazily restored group: a
// full barrier that names the pages it inherits from the store, and
// the flush that reads them.
type FirstBarrier struct {
	Stop  Micros `json:"stop_us"`
	Flush Micros `json:"flush_us"`
}

// Table4Result is the restore-time breakdown of Table 4: a Redis
// instance restored from an in-memory image, and a serverless
// workload restored from memory and from disk; and the same Redis
// restored lazily from the store, then checkpointed (RedisLazyCheckpoint:
// the first barrier after a lazy restore, and its flush).
type Table4Result struct {
	WorkingSet          int64        `json:"working_set"`
	RedisMem            RestoreSplit `json:"redis_memory"`
	ServerlessMem       RestoreSplit `json:"serverless_memory"`
	ServerlessDisk      RestoreSplit `json:"serverless_disk"`
	RedisLazyCheckpoint FirstBarrier `json:"redis_store_lazy_then_checkpoint"`
}

// Table4 reproduces Table 4.
func Table4(wsBytes int64) (*Table4Result, error) {
	out := &Table4Result{WorkingSet: wsBytes}

	// --- Redis restored from an in-memory image ---
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return nil, err
	}
	m.O.Attach(ri.Group, m.Mem)
	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
		return nil, err
	}
	// Checkpoint returns at resume; wait for the background flush so the
	// memory backend holds the image before we load it back.
	if err := m.O.Sync(ri.Group); err != nil {
		return nil, err
	}
	img, _, err := m.Mem.Load(ri.Group.ID, 0)
	if err != nil {
		return nil, err
	}
	if out.RedisMem, err = restore(m.O, img, 0, core.RestoreOpts{Lazy: true}); err != nil {
		return nil, err
	}
	if out.RedisLazyCheckpoint, err = lazyThenCheckpoint(wsBytes); err != nil {
		return nil, err
	}

	// --- Serverless workload: hello-world function runtime ---
	fm := NewMachine()
	defer fm.Close()
	rt := faas.NewRuntime(fm.O, fm.Store, fm.Mem)
	if _, err := rt.BuildBase(); err != nil {
		return nil, err
	}
	fn, err := rt.Deploy("hello", []byte("bench"))
	if err != nil {
		return nil, err
	}
	// From memory.
	fimg, _, err := fm.Mem.Load(fn.Group.ID, 0)
	if err != nil {
		return nil, err
	}
	if out.ServerlessMem, err = restore(fm.O, fimg, 0, core.RestoreOpts{Lazy: true}); err != nil {
		return nil, err
	}
	// From disk (the object store read appears).
	dimg, readTime, err := fm.Store.Load(fn.Group.ID, 0)
	if err != nil {
		return nil, err
	}
	if out.ServerlessDisk, err = restore(fm.O, dimg, readTime, core.RestoreOpts{Lazy: true}); err != nil {
		return nil, err
	}
	return out, nil
}

// lazyThenCheckpoint restores a Redis of wsBytes lazily from the store
// and checkpoints the restored group once.
func lazyThenCheckpoint(wsBytes int64) (FirstBarrier, error) {
	m := NewMachine()
	defer m.Close()
	ri, err := NewRedisInstance(m, wsBytes)
	if err != nil {
		return FirstBarrier{}, err
	}
	m.O.Attach(ri.Group, m.Store)
	if _, err := m.O.Checkpoint(ri.Group, core.CheckpointOpts{}); err != nil {
		return FirstBarrier{}, err
	}
	if err := m.O.Sync(ri.Group); err != nil {
		return FirstBarrier{}, err
	}
	ng, _, err := m.O.Restore(ri.Group, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		return FirstBarrier{}, err
	}
	if _, err := m.O.Checkpoint(ng, core.CheckpointOpts{}); err != nil {
		return FirstBarrier{}, err
	}
	if err := m.O.Sync(ng); err != nil {
		return FirstBarrier{}, err
	}
	bd := ng.Breakdowns()[0]
	return FirstBarrier{Stop: Micros(bd.StopTime), Flush: Micros(bd.FlushTime)}, nil
}

// Print renders the result like the paper's Table 4.
func (r *Table4Result) Print() {
	fmt.Printf("Table 4: restore time, Redis working set %s + serverless function\n", fmtBytes(r.WorkingSet))
	fmt.Printf("  %-20s %14s %14s %14s\n", "Restore", "Redis", "Serverless", "Serverless")
	fmt.Printf("  %-20s %14s %14s %14s\n", "Backend", "Memory", "Memory", "Disk")
	osr := func(b RestoreSplit) string {
		if b.ObjectStoreRead == 0 {
			return "N/A"
		}
		return b.ObjectStoreRead.String()
	}
	fmt.Printf("  %-20s %14s %14s %14s\n", "Object Store Read",
		osr(r.RedisMem), osr(r.ServerlessMem), osr(r.ServerlessDisk))
	fmt.Printf("  %-20s %14s %14s %14s\n", "Memory state",
		r.RedisMem.MemoryState, r.ServerlessMem.MemoryState, r.ServerlessDisk.MemoryState)
	fmt.Printf("  %-20s %14s %14s %14s\n", "Metadata state",
		r.RedisMem.MetadataState, r.ServerlessMem.MetadataState, r.ServerlessDisk.MetadataState)
	fmt.Printf("  %-20s %14s %14s %14s\n", "Total latency",
		r.RedisMem.Total, r.ServerlessMem.Total, r.ServerlessDisk.Total)
	fmt.Printf("  Redis restored lazily from the store, then checkpointed: stop %s, flush %s\n\n",
		r.RedisLazyCheckpoint.Stop, r.RedisLazyCheckpoint.Flush)
}
