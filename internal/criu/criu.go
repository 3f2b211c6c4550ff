// Package criu implements a CRIU-style checkpointer as the comparison
// baseline for Aurora. It deliberately reproduces the architecture the
// paper contrasts against:
//
//   - state is scraped at the syscall boundary, one process at a
//     time, rather than captured inside the kernel as first-class
//     objects;
//   - memory is copied eagerly while the application is stopped (no
//     COW, no incremental tracking — every checkpoint copies the
//     whole address space);
//   - images are written synchronously before the application resumes
//     (no external-consistency machinery to make background flushing
//     safe); and
//   - shared resources are duplicated per process (a page shared by N
//     processes is copied and stored N times).
//
// The result is correct but has exactly the overhead profile that
// makes CRIU usable for occasional migration and prohibitive for
// transparent persistence at 100 Hz.
package criu

import (
	"fmt"
	"time"

	"aurora/internal/codec"
	"aurora/internal/kernel"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// Breakdown reports a CRIU checkpoint's costs.
type Breakdown struct {
	// StopTime covers the whole operation: the application is frozen
	// until the image is on disk.
	StopTime time.Duration
	// MemoryCopy is the eager page-copy portion.
	MemoryCopy time.Duration
	// WriteTime is the synchronous device write.
	WriteTime time.Duration
	// PagesCopied counts copied pages, including duplicates of shared
	// pages.
	PagesCopied int
	// Bytes is the image size on disk.
	Bytes int64
}

// Checkpointer scrapes process trees into image files on a device.
type Checkpointer struct {
	K   *kernel.Kernel
	Dev storage.Device

	nextOff int64
	images  map[int][]imageRef // pid -> checkpoints
}

type imageRef struct {
	off  int64
	size int64
}

// New creates a checkpointer writing to dev.
func New(k *kernel.Kernel, dev storage.Device) *Checkpointer {
	return &Checkpointer{K: k, Dev: dev, images: make(map[int][]imageRef)}
}

// Checkpoint freezes the process tree rooted at p, scrapes each
// process independently, and writes one image per process
// synchronously. The application stays frozen throughout.
func (c *Checkpointer) Checkpoint(p *kernel.Process) (Breakdown, error) {
	tree := c.K.ProcessTree(p)
	clock := c.K.Clock
	costs := c.K.Costs
	var bd Breakdown
	total := clock.Watch()

	for _, proc := range tree {
		c.K.StopProcess(proc)
	}
	defer func() {
		for _, proc := range tree {
			c.K.ResumeProcess(proc)
		}
	}()

	for _, proc := range tree {
		// Scrape at the syscall boundary: walk /proc-style views of
		// the address space, copying every resident page.
		e := codec.NewEncoder()
		e.I64(int64(proc.PID))
		e.Str(proc.Name)
		maps := proc.Space.Mappings()
		e.U64(uint64(len(maps)))

		memSW := clock.Watch()
		for _, m := range maps {
			e.U64(uint64(m.Start))
			e.U64(uint64(m.End))
			e.Str(m.Name)
			// Every resident page is copied while stopped — including
			// pages of objects shared with other processes in the
			// tree, which are copied again for each process.
			pages := m.Obj.ResidentPages()
			e.U64(uint64(len(pages)))
			buf := make([]byte, vm.PageSize)
			for _, idx := range pages {
				f := m.Obj.Lookup(idx)
				if f == nil {
					continue
				}
				copy(buf, f.Data)
				e.I64(idx)
				e.Bytes2(buf)
				bd.PagesCopied++
				clock.Advance(costs.PageCopy)
			}
		}
		// Descriptor scraping: numbers and kinds only; reconstructing
		// the objects behind them is the receiving side's problem
		// (this asymmetry is why CRIU's unix socket support took
		// seven years).
		nums := proc.FDs.Numbers()
		e.U64(uint64(len(nums)))
		for _, n := range nums {
			fd, _ := proc.FDs.Get(n)
			e.I64(int64(n))
			e.U64(uint64(fd.File.Kind()))
		}
		bd.MemoryCopy += memSW.Elapsed()

		// Synchronous write: the process stays frozen until the image
		// is durable.
		img := e.Bytes()
		wSW := clock.Watch()
		if _, err := c.Dev.WriteAt(img, c.nextOff); err != nil {
			return bd, fmt.Errorf("criu: writing image: %w", err)
		}
		if _, err := c.Dev.Sync(); err != nil {
			return bd, err
		}
		bd.WriteTime += wSW.Elapsed()
		c.images[proc.PID] = append(c.images[proc.PID], imageRef{off: c.nextOff, size: int64(len(img))})
		c.nextOff += int64(len(img)) + vm.PageSize
		bd.Bytes += int64(len(img))
	}
	bd.StopTime = total.Elapsed()
	return bd, nil
}

// ImageCount reports checkpoints stored for a pid.
func (c *Checkpointer) ImageCount(pid int) int { return len(c.images[pid]) }

// ImageBytes reports the total bytes stored for a pid.
func (c *Checkpointer) ImageBytes(pid int) int64 {
	var n int64
	for _, ref := range c.images[pid] {
		n += ref.size
	}
	return n
}

// Restore rebuilds the newest image of pid as a fresh process. Only
// private anonymous memory is reconstructed — exactly the fidelity gap
// the paper criticizes: IPC objects, shared-memory relationships and
// kernel state do not round-trip through a syscall-boundary scrape.
func (c *Checkpointer) Restore(pid int, container int) (*kernel.Process, error) {
	refs := c.images[pid]
	if len(refs) == 0 {
		return nil, fmt.Errorf("criu: no image for pid %d", pid)
	}
	ref := refs[len(refs)-1]
	buf := make([]byte, ref.size)
	if _, err := c.Dev.ReadAt(buf, ref.off); err != nil {
		return nil, err
	}
	d := codec.NewDecoder(buf)
	d.I64() // pid
	name := d.Str()
	p, err := c.K.Spawn(container, name)
	if err != nil {
		return nil, err
	}
	nMaps := d.U64()
	for i := uint64(0); i < nMaps && d.Err() == nil; i++ {
		start := vm.Addr(d.U64())
		end := vm.Addr(d.U64())
		mname := d.Str()
		// Reuse the spawned layout where ranges collide; otherwise map.
		if p.Space.Find(start) == nil {
			if _, err := p.Space.MapAnonAt(start, int64(end-start), vm.ProtRead|vm.ProtWrite, false, mname); err != nil {
				return nil, err
			}
		}
		nPages := d.U64()
		for j := uint64(0); j < nPages && d.Err() == nil; j++ {
			idx := d.I64()
			data := d.Bytes2()
			if err := p.WriteMem(start+vm.Addr(idx<<vm.PageShift), data); err != nil {
				return nil, err
			}
			c.K.Clock.Advance(c.K.Costs.PageCopy)
		}
	}
	if err := d.Finish("criu image"); err != nil {
		return nil, err
	}
	return p, nil
}
