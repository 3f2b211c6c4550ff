package vm

import (
	"fmt"
	"testing"
)

// The per-layer microbenchmarks of the checkpoint data path (`make
// microbench`). The grid is resident pages × dirty pages: what the
// barrier costs must follow the second, not the first.

// cowFixture maps one object of `resident` touched pages, with a warm
// page table and `spare` frames on the free list.
func cowFixture(tb testing.TB, resident, spare int) (*PhysMem, *AddressSpace, *Mapping) {
	tb.Helper()
	pm := NewPhysMem(0)
	as := NewAddressSpace(pm, nil)
	m, err := as.MapAnon(int64(resident)*PageSize, ProtRead|ProtWrite, false, "heap")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < resident; i++ {
		if err := as.Write(m.Start+Addr(i*PageSize), []byte{byte(i)}); err != nil {
			tb.Fatal(err)
		}
	}
	frames := make([]*Frame, spare)
	for i := range frames {
		frames[i], _ = pm.Alloc()
	}
	for _, f := range frames {
		pm.Free(f)
	}
	return pm, as, m
}

// begin is BeginCheckpoint for an object whose barrier cannot fail: one
// with no restore source, or with one that serves every page.
func begin(o *Object, epoch uint64, full bool) *CheckpointSet {
	cs, err := o.BeginCheckpoint(epoch, full)
	if err != nil {
		panic(err)
	}
	return cs
}

// barrier runs both halves of a serialization barrier over m's object.
func barrier(as *AddressSpace, m *Mapping, epoch uint64, full bool) *CheckpointSet {
	cs := begin(m.Obj, epoch, full)
	as.ProtectObject(m.Obj, cs.Pages)
	return cs
}

// dirtyPages writes one byte to `dirty` pages spread over the object,
// a different set each round.
func dirtyPages(tb testing.TB, as *AddressSpace, m *Mapping, resident, dirty, round int) {
	stride := resident / dirty
	for j := 0; j < dirty; j++ {
		pg := (j*stride + round) % resident
		if err := as.Write(m.Start+Addr(pg*PageSize), []byte{byte(round)}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkCowFault(b *testing.B) {
	const pages = 1024
	pm, as, m := cowFixture(b, pages, pages)
	var cs *CheckpointSet
	one := []byte{0xFF}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pages == 0 {
			b.StopTimer()
			if cs != nil {
				cs.Release(pm)
			}
			cs = barrier(as, m, uint64(i/pages+1), true)
			b.StartTimer()
		}
		if err := as.Write(m.Start+Addr(i%pages*PageSize), one); err != nil {
			b.Fatal(err)
		}
	}
}

// barrierGrid runs fn once per incremental barrier of `dirty` pages on
// objects of 1k and 16k resident pages; fn times the half it measures.
func barrierGrid(b *testing.B, fn func(b *testing.B, as *AddressSpace, m *Mapping, epoch uint64) *CheckpointSet) {
	const dirty = 64
	for _, resident := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("resident=%d/dirty=%d", resident, dirty), func(b *testing.B) {
			pm, as, m := cowFixture(b, resident, dirty)
			barrier(as, m, 1, true).Release(pm)
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				dirtyPages(b, as, m, resident, dirty, i)
				fn(b, as, m, uint64(i+2)).Release(pm)
			}
		})
	}
}

func BenchmarkBeginCheckpoint(b *testing.B) {
	barrierGrid(b, func(b *testing.B, as *AddressSpace, m *Mapping, epoch uint64) *CheckpointSet {
		b.StartTimer()
		cs := begin(m.Obj, epoch, false)
		b.StopTimer()
		as.ProtectObject(m.Obj, cs.Pages)
		return cs
	})
}

func BenchmarkProtectObject(b *testing.B) {
	barrierGrid(b, func(b *testing.B, as *AddressSpace, m *Mapping, epoch uint64) *CheckpointSet {
		cs := begin(m.Obj, epoch, false)
		b.StartTimer()
		ops := as.ProtectObject(m.Obj, cs.Pages)
		b.StopTimer()
		if ops != int64(len(cs.Pages)) {
			b.Fatalf("protected %d PTEs for %d captured pages", ops, len(cs.Pages))
		}
		return cs
	})
}
