package objstore

import (
	"encoding/binary"
	"fmt"
	"testing"

	"aurora/internal/storage"
)

// The per-layer microbenchmarks of the store's page paths (`make
// microbench`). DropEpoch's grid is resident pages × dirty pages: the
// merge-forward of a large clean record under a small delta must cost
// what the delta holds.

// benchPages fills `n` page buffers, spread over an object of
// `resident` pages, with contents unique to (epoch, page).
func benchPages(bufs [][]byte, resident int, epoch uint64) map[int64][]byte {
	pages := make(map[int64][]byte, len(bufs))
	stride := resident / len(bufs)
	for j, buf := range bufs {
		pg := int64((j*stride + int(epoch)) % resident)
		binary.LittleEndian.PutUint64(buf, epoch)
		binary.LittleEndian.PutUint64(buf[8:], uint64(pg))
		pages[pg] = buf
	}
	return pages
}

func pageBufs(n int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, BlockSize)
	}
	return bufs
}

func benchStore() *Store {
	clock := storage.NewClock()
	return Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
}

func BenchmarkDropEpoch(b *testing.B) {
	const group, oid, dirty, batch = 1, 1, 64, 128
	for _, resident := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("resident=%d/dirty=%d", resident, dirty), func(b *testing.B) {
			s := benchStore()
			put := func(epoch uint64, pages map[int64][]byte) {
				if _, err := s.PutRecord(group, oid, epoch, 1, epoch == 1, nil, pages, nil); err != nil {
					b.Fatal(err)
				}
				s.PutManifest(&Manifest{Group: group, Epoch: epoch, Prev: epoch - 1,
					Records: []RecordKey{{group, oid, epoch}}})
			}
			put(1, benchPages(pageBufs(resident), resident, 1))
			bufs := pageBufs(dirty)
			oldest, newest := uint64(1), uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if oldest == newest {
					// History ran out: queue another batch of deltas.
					b.StopTimer()
					for j := 0; j < batch; j++ {
						newest++
						put(newest, benchPages(bufs, resident, newest))
					}
					b.StartTimer()
				}
				// The oldest record holds the whole object; its heir
				// holds `dirty` pages.
				if err := s.DropEpoch(group, oldest); err != nil {
					b.Fatal(err)
				}
				oldest++
			}
			b.StopTimer()
			if err := s.AuditReachability(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkPutRecord(b *testing.B) {
	const group, oid, dirty = 1, 1, 64
	s := benchStore()
	bufs := pageBufs(dirty)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		epoch := uint64(i + 1)
		pages := benchPages(bufs, 1<<10, epoch)
		s.DeleteRecord(group, oid, epoch-1)
		b.StartTimer()
		if _, err := s.PutRecord(group, oid, epoch, 1, false, nil, pages, nil); err != nil {
			b.Fatal(err)
		}
	}
}
