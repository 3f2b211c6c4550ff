package core

import (
	"fmt"
	"time"

	"aurora/internal/storage"
)

// CheckpointBreakdown is the stop-time decomposition the paper reports
// in Table 3. All durations are virtual (cost-model) time.
type CheckpointBreakdown struct {
	Epoch uint64
	Full  bool
	// MetadataCopy is the time spent serializing kernel object
	// metadata inside the barrier.
	MetadataCopy time.Duration
	// LazyDataCopy is the time spent applying COW tracking (bulk PTE
	// write-protection) inside the barrier — no data is copied.
	LazyDataCopy time.Duration
	// StopTime is the total time the application was paused:
	// metadata + lazy data copy + scheduler overhead.
	StopTime time.Duration
	// FlushTime is the background flush duration (the application is
	// already running again; external output is held until it ends).
	FlushTime time.Duration

	PagesCaptured int
	Objects       int
	MetaBytes     int
	PTEOps        int64

	// Shed reports that admission control skipped this barrier under
	// space pressure: no epoch was minted and nothing was captured or
	// queued. Epoch holds the group's (unchanged) current epoch.
	Shed bool
}

// String formats the breakdown like the paper's table rows.
func (b CheckpointBreakdown) String() string {
	mode := "full"
	if !b.Full {
		mode = "incremental"
	}
	if b.Shed {
		mode = "shed"
	}
	return fmt.Sprintf("ckpt[%s] metadata=%s data=%s stop=%s flush=%s pages=%d",
		mode, storage.Micros(b.MetadataCopy), storage.Micros(b.LazyDataCopy),
		storage.Micros(b.StopTime), storage.Micros(b.FlushTime), b.PagesCaptured)
}

// RestoreBreakdown is the restore-latency decomposition of Table 4.
type RestoreBreakdown struct {
	// ObjectStoreRead is the time to bring the checkpoint in from the
	// object store (zero for in-memory images).
	ObjectStoreRead time.Duration
	// MemoryState is the time to rebuild the memory hierarchy
	// (COW-sharing against the image; no page copies on the lazy
	// path).
	MemoryState time.Duration
	// MetadataState is the time to recreate every kernel object.
	MetadataState time.Duration
	// Total is the end-to-end restore latency.
	Total time.Duration

	Lazy          bool
	Prefetched    int
	PagesRestored int
	// Shared counts pages COW-shared with the image (no copy).
	Shared  int
	Objects int

	// FallbackFrom is the epoch the restore originally targeted when it
	// had to fall back to an older one (0 when no fallback happened).
	FallbackFrom uint64
	// Quarantined counts epochs skipped or newly poisoned on the way to
	// the epoch that finally restored.
	Quarantined int
	// Validated reports that the full integrity pre-pass ran.
	Validated bool
}

// String formats the breakdown like the paper's table rows.
func (b RestoreBreakdown) String() string {
	return fmt.Sprintf("restore read=%s mem=%s meta=%s total=%s lazy=%v",
		storage.Micros(b.ObjectStoreRead), storage.Micros(b.MemoryState),
		storage.Micros(b.MetadataState), storage.Micros(b.Total), b.Lazy)
}
