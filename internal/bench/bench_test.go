package bench

import (
	"testing"
	"time"
)

// Scaled default working set for tests (the CLI can run the full 2 GiB).
const testWS = 64 << 20

func TestTable3Shape(t *testing.T) {
	r, err := Table3(testWS, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: metadata roughly equal; lazy data copy several times
	// faster incrementally; incremental stop well under full stop.
	mr := float64(r.Full.MetadataCopy) / float64(r.Incr.MetadataCopy)
	if mr < 0.8 || mr > 1.6 {
		t.Fatalf("metadata ratio = %.2f", mr)
	}
	dr := float64(r.Full.LazyDataCopy) / float64(r.Incr.LazyDataCopy)
	if dr < 3 {
		t.Fatalf("data copy ratio = %.2f, want >= 3 (paper: ~7)", dr)
	}
	if r.Incr.StopTime >= r.Full.StopTime {
		t.Fatal("incremental stop not below full")
	}
	if r.Incr.StopTime > Micros(2*time.Millisecond) {
		t.Fatalf("incremental stop %v above the sub-ms regime", r.Incr.StopTime)
	}
}

func TestTable4Shape(t *testing.T) {
	r, err := Table4(testWS)
	if err != nil {
		t.Fatal(err)
	}
	// Memory restores have no store read; disk restores do.
	if r.RedisMem.ObjectStoreRead != 0 || r.ServerlessMem.ObjectStoreRead != 0 {
		t.Fatal("memory restores must not read the store")
	}
	if r.ServerlessDisk.ObjectStoreRead <= 0 {
		t.Fatal("disk restore must read the store")
	}
	// Redis (big) memory state above serverless (small) memory state.
	if r.RedisMem.MemoryState <= r.ServerlessMem.MemoryState {
		t.Fatal("2 GiB-class memory state should exceed the hello-world's")
	}
	// Disk restore's memory/metadata slightly cheaper (implicit
	// restoration), total higher (read dominates).
	if r.ServerlessDisk.MemoryState >= r.ServerlessMem.MemoryState {
		t.Fatal("disk memory state should undercut memory restore")
	}
	if r.ServerlessDisk.MetadataState >= r.ServerlessMem.MetadataState {
		t.Fatal("disk metadata state should undercut memory restore")
	}
	if r.ServerlessDisk.Total <= r.ServerlessMem.Total {
		t.Fatal("disk total should exceed memory total")
	}
	// Everything stays sub-millisecond-class at the paper's scale.
	if r.ServerlessMem.Total > Micros(time.Millisecond) || r.ServerlessDisk.Total > Micros(2*time.Millisecond) {
		t.Fatalf("serverless restores too slow: mem=%v disk=%v",
			r.ServerlessMem.Total, r.ServerlessDisk.Total)
	}
}

func TestFreqClaim(t *testing.T) {
	r, err := Freq(100, 20, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Overhead > 0.2 {
		t.Fatalf("100 Hz overhead = %.1f%%, not modest", r.Overhead*100)
	}
	if r.MaxStop > Micros(5*time.Millisecond) {
		t.Fatalf("max stop %v breaks the 10 ms period", r.MaxStop)
	}
}

func TestDensityClaim(t *testing.T) {
	r, err := Density(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.BytesPerFn*20 > r.NaiveBytesPerFn {
		t.Fatalf("per-function cost %d vs naive %d: dedup not delivering density",
			r.BytesPerFn, r.NaiveBytesPerFn)
	}
}

func TestRedisPersistenceClaim(t *testing.T) {
	r, err := RedisPersistence(200, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.AuroraPerOp >= r.AOFPerOp {
		t.Fatalf("Aurora per-op %v not below AOF %v", r.AuroraPerOp, r.AOFPerOp)
	}
	if r.AuroraCkpt >= r.ForkSnapshot {
		t.Fatalf("sls_checkpoint %v not below fork snapshot %v", r.AuroraCkpt, r.ForkSnapshot)
	}
}

func TestCRIUClaim(t *testing.T) {
	r, err := CRIUCompare(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.CRIUStop < 10*r.AuroraStop {
		t.Fatalf("CRIU %v vs Aurora %v: expected >=10x", r.CRIUStop, r.AuroraStop)
	}
}

func TestWarmStartClaim(t *testing.T) {
	r, err := WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if r.WarmMem >= r.Cold || r.WarmDisk >= r.Cold {
		t.Fatalf("warm starts (mem %v, disk %v) not below cold %v", r.WarmMem, r.WarmDisk, r.Cold)
	}
}

func TestAblationSharedCOW(t *testing.T) {
	r, err := AblationSharedCOW()
	if err != nil {
		t.Fatal(err)
	}
	if r.SharedFaults != 1 {
		t.Fatalf("COW faults = %d, want exactly 1 for one page write", r.SharedFaults)
	}
}

func TestAblationDedup(t *testing.T) {
	r, err := AblationDedup(5, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.SavedFrac < 0.5 {
		t.Fatalf("dedup saved only %.0f%% across identical checkpoints", r.SavedFrac*100)
	}
}

func TestPipelineStopBelowFullLatency(t *testing.T) {
	r, err := PipelineKVLSM(500, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints == 0 {
		t.Fatal("workload produced no checkpoints")
	}
	// The Table-3 stop-time breakdown must exclude flush time: with the
	// background pipeline, what the application pays (stop) is strictly
	// below the full checkpoint+flush latency.
	if r.TotalFlush <= 0 {
		t.Fatalf("no flush time recorded across %d checkpoints", r.Checkpoints)
	}
	if r.TotalStop >= r.TotalFull {
		t.Fatalf("stop time %v not strictly below checkpoint+flush latency %v", r.TotalStop, r.TotalFull)
	}
	if r.MaxStop >= r.MaxFull {
		t.Fatalf("worst stop %v not below worst checkpoint+flush %v", r.MaxStop, r.MaxFull)
	}
}
