package storage

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock should start at 0, got %v", c.Now())
	}
	c.Advance(5 * time.Microsecond)
	if got := c.Now(); got != 5*time.Microsecond {
		t.Fatalf("Now() = %v, want 5µs", got)
	}
	c.Advance(-time.Second)
	if got := c.Now(); got != 5*time.Microsecond {
		t.Fatalf("negative advance moved clock: %v", got)
	}
}

func TestClockSetClampsNegative(t *testing.T) {
	c := NewClock()
	c.Set(-time.Second)
	if c.Now() != 0 {
		t.Fatalf("Set(-1s) should clamp to 0, got %v", c.Now())
	}
	c.Set(time.Millisecond)
	if c.Now() != time.Millisecond {
		t.Fatalf("Set(1ms) got %v", c.Now())
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	sw := c.Watch()
	c.Advance(42 * time.Microsecond)
	if got := sw.Elapsed(); got != 42*time.Microsecond {
		t.Fatalf("Elapsed() = %v, want 42µs", got)
	}
}

func TestMicrosFormat(t *testing.T) {
	if got := Micros(5145900 * time.Nanosecond); got != "5145.9 µs" {
		t.Fatalf("Micros = %q", got)
	}
}

func TestMemDeviceReadWrite(t *testing.T) {
	c := NewClock()
	d := NewMemDevice(ParamsDRAM, c)
	data := []byte("hello single level store")
	if _, err := d.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestMemDeviceSparseReadsZero(t *testing.T) {
	d := NewMemDevice(ParamsDRAM, NewClock())
	got := make([]byte, 64)
	for i := range got {
		got[i] = 0xff
	}
	if _, err := d.ReadAt(got, 1<<40); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d of unwritten region = %#x, want 0", i, b)
		}
	}
}

func TestMemDeviceCrossBlockWrite(t *testing.T) {
	p := ParamsDRAM
	p.BlockSize = 8
	d := NewMemDevice(p, NewClock())
	data := []byte("0123456789abcdef0123")
	if _, err := d.WriteAt(data, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-block read %q != %q", got, data)
	}
}

func TestMemDeviceBadOffset(t *testing.T) {
	d := NewMemDevice(ParamsDRAM, NewClock())
	if _, err := d.WriteAt([]byte{1}, -1); err != ErrBadOffset {
		t.Fatalf("WriteAt(-1) err = %v, want ErrBadOffset", err)
	}
	if _, err := d.ReadAt([]byte{1}, -1); err != ErrBadOffset {
		t.Fatalf("ReadAt(-1) err = %v, want ErrBadOffset", err)
	}
}

func TestMemDeviceCapacity(t *testing.T) {
	p := ParamsDRAM
	p.Capacity = 8192
	p.BlockSize = 4096
	d := NewMemDevice(p, NewClock())
	if _, err := d.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{1}, 1<<20); err != ErrOutOfSpace {
		t.Fatalf("over-capacity write err = %v, want ErrOutOfSpace", err)
	}
}

func TestMemDeviceClosed(t *testing.T) {
	d := NewMemDevice(ParamsDRAM, NewClock())
	d.Close()
	if _, err := d.WriteAt([]byte{1}, 0); err != ErrClosed {
		t.Fatalf("write after close err = %v", err)
	}
	if _, err := d.ReadAt([]byte{1}, 0); err != ErrClosed {
		t.Fatalf("read after close err = %v", err)
	}
	if _, err := d.Sync(); err != ErrClosed {
		t.Fatalf("sync after close err = %v", err)
	}
}

func TestMemDeviceDiscard(t *testing.T) {
	p := ParamsDRAM
	p.BlockSize = 4096
	d := NewMemDevice(p, NewClock())
	if _, err := d.WriteAt(make([]byte, 3*4096), 0); err != nil {
		t.Fatal(err)
	}
	if d.Resident() != 3*4096 {
		t.Fatalf("resident = %d", d.Resident())
	}
	d.Discard(4096, 4096)
	if d.Resident() != 2*4096 {
		t.Fatalf("resident after discard = %d, want %d", d.Resident(), 2*4096)
	}
	// Partial-block discard zeroes without releasing.
	if _, err := d.WriteAt([]byte{0xaa}, 10); err != nil {
		t.Fatal(err)
	}
	d.Discard(10, 1)
	b := make([]byte, 1)
	if _, err := d.ReadAt(b, 10); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatalf("partial discard did not zero byte: %#x", b[0])
	}
}

func TestDeviceCostModel(t *testing.T) {
	c := NewClock()
	d := NewMemDevice(ParamsOptaneNVMe, c)
	cost, err := d.WriteAt(make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 2000 MiB/s = 500 µs, plus 10 µs latency.
	want := 10*time.Microsecond + 500*time.Microsecond
	if cost != want {
		t.Fatalf("write cost = %v, want %v", cost, want)
	}
	if c.Now() != want {
		t.Fatalf("clock advanced %v, want %v", c.Now(), want)
	}
}

func TestDeviceStats(t *testing.T) {
	d := NewMemDevice(ParamsDRAM, NewClock())
	d.WriteAt(make([]byte, 100), 0)
	d.ReadAt(make([]byte, 50), 0)
	d.Sync()
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.Syncs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesWritten != 100 || s.BytesRead != 50 {
		t.Fatalf("byte counters = %+v", s)
	}
	if s.Busy <= 0 {
		t.Fatalf("busy time not accumulated")
	}
}

func TestArrayStriping(t *testing.T) {
	c := NewClock()
	a := NewOptaneArray(4, c)
	data := make([]byte, 300<<10) // spans several 64 KiB stripes
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := a.WriteAt(data, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped read-back mismatch")
	}
	s := a.Stats()
	if s.BytesWritten != int64(len(data)) {
		t.Fatalf("array bytes written = %d, want %d", s.BytesWritten, len(data))
	}
}

func TestArrayAggregateParams(t *testing.T) {
	a := NewOptaneArray(4, NewClock())
	p := a.Params()
	if p.ReadBW != ParamsOptaneNVMe.ReadBW*4 {
		t.Fatalf("aggregate read BW = %d", p.ReadBW)
	}
	if p.QueueDepth != ParamsOptaneNVMe.QueueDepth*4 {
		t.Fatalf("aggregate queue depth = %d", p.QueueDepth)
	}
}

func TestArraySingleMemberError(t *testing.T) {
	if _, err := NewArray(nil, 0); err == nil {
		t.Fatal("NewArray(nil) should fail")
	}
}

func TestArraySync(t *testing.T) {
	a := NewOptaneArray(2, NewClock())
	if _, err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Syncs != 2 {
		t.Fatalf("syncs = %d, want 2", a.Stats().Syncs)
	}
}

// TestArrayReturnsWhatItBills: every member of an array bills the one
// clock for its own chunk, so an operation that touches several members
// advances the clock by the sum of their costs, and that sum — not the
// slowest member's share — is the duration it reports.
func TestArrayReturnsWhatItBills(t *testing.T) {
	c := NewClock()
	a := NewOptaneArray(4, c)
	buf := make([]byte, 192<<10) // three 64 KiB stripes, on three members
	bufs := make([][]byte, 64)
	offs := make([]int64, 64)
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
		offs[i] = int64(i) * 16 << 10 // four blocks to a stripe: every member
	}
	ops := []struct {
		name string
		op   func() (time.Duration, error)
	}{
		{"WriteAt 192 KiB", func() (time.Duration, error) { return a.WriteAt(buf, 0) }},
		{"ReadAt 192 KiB", func() (time.Duration, error) { return a.ReadAt(buf, 0) }},
		{"ChargeRead 192 KiB", func() (time.Duration, error) { return a.ChargeRead(len(buf), 0) }},
		{"ReadBatch of 64 blocks", func() (time.Duration, error) { return a.ReadBatch(bufs, offs) }},
		{"Sync", a.Sync},
	}
	for _, o := range ops {
		before := c.Now()
		d, err := o.op()
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if billed := c.Now() - before; d != billed || d <= 0 {
			t.Errorf("%s returned %v, billed the clock %v", o.name, d, billed)
		}
	}
}

func TestBatchCost(t *testing.T) {
	p := ParamsOptaneNVMe // queue depth 16
	each := 10 * time.Microsecond
	if got := Batch(p, 0, each); got != 0 {
		t.Fatalf("Batch(0) = %v", got)
	}
	if got := Batch(p, 1, each); got != each {
		t.Fatalf("Batch(1) = %v, want %v (never below one op)", got, each)
	}
	if got := Batch(p, 160, each); got != 100*time.Microsecond {
		t.Fatalf("Batch(160) = %v, want 100µs", got)
	}
}

func TestBWCostZero(t *testing.T) {
	if bwCost(100, 0) != 0 {
		t.Fatal("bwCost with zero bandwidth should be 0")
	}
	if bwCost(0, 1000) != 0 {
		t.Fatal("bwCost with zero bytes should be 0")
	}
}

// Property: any sequence of writes followed by reads of the same
// ranges returns exactly the written data (device is a faithful store
// regardless of offsets/alignment).
func TestQuickDeviceRoundTrip(t *testing.T) {
	d := NewMemDevice(ParamsDRAM, NewClock())
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := d.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := d.ReadAt(got, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: striping preserves data for arbitrary offsets and sizes.
// TestArrayReadBatchAllocatesNothing: a batch through the striped array
// (a line page's base and patch, on two members) allocates nothing, so
// a demand fault can read it as one operation.
func TestArrayReadBatchAllocatesNothing(t *testing.T) {
	a := NewOptaneArray(4, NewClock())
	bufs := [][]byte{make([]byte, 4096), make([]byte, 240)}
	offs := []int64{0, 64 << 10}
	if _, err := a.ReadBatch(bufs, offs); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { a.ReadBatch(bufs, offs) }); n != 0 {
		t.Fatalf("a two-extent batch allocates %v times", n)
	}
}

func TestQuickArrayRoundTrip(t *testing.T) {
	a := NewOptaneArray(3, NewClock())
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := a.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := a.ReadAt(got, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceClassString(t *testing.T) {
	names := map[DeviceClass]string{
		ClassDRAM:       "dram",
		ClassNVDIMM:     "nvdimm",
		ClassOptaneNVMe: "optane-nvme",
		ClassFlashNVMe:  "flash-nvme",
		ClassSATASSD:    "sata-ssd",
		ClassHDD:        "hdd",
		DeviceClass(99): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}
