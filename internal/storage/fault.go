package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault-injection errors. Both are returned wrapped with operation
// context, so callers use errors.Is.
var (
	// ErrInjected marks a seeded transient fault from a FaultDevice.
	ErrInjected = errors.New("storage: injected fault")
	// ErrDeviceDown marks an operation against a device in the
	// permanently-failed state (see FaultDevice.Down).
	ErrDeviceDown = errors.New("storage: device down")
)

// FaultKind selects which operation class a fault script targets.
type FaultKind int

const (
	FaultAny FaultKind = iota
	FaultRead
	FaultWrite
	FaultSync
)

func (k FaultKind) String() string {
	switch k {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultSync:
		return "sync"
	default:
		return "any"
	}
}

// FaultConfig holds the per-operation fault probabilities. All
// probabilities are in [0, 1] and are drawn from a single seeded RNG,
// so a given seed reproduces the exact same fault schedule as long as
// the device sees the same operation sequence.
type FaultConfig struct {
	Seed int64

	// Transient error probabilities per operation class. A faulted
	// operation returns an error wrapping ErrInjected and performs no
	// (complete) device I/O.
	ReadErr  float64
	WriteErr float64
	SyncErr  float64

	// TornWrite is the conditional probability that an injected write
	// fault lands a partial prefix of the buffer before erroring,
	// modeling a power cut mid-write.
	TornWrite float64

	// BitRot is the probability that a read silently returns flipped
	// bits: the operation "succeeds" but one byte of the result is
	// corrupted. Models silent media rot; only end-to-end checksums
	// catch it.
	BitRot float64

	// SpikeProb/SpikeCost inject latency spikes: the operation
	// succeeds but costs SpikeCost extra virtual time.
	SpikeProb float64
	SpikeCost time.Duration
}

// FaultOp is one entry of the device operation log (see SetLogging).
type FaultOp struct {
	N    int64 // 1-based operation number
	Kind string
	Off  int64
	Len  int
	Err  bool // true if the op returned an error (injected or inner)

	// Data holds a copy of the bytes a write landed on media (the full
	// buffer, or the torn prefix). Captured only when SetDataLogging is
	// on; it is what lets a crash harness replay the log's first N ops
	// onto a fresh device and reboot from the exact media state a crash
	// at op N+1 would have left behind.
	Data []byte
}

// faultScript is one "fail ops N..M" directive.
type faultScript struct {
	kind     FaultKind
	from, to int64 // inclusive operation numbers
	torn     bool
}

// faultCore is the state shared by every Redirect view of a
// FaultDevice, mirroring the memCore pattern: fault schedule, op
// counter, and log live here so lane views observe one timeline.
type faultCore struct {
	mu       sync.Mutex
	cfg      FaultConfig
	rng      *rand.Rand
	ops      int64
	injected int64
	down     bool
	full     bool
	scripts  []faultScript
	logging  bool
	logData  bool
	log      []FaultOp
}

// decision is the pre-drawn fate of a single operation.
type decision struct {
	n      int64
	down   bool
	full   bool
	inject bool
	torn   bool
	rot    bool
	spike  bool
	frac   float64 // uniform draw for torn cut / rot byte position
}

// decide rolls the dice for one operation. Every operation consumes a
// fixed number of RNG draws regardless of outcome, so the schedule is
// a pure function of (seed, op number) and stays reproducible even as
// probabilities change between runs.
func (c *faultCore) decide(kind FaultKind, prob float64) decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	d := decision{n: c.ops}
	if c.down {
		d.down = true
		return d
	}
	errRoll := c.rng.Float64()
	tornRoll := c.rng.Float64()
	rotRoll := c.rng.Float64()
	spikeRoll := c.rng.Float64()
	d.frac = c.rng.Float64()
	if errRoll < prob {
		d.inject = true
		d.torn = kind == FaultWrite && tornRoll < c.cfg.TornWrite
	}
	for _, s := range c.scripts {
		if (s.kind == FaultAny || s.kind == kind) && c.ops >= s.from && c.ops <= s.to {
			d.inject = true
			if s.torn && kind == FaultWrite {
				d.torn = true
			}
		}
	}
	if kind == FaultRead && !d.inject && rotRoll < c.cfg.BitRot {
		d.rot = true
	}
	if spikeRoll < c.cfg.SpikeProb {
		d.spike = true
	}
	// The out-of-space mode is a flag check, not a probability draw, so
	// toggling it never perturbs the (seed, op-number) fault schedule.
	if c.full && kind == FaultWrite && !d.inject {
		d.full = true
	}
	if d.inject || d.rot || d.full {
		c.injected++
	}
	return d
}

func (c *faultCore) record(n int64, kind string, off int64, length int, failed bool, landed []byte) {
	c.mu.Lock()
	if c.logging {
		op := FaultOp{N: n, Kind: kind, Off: off, Len: length, Err: failed}
		if c.logData && landed != nil {
			op.Data = append([]byte(nil), landed...)
		}
		c.log = append(c.log, op)
	}
	c.mu.Unlock()
}

// FaultDevice wraps any Device and injects seeded, reproducible
// faults: transient errors, torn writes, silent bit-rot, latency
// spikes, and a permanent-failure mode. It implements Redirector so
// detached flush lanes share one fault timeline.
type FaultDevice struct {
	*faultCore
	inner Device
	clock *Clock
}

// NewFaultDevice wraps inner. The clock (may be nil) is charged for
// latency spikes; it should be the same clock the inner device uses.
func NewFaultDevice(inner Device, clock *Clock, cfg FaultConfig) *FaultDevice {
	return &FaultDevice{
		faultCore: &faultCore{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))},
		inner:     inner,
		clock:     clock,
	}
}

// Redirect returns a view of the same faulty device charging the given
// clock; fault state (RNG, op counter, scripts, log) is shared.
func (d *FaultDevice) Redirect(clock *Clock) Device {
	return &FaultDevice{
		faultCore: d.faultCore,
		inner:     Redirect(d.inner, clock),
		clock:     clock,
	}
}

// Inner returns the wrapped device (tests reach past the fault layer
// to corrupt or inspect raw contents).
func (d *FaultDevice) Inner() Device { return d.inner }

// Down switches the device into permanent failure: every operation
// fails with ErrDeviceDown until Up is called.
func (d *FaultDevice) Down() {
	d.mu.Lock()
	d.down = true
	d.mu.Unlock()
}

// Up clears the permanent-failure state.
func (d *FaultDevice) Up() {
	d.mu.Lock()
	d.down = false
	d.mu.Unlock()
}

// SetFull toggles the injectable out-of-space mode: while on, every
// write fails with an error wrapping ErrOutOfSpace (reads and syncs
// still succeed, as on a real full disk). Unlike Down, a full device is
// degraded, not dead — callers are expected to reclaim and retry.
func (d *FaultDevice) SetFull(on bool) {
	d.mu.Lock()
	d.full = on
	d.mu.Unlock()
}

// FailOps scripts deterministic faults: operations numbered from..to
// (inclusive, 1-based, counted across all views) of the given kind
// fail with ErrInjected.
func (d *FaultDevice) FailOps(kind FaultKind, from, to int64) {
	d.mu.Lock()
	d.scripts = append(d.scripts, faultScript{kind: kind, from: from, to: to})
	d.mu.Unlock()
}

// TearOps scripts torn writes for operations from..to: a prefix of the
// buffer reaches the device, then the op fails with ErrInjected.
func (d *FaultDevice) TearOps(from, to int64) {
	d.mu.Lock()
	d.scripts = append(d.scripts, faultScript{kind: FaultWrite, from: from, to: to, torn: true})
	d.mu.Unlock()
}

// ClearScripts removes all scripted faults.
func (d *FaultDevice) ClearScripts() {
	d.mu.Lock()
	d.scripts = nil
	d.mu.Unlock()
}

// OpCount returns the number of operations seen so far.
func (d *FaultDevice) OpCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// InjectedCount returns how many faults (errors, torn writes, rotted
// reads) have been injected so far.
func (d *FaultDevice) InjectedCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injected
}

// SetLogging enables or disables the operation log.
func (d *FaultDevice) SetLogging(on bool) {
	d.mu.Lock()
	d.logging = on
	if !on {
		d.log = nil
	}
	d.mu.Unlock()
}

// SetDataLogging additionally captures the bytes each write landed on
// media (see FaultOp.Data). Implies nothing on its own: logging must
// also be on. Memory-hungry; meant for crash-replay harnesses.
func (d *FaultDevice) SetDataLogging(on bool) {
	d.mu.Lock()
	d.logData = on
	d.mu.Unlock()
}

// Log returns a copy of the operation log collected since SetLogging.
func (d *FaultDevice) Log() []FaultOp {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]FaultOp(nil), d.log...)
}

func (d *FaultDevice) spikeCost(dec decision) time.Duration {
	if !dec.spike || d.cfg.SpikeCost <= 0 {
		return 0
	}
	if d.clock != nil {
		d.clock.Advance(d.cfg.SpikeCost)
	}
	return d.cfg.SpikeCost
}

func (d *FaultDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	return d.read(len(p), off, func() (time.Duration, error) {
		return d.inner.ReadAt(p, off)
	}, func(dec decision) {
		// Silent corruption: flip one byte, report success.
		p[int(dec.frac*float64(len(p)))%len(p)] ^= 0xa5
	})
}

// ChargeRead implements ReadCharger: ReadAt's draw, log entry, spike and
// inner charge, with no bytes to read or rot.
func (d *FaultDevice) ChargeRead(n int, off int64) (time.Duration, error) {
	return d.read(n, off, func() (time.Duration, error) {
		return ChargeRead(d.inner, n, off)
	}, nil)
}

// read is one n-byte read at off under the fault schedule: inner does
// the read a surviving operation performs, rot (nil: nothing was read)
// corrupts what it read.
func (d *FaultDevice) read(n int, off int64, inner func() (time.Duration, error), rot func(decision)) (time.Duration, error) {
	d.mu.Lock()
	prob := d.cfg.ReadErr
	d.mu.Unlock()
	dec := d.decide(FaultRead, prob)
	if dec.down {
		d.record(dec.n, "read", off, n, true, nil)
		return 0, fmt.Errorf("%w: read %d bytes at %d", ErrDeviceDown, n, off)
	}
	cost := d.spikeCost(dec)
	if dec.inject {
		d.record(dec.n, "read", off, n, true, nil)
		return cost, fmt.Errorf("%w: read %d bytes at %d (op %d)", ErrInjected, n, off, dec.n)
	}
	dur, err := inner()
	if err == nil && dec.rot && n > 0 && rot != nil {
		rot(dec)
	}
	d.record(dec.n, "read", off, n, err != nil, nil)
	return cost + dur, err
}

func (d *FaultDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	prob := d.cfg.WriteErr
	d.mu.Unlock()
	dec := d.decide(FaultWrite, prob)
	if dec.down {
		d.record(dec.n, "write", off, len(p), true, nil)
		return 0, fmt.Errorf("%w: write %d bytes at %d", ErrDeviceDown, len(p), off)
	}
	cost := d.spikeCost(dec)
	if dec.full {
		d.record(dec.n, "write", off, len(p), true, nil)
		return cost, fmt.Errorf("%w: injected full device, write %d bytes at %d (op %d)",
			ErrOutOfSpace, len(p), off, dec.n)
	}
	if dec.inject {
		if dec.torn && len(p) > 1 {
			// Torn write: a prefix lands on media, then power dies.
			cut := 1 + int(dec.frac*float64(len(p)-1))
			if cut >= len(p) {
				cut = len(p) - 1
			}
			dur, _ := d.inner.WriteAt(p[:cut], off)
			d.record(dec.n, "write", off, len(p), true, p[:cut])
			return cost + dur, fmt.Errorf("%w: torn write at %d (%d of %d bytes, op %d)",
				ErrInjected, off, cut, len(p), dec.n)
		}
		d.record(dec.n, "write", off, len(p), true, nil)
		return cost, fmt.Errorf("%w: write %d bytes at %d (op %d)", ErrInjected, len(p), off, dec.n)
	}
	dur, err := d.inner.WriteAt(p, off)
	d.record(dec.n, "write", off, len(p), err != nil, p)
	return cost + dur, err
}

func (d *FaultDevice) ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error) {
	d.mu.Lock()
	prob := d.cfg.ReadErr
	d.mu.Unlock()
	dec := d.decide(FaultRead, prob)
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if dec.down {
		d.record(dec.n, "readbatch", 0, total, true, nil)
		return 0, fmt.Errorf("%w: batch of %d reads", ErrDeviceDown, len(bufs))
	}
	cost := d.spikeCost(dec)
	if dec.inject {
		d.record(dec.n, "readbatch", 0, total, true, nil)
		return cost, fmt.Errorf("%w: batch of %d reads (op %d)", ErrInjected, len(bufs), dec.n)
	}
	dur, err := d.inner.ReadBatch(bufs, offs)
	if err == nil && dec.rot && len(bufs) > 0 {
		victim := bufs[int(dec.frac*float64(len(bufs)))%len(bufs)]
		if len(victim) > 0 {
			victim[0] ^= 0xa5
		}
	}
	d.record(dec.n, "readbatch", 0, total, err != nil, nil)
	return cost + dur, err
}

func (d *FaultDevice) Sync() (time.Duration, error) {
	d.mu.Lock()
	prob := d.cfg.SyncErr
	d.mu.Unlock()
	dec := d.decide(FaultSync, prob)
	if dec.down {
		d.record(dec.n, "sync", 0, 0, true, nil)
		return 0, fmt.Errorf("%w: sync", ErrDeviceDown)
	}
	cost := d.spikeCost(dec)
	if dec.inject {
		d.record(dec.n, "sync", 0, 0, true, nil)
		return cost, fmt.Errorf("%w: sync (op %d)", ErrInjected, dec.n)
	}
	dur, err := d.inner.Sync()
	d.record(dec.n, "sync", 0, 0, err != nil, nil)
	return cost + dur, err
}

func (d *FaultDevice) Params() DeviceParams { return d.inner.Params() }

func (d *FaultDevice) Stats() DeviceStats { return d.inner.Stats() }

// Resident forwards the residency capability of the inner device so
// space-pressure watermarks see through the fault layer. Returns -1 when
// the inner device cannot report it.
func (d *FaultDevice) Resident() int64 { return ResidentBytes(d.inner) }

// Peek implements Peeker past the fault layer: what the media holds,
// with no draw from the fault schedule.
func (d *FaultDevice) Peek(p []byte, off int64) bool { return Peek(d.inner, p, off) }

// Discard forwards TRIM to the inner device when supported. Discards do
// not consume fault-schedule draws: reclamation toggling on or off must
// not shift the seeded fault timeline of the data path.
func (d *FaultDevice) Discard(off, length int64) { DiscardRange(d.inner, off, length) }
