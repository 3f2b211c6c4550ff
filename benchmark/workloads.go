package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// workload is one permanent entry of the benchmark. A run is rounds × ops:
// every round builds a fresh fixture (set-up time, never inside an op), runs
// its ops closed-loop from the one driver goroutine, verifies a restore
// against live memory, and drops the fixture so the heap stays bounded.
type workload struct {
	name string
	// rounds × ops is the frozen size of a count-mode run, calibrated once
	// at the seed commit on 2 cores. The driver's --seconds mode keeps the
	// per-round shape and lets the clock pick the number of rounds.
	rounds, ops int
	setup       func(env *roundEnv) (fixture, error)
}

// fixture is one round's live system.
type fixture interface {
	// op runs measured op i (0-based) under the op's root span.
	op(i int, root int64) error
	// drain ends the measured phase (fleet-small syncs its lineages here).
	drain()
	// verify is the oracle: a lazy restore from the round's durable state
	// must be bit-identical to live memory. It also collects the round's
	// checkpoint breakdowns, which are final once everything is durable.
	verify() error
	// probe runs the traced pass's codec and object-store microprobes.
	probe() error
	machine() *machine
}

// roundEnv is what the runner hands a round's fixture.
type roundEnv struct {
	name        string
	seed, round uint64
	tr          *tracer // nil on untraced rounds
	rs          *roundStats
}

// rng returns the round's generator for one purpose; distinct streams keep
// fixture contents and op inputs independent of each other.
func (e *roundEnv) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, e.round<<8|stream))
}

// jitter is the one input that depends on the seed alone: 0 to 63. It sizes
// two things by a hair, so that no two seeds give bit-identical virtual
// times while one seed always does. Every process is started with a command
// line of 16 to 31 bytes, each a byte of metadata to serialize, flush and
// read back; and every Redis heap has up to 15 more resident pages than its
// nominal size, which is what an in-memory restore is charged by.
func (e *roundEnv) jitter() int {
	return rand.New(rand.NewPCG(e.seed, 1<<63)).IntN(64)
}

func (e *roundEnv) arg() string { return strings.Repeat("x", 16+e.jitter()/4) }

func (e *roundEnv) extraPages() int { return e.jitter() % 16 }

// fail counts one failed op or oracle miss and says where.
func (e *roundEnv) fail(format string, args ...any) {
	e.rs.failed++
	logf("FAIL workload=%s round=%d seed=%d: %s", e.name, e.round, e.seed, fmt.Sprintf(format, args...))
}

func (e *roundEnv) machineOpts(o machineOpts) machineOpts {
	if e.tr != nil {
		o.obs = e.tr
	}
	return o
}

const (
	redisPages  = 4096 // 16 MiB resident
	redisDirty  = 256
	quorumPages = 1024 // 4 MiB resident
	quorumDirty = 64
	fleetSize   = 256
	churnIncrs  = 4
	churnReads  = 256
	patterns    = 16
)

var workloads = []workload{
	{name: "redis-incr", rounds: 80, ops: 100, setup: func(env *roundEnv) (fixture, error) {
		return newIncrFixture(env, machineOpts{store: true, historyLimit: 4}, redisPages, redisDirty)
	}},
	{name: "fleet-small", rounds: 50, ops: 40 * fleetSize, setup: newFleetFixture},
	{name: "quorum3-incr", rounds: 30, ops: 50, setup: func(env *roundEnv) (fixture, error) {
		return newIncrFixture(env, machineOpts{replicas: 3, slowLink: 500 * time.Microsecond}, quorumPages, quorumDirty)
	}},
	{name: "restore-churn", rounds: 80, ops: 100, setup: newChurnFixture},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// patternPages are the fixed page contents the ¼ whole-page overwrites use.
// Every Redis fixture writes all of them once before its first checkpoint,
// so the store (or the replica's block index) has seen them.
var patternPages = func() [][]byte {
	out := make([][]byte, patterns)
	for k := range out {
		out[k] = make([]byte, pageSize)
		for j := range out[k] {
			out[k][j] = byte(k*31 + j*7 + (j>>8)*13 + 1)
		}
	}
	return out
}()

func randomPage(rng *rand.Rand, buf []byte) {
	for off := 0; off < len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], rng.Uint64())
	}
}

// filler returns the page(i) callback that gives a fixture's heap unique,
// seeded contents: the first `patterns` pages hold the fixed patterns, the
// rest random words.
func filler(rng *rand.Rand) func(i int, buf []byte) {
	return func(i int, buf []byte) {
		if i < patterns {
			copy(buf, patternPages[i])
		} else {
			randomPage(rng, buf)
		}
	}
}

// dirtier is the seeded page-mix generator of the single-lineage workloads.
type dirtier struct {
	rng  *rand.Rand
	perm []int // the lineage's overwritable pages; the pattern pages stay put
}

func newDirtier(rng *rand.Rand, l *lineage) *dirtier {
	d := &dirtier{rng: rng}
	for p := l.dirtyLo + patterns; p < l.pages; p++ {
		d.perm = append(d.perm, p)
	}
	return d
}

// sample draws n distinct pages uniformly (a partial Fisher–Yates shuffle);
// the slice is valid until the next call.
func (d *dirtier) sample(n int) []int {
	for j := 0; j < n; j++ {
		r := j + d.rng.IntN(len(d.perm)-j)
		d.perm[j], d.perm[r] = d.perm[r], d.perm[j]
	}
	return d.perm[:n]
}

// dirty writes the workload's page mix to n distinct pages: three in four
// get one fresh byte at a random offset, one in four is overwritten whole
// with one of the fixed patterns.
func (d *dirtier) dirty(l *lineage, n int) error {
	var b [1]byte
	for j, page := range d.sample(n) {
		var err error
		if j%4 == 3 {
			err = l.write(page, 0, patternPages[d.rng.IntN(patterns)])
		} else {
			b[0] = byte(d.rng.Uint32())
			err = l.write(page, d.rng.IntN(pageSize), b[:])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointDurable takes a checkpoint and waits for it: how fixtures make
// their starting state durable.
func checkpointDurable(l *lineage) error {
	if _, err := l.checkpoint(); err != nil {
		return err
	}
	return l.sync()
}

// checkDurable is the per-Sync oracle: the barrier epoch must be durable.
func checkDurable(l *lineage) error {
	if epoch, durable := l.epochs(); durable != epoch {
		return fmt.Errorf("after Sync: durable epoch %d, barrier epoch %d", durable, epoch)
	}
	return nil
}

// verifyRestore restores l lazily on m and compares it with live memory.
func verifyRestore(env *roundEnv, m *machine, l *lineage) error {
	r, st, err := m.restoreLazy(l)
	if err != nil {
		return fmt.Errorf("verification restore: %w", err)
	}
	env.rs.verifyRestores = append(env.rs.verifyRestores, st)
	err = sameMemory(l, r)
	if terr := r.teardown(); err == nil {
		err = terr
	}
	return err
}

// probeLayers runs the traced pass's microprobes at the end of a round: the
// codec on one more checkpoint of l, which the caller has just dirtied with
// n pages of the workload's mix, and — where the workload has an object
// store — the store's page paths on two epochs of the same mix.
func probeLayers(env *roundEnv, l *lineage, n int, store bool) error {
	var err error
	if env.rs.codec, err = l.probeCodec(); err != nil || !store {
		return err
	}
	rng := env.rng(3)
	epoch1, epoch2 := make(map[int64][]byte, n), make(map[int64][]byte, n)
	for i := 0; i < n; i++ {
		p := make([]byte, pageSize)
		randomPage(rng, p)
		epoch1[int64(i)] = p
		q := append([]byte(nil), p...)
		if i%4 == 3 {
			q = patternPages[rng.IntN(patterns)]
		} else {
			q[rng.IntN(pageSize)]++
		}
		epoch2[int64(i)] = q
	}
	env.rs.store, err = probeStore(epoch1, epoch2)
	return err
}

// round is what every fixture holds: its environment and its machine.
type round struct {
	env *roundEnv
	m   *machine
}

func (r *round) machine() *machine { return r.m }
func (r *round) drain()            {}

// incrFixture is the Table 3 loop — dirty, Checkpoint, Sync — on one
// lineage. redis-incr runs it on the local store, quorum3-incr on three
// replica wires and no store.
type incrFixture struct {
	round
	l      *lineage
	d      *dirtier
	dirtyN int
}

func newIncrFixture(env *roundEnv, opts machineOpts, pages, dirtyN int) (fixture, error) {
	m, err := newMachine(env.machineOpts(opts))
	if err != nil {
		return nil, err
	}
	f := &incrFixture{round: round{env, m}, dirtyN: dirtyN}
	if f.l, err = m.addRedis("redis", env.arg(), pages+env.extraPages(), filler(env.rng(1))); err != nil {
		return f, err
	}
	f.d = newDirtier(env.rng(2), f.l)
	return f, checkpointDurable(f.l)
}

func (f *incrFixture) op(_ int, root int64) error {
	tr, rs := f.env.tr, f.env.rs
	s := tr.begin("vm", "app.write", root)
	err := f.d.dirty(f.l, f.dirtyN)
	tr.end(s)
	if err != nil {
		return err
	}
	rs.dirtyPages += int64(f.dirtyN)

	// The epoch is in flight from the moment Checkpoint returns until
	// Sync does. Background device and wire spans hang off that span, and
	// it hangs off the Sync that waits for it, so that waiting is not
	// counted as core's own time. Both spans must exist before the flush
	// can start, which is inside Checkpoint; their clocks start after it.
	sy := tr.begin("core", "core.sync", root)
	fl := tr.begin("flushpath", "flushpath.inflight", sy)
	restore := tr.io(fl)
	s = tr.begin("core", "core.checkpoint", root)
	bd, err := f.l.checkpoint()
	tr.end(s)
	tr.restart(fl)
	tr.restart(sy)
	if err == nil && bd.Shed {
		err = fmt.Errorf("checkpoint shed")
	}
	if err == nil {
		err = f.l.sync()
	}
	tr.end(fl)
	tr.end(sy)
	restore()
	if err != nil {
		return err
	}
	if tr != nil && f.m.replicated() {
		epoch, _ := f.l.epochs()
		_, floors := f.m.quorumFloor(f.l)
		rs.lagMax = max(rs.lagMax, int64(epoch-floors[len(floors)-1]))
	}
	return checkDurable(f.l)
}

func (f *incrFixture) verify() error {
	f.env.rs.ckpts = f.l.breakdowns()[1:] // [0] is the fixture's full checkpoint
	if !f.m.replicated() {
		return verifyRestore(f.env, f.m, f.l)
	}
	epoch, _ := f.l.epochs()
	if floor, floors := f.m.quorumFloor(f.l); floor != epoch {
		return fmt.Errorf("quorum floor %d (links %v), barrier epoch %d", floor, floors, epoch)
	}
	r, st, got, err := f.m.restoreFromReplica(f.l, 0)
	if err != nil {
		return fmt.Errorf("verification restore from replica: %w", err)
	}
	f.env.rs.verifyRestores = append(f.env.rs.verifyRestores, st)
	if got != epoch {
		err = fmt.Errorf("replica holds epoch %d, barrier epoch %d", got, epoch)
	} else {
		err = sameMemory(f.l, r)
	}
	if terr := r.teardown(); err == nil {
		err = terr
	}
	return err
}

func (f *incrFixture) probe() error {
	if err := f.d.dirty(f.l, f.dirtyN); err != nil {
		return err
	}
	return probeLayers(f.env, f.l, f.dirtyN, f.m.hasStore())
}

// fleetFixture is the checkpoint storm: fleetSize FaaS-sized lineages on
// one orchestrator and one shared store. Each sweep steps every process one
// quantum (three pages dirtied) and checkpoints every lineage without
// waiting for any flush; the lineages are synced when the round drains.
type fleetFixture struct {
	round
	ls       []*lineage
	inflight int64
	restore  func()
}

func newFleetFixture(env *roundEnv) (fixture, error) {
	m, err := newMachine(env.machineOpts(machineOpts{store: true, fleetBudget: 1 << 20}))
	if err != nil {
		return nil, err
	}
	f := &fleetFixture{round: round{env, m}}
	rng, arg := env.rng(1), env.arg()
	for i := 0; i < fleetSize; i++ {
		// No pattern pages here: every page of every lineage is unique, so
		// the bytes the store writes do not depend on which of two
		// concurrent flushes wins a dedup race.
		l, err := m.addFleetLineage(fmt.Sprintf("fn-%d", i), arg, func(_ int, buf []byte) { randomPage(rng, buf) })
		if err != nil {
			return f, err
		}
		f.ls = append(f.ls, l)
	}
	for _, l := range f.ls {
		if err := checkpointDurable(l); err != nil {
			return f, err
		}
	}
	return f, nil
}

// op is one Checkpoint call; the first op of each sweep also carries the
// sweep's k.Run.
func (f *fleetFixture) op(i int, root int64) error {
	tr, rs := f.env.tr, f.env.rs
	if i == 0 {
		// One in-flight span for the round: with fleetSize epochs in the
		// pipeline at once, the device cannot tell whose write it sees.
		f.inflight = tr.begin("flushpath", "flushpath.inflight", 0)
		f.restore = tr.io(f.inflight)
	}
	if i%fleetSize == 0 {
		s := tr.begin("kernel", "kernel.run", root)
		err := f.m.run(fleetSize)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	l := f.ls[i%fleetSize]
	s := tr.begin("core", "core.checkpoint", root)
	bd, err := l.checkpoint()
	tr.end(s)
	if err != nil {
		return err
	}
	if bd.Shed {
		return fmt.Errorf("checkpoint of lineage %d shed", i%fleetSize)
	}
	rs.dirtyPages += fleetTouchPages
	if tr != nil {
		rs.queuePeak = max(rs.queuePeak, l.queueDepth())
	}
	return nil
}

func (f *fleetFixture) drain() {
	tr := f.env.tr
	for i, l := range f.ls {
		s := tr.begin("core", "core.sync", 0)
		err := l.sync()
		tr.end(s)
		if err == nil {
			err = checkDurable(l)
		}
		if err != nil {
			f.env.fail("lineage %d: %v", i, err)
		}
	}
	if f.restore != nil {
		tr.end(f.inflight)
		f.restore()
	}
}

func (f *fleetFixture) verify() error {
	for _, l := range f.ls {
		f.env.rs.ckpts = append(f.env.rs.ckpts, l.breakdowns()[1:]...)
	}
	rng := f.env.rng(2)
	for i := 0; i < 4; i++ {
		n := rng.IntN(len(f.ls))
		if err := verifyRestore(f.env, f.m, f.ls[n]); err != nil {
			return fmt.Errorf("lineage %d: %w", n, err)
		}
	}
	return nil
}

func (f *fleetFixture) probe() error {
	if err := f.m.run(fleetSize); err != nil {
		return err
	}
	return probeLayers(f.env, f.ls[0], fleetTouchPages, true)
}

// churnFixture is the Table 4 loop on the read side of the same layers: one
// lineage with a full and churnIncrs incremental checkpoints durable on the
// store, restored lazily over and over. Each op restores, demand-pages
// churnReads seeded pages of the restored process, and tears it down.
type churnFixture struct {
	round
	l *lineage
	d *dirtier
}

func newChurnFixture(env *roundEnv) (fixture, error) {
	m, err := newMachine(env.machineOpts(machineOpts{store: true}))
	if err != nil {
		return nil, err
	}
	f := &churnFixture{round: round{env, m}}
	if f.l, err = m.addRedis("redis", env.arg(), redisPages+env.extraPages(), filler(env.rng(1))); err != nil {
		return f, err
	}
	f.d = newDirtier(env.rng(2), f.l)
	before := m.counters()
	if err := checkpointDurable(f.l); err != nil {
		return f, err
	}
	for i := 0; i < churnIncrs; i++ {
		if err := f.d.dirty(f.l, redisDirty); err != nil {
			return f, err
		}
		if err := checkpointDurable(f.l); err != nil {
			return f, err
		}
	}
	// The checkpoint-side metrics of this workload cover the fixture's
	// own checkpoints; the ops take none.
	env.rs.ckpts = f.l.breakdowns()
	env.rs.dirtyPages = int64(f.l.pages + churnIncrs*redisDirty)
	env.rs.durableBytes = m.counters().DevBytesWritten - before.DevBytesWritten
	return f, checkDurable(f.l)
}

func (f *churnFixture) op(_ int, root int64) error {
	tr, rs := f.env.tr, f.env.rs
	s := tr.begin("core", "core.restore", root)
	restore := tr.io(s)
	r, st, err := f.m.restoreLazy(f.l)
	restore()
	tr.end(s)
	if err != nil {
		return err
	}
	rs.restores = append(rs.restores, st)

	faults, vnow := f.m.demandPaging()
	s = tr.begin("vm", "vm.demand_read", root)
	restore = tr.io(s)
	var b [8]byte
	for _, page := range f.d.sample(churnReads) {
		if err = r.read(page, 0, b[:]); err != nil {
			break
		}
	}
	restore()
	tr.end(s)
	faults2, vnow2 := f.m.demandPaging()
	rs.demandFaults += faults2 - faults
	rs.demandVNS += vnow2 - vnow

	s = tr.begin("kernel", "kernel.teardown", root)
	terr := r.teardown()
	tr.end(s)
	if err == nil {
		err = terr
	}
	return err
}

func (f *churnFixture) verify() error {
	if epoch, _ := f.l.epochs(); epoch != 1+churnIncrs {
		return fmt.Errorf("restore ops moved the barrier epoch to %d", epoch)
	}
	return verifyRestore(f.env, f.m, f.l)
}

func (f *churnFixture) probe() error {
	if err := f.d.dirty(f.l, redisDirty); err != nil {
		return err
	}
	return probeLayers(f.env, f.l, redisDirty, true)
}
