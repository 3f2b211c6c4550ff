package main

// sut.go is the only file of the benchmark that imports aurora/internal/*
// (benchmark_test.go checks this). Every call into the system under test
// goes through the adapter types below, which expose plain Go values, so an
// API refactor in internal/* costs one edit to this file and the benchmark's
// definitions (workloads.go, metrics.go) stay frozen.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"aurora/internal/apps/redis"
	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

const pageSize = vm.PageSize

// fleetProgram is the FaaS-sized program of the fleet-small lineages: each
// quantum bumps a counter and rewrites fleetTouchPages pages with it.
const (
	fleetProgram    = "benchmark-fleet-touch"
	fleetTouchPages = 3
)

func fleetStep(_ *kernel.Kernel, p *kernel.Process, _ *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b[:], binary.LittleEndian.Uint64(b[:])+1)
	for pg := 0; pg < fleetTouchPages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*pageSize), b[:]); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	// Restores reattach programs by name (the verification restores of
	// fleet-small need this one).
	kernel.RegisterProgram(fleetProgram, func(*kernel.Kernel, *kernel.Process, []byte) (kernel.Program, error) {
		return &kernel.FuncProgram{Name: fleetProgram, Fn: fleetStep}, nil
	})
}

// ckptStats is the benchmark's copy of one core.CheckpointBreakdown; times
// are virtual nanoseconds.
type ckptStats struct {
	Shed                            bool
	StopNS, FlushNS, MetaNS, LazyNS int64
	Pages, Objects, MetaBytes       int
	PTEOps                          int64
}

func toCkptStats(bd core.CheckpointBreakdown) ckptStats {
	return ckptStats{
		Shed:   bd.Shed,
		StopNS: int64(bd.StopTime), FlushNS: int64(bd.FlushTime),
		MetaNS: int64(bd.MetadataCopy), LazyNS: int64(bd.LazyDataCopy),
		Pages: bd.PagesCaptured, Objects: bd.Objects, MetaBytes: bd.MetaBytes,
		PTEOps: bd.PTEOps,
	}
}

// restoreStats is the benchmark's copy of one core.RestoreBreakdown.
type restoreStats struct {
	TotalNS, ReadNS, MemNS, MetaNS int64
}

func toRestoreStats(bd core.RestoreBreakdown) restoreStats {
	return restoreStats{
		TotalNS: int64(bd.Total), ReadNS: int64(bd.ObjectStoreRead),
		MemNS: int64(bd.MemoryState), MetaNS: int64(bd.MetadataState),
	}
}

// counters is one snapshot of every public counter the layers expose; the
// driver reports deltas between two snapshots.
type counters struct {
	CowFaults, PageCopies int64 // vm (K.Meter)

	DevReads, DevWrites, DevSyncs, DevBytesWritten, DevBusy int64 // storage (DeviceStats)

	DedupHits, BlocksFreed, EpochsDropped int64 // objstore (Store.Stats)

	WireBytes, PagesSent, PagesSkipped, NeedResends int64 // netback

	Dispatches, BudgetStalls, Sheds, Retries int64 // core fleet runtime, groups

	// Gauges: read at the end of a round, never subtracted.
	DevResident, LiveBytes, PackBlocks, MemPeak int64
}

// cumulative lists the fields that only ever grow.
func (c *counters) cumulative() []*int64 {
	return []*int64{
		&c.CowFaults, &c.PageCopies,
		&c.DevReads, &c.DevWrites, &c.DevSyncs, &c.DevBytesWritten, &c.DevBusy,
		&c.DedupHits, &c.BlocksFreed, &c.EpochsDropped,
		&c.WireBytes, &c.PagesSent, &c.PagesSkipped, &c.NeedResends,
		&c.Dispatches, &c.BudgetStalls, &c.Sheds, &c.Retries,
	}
}

// add returns c with sign×b added to every cumulative field; the gauges
// keep c's values.
func (c counters) add(b counters, sign int64) counters {
	theirs := b.cumulative()
	for i, mine := range c.cumulative() {
		*mine += sign * *theirs[i]
	}
	return c
}

// ioObserver receives what the device and wire decorators see. It is nil on
// untraced rounds, which then run without any decorator.
type ioObserver interface {
	// attach hands over the machine's foreground virtual clock.
	attach(virtualNow func() int64)
	devOp(kind string, start time.Time, d time.Duration)
	wireWrite(d time.Duration)
	wireFrameSent()
	wireRoundTrip(start time.Time, d time.Duration)
}

// machineOpts selects the simulated machine a workload runs on.
type machineOpts struct {
	store        bool          // StoreBackend over the 4×Optane array
	historyLimit int           // StoreBackend.HistoryLimit
	replicas     int           // netback replica links on net.Pipe wires, W=2
	slowLink     time.Duration // extra modeled latency on the last link
	fleetBudget  int64         // Orchestrator.FleetMemBudget
	obs          ioObserver
}

// machine is one simulated host plus its replica wires.
type machine struct {
	clock   *storage.Clock
	k       *kernel.Kernel
	o       *core.Orchestrator
	members []*storage.MemDevice
	objs    *objstore.Store
	sb      *core.StoreBackend
	rs      *netback.ReplicaSet
	wires   []*wire
	groups  []*core.Group
}

// wire is one replication link: the sender backend, the far-side receiver
// (a standalone endpoint with its own memory and clock) and its serve loop.
type wire struct {
	rb    *netback.ReplicaBackend
	recv  *netback.Receiver
	pm    *vm.PhysMem
	clock *storage.Clock
	near  net.Conn
	conn  io.ReadWriter // near, decorated on traced rounds
	done  chan error
}

func newMachine(opts machineOpts) (*machine, error) {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	m := &machine{clock: clock, k: k, o: core.NewOrchestrator(k)}
	m.o.FleetMemBudget = opts.fleetBudget
	if opts.obs != nil {
		opts.obs.attach(func() int64 { return int64(clock.Now()) })
	}
	if opts.store {
		// storage.NewOptaneArray, spelled out to keep the members: the
		// array itself cannot report resident bytes.
		devs := make([]storage.Device, 4)
		for i := range devs {
			p := storage.ParamsOptaneNVMe
			p.Name = fmt.Sprintf("nvme%d", i)
			md := storage.NewMemDevice(p, clock)
			m.members = append(m.members, md)
			devs[i] = md
		}
		arr, err := storage.NewArray(devs, 64<<10)
		if err != nil {
			return nil, err
		}
		var dev storage.Device = arr
		if opts.obs != nil {
			dev = &tracedDevice{inner: arr, obs: opts.obs}
		}
		m.objs = objstore.Create(dev, clock)
		m.sb = core.NewStoreBackend(m.objs, k.Mem, clock)
		m.sb.HistoryLimit = opts.historyLimit
	}
	if opts.replicas > 0 {
		m.rs = netback.NewReplicaSet(2)
		for i := 0; i < opts.replicas; i++ {
			w := &wire{
				rb:    netback.NewReplicaBackend(clock),
				pm:    vm.NewPhysMem(0),
				clock: storage.NewClock(),
				done:  make(chan error, 1),
			}
			w.recv = netback.NewReceiver(w.pm, w.clock)
			near, far := net.Pipe()
			w.near, w.conn = near, near
			if opts.obs != nil {
				w.conn = &tracedConn{inner: near, obs: opts.obs}
			}
			go func() {
				_, err := w.recv.ServeReplica(far)
				far.Close()
				w.done <- err
			}()
			if i == opts.replicas-1 {
				w.rb.SetLinkLatency(opts.slowLink)
			}
			m.rs.Add(fmt.Sprintf("replica%d", i), w.rb, w.recv)
			m.wires = append(m.wires, w)
		}
	}
	return m, nil
}

// close stops everything the machine started: the orchestrator's shard
// workers and the replica serve loops.
func (m *machine) close() error {
	m.o.Close()
	var first error
	for _, w := range m.wires {
		w.near.Close()
		if err := <-w.done; err != nil && first == nil {
			first = fmt.Errorf("replica serve loop: %w", err)
		}
	}
	return first
}

// lineage is one persistence group of one process and the heap region the
// driver works on.
type lineage struct {
	k *kernel.Kernel
	o *core.Orchestrator
	p *kernel.Process
	g *core.Group
	// pages is the heap prefix the oracle compares; pages in
	// [dirtyLo, pages) are free for the generator to overwrite.
	pages, dirtyLo int
}

// persist puts p into a new group on every durable backend of the machine.
func (m *machine) persist(name string, p *kernel.Process, pages, dirtyLo int) (*lineage, error) {
	g, err := m.o.Persist(name, p)
	if err != nil {
		return nil, err
	}
	if m.sb != nil {
		m.o.Attach(g, m.sb)
	}
	if m.rs != nil {
		for _, w := range m.wires {
			if _, err := w.rb.Connect(w.conn, g.ID); err != nil {
				return nil, err
			}
		}
		m.rs.AttachAll(m.o, g)
	}
	m.groups = append(m.groups, g)
	return &lineage{k: m.k, o: m.o, p: p, g: g, pages: pages, dirtyLo: dirtyLo}, nil
}

// addRedis boots a mini-Redis with exactly `pages` resident heap pages: a
// few hundred keys through the real SET path, then page(i) for every heap
// page above them. arg is its command line. It returns before any
// checkpoint.
func (m *machine) addRedis(name, arg string, pages int, page func(i int, buf []byte)) (*lineage, error) {
	const keys, valSize, buckets = 256, 1024, 4096
	p, st, err := redis.Spawn(m.k, 0, "/"+name+".sock", buckets, int64(pages)*pageSize, nil)
	if err != nil {
		return nil, err
	}
	p.Args = []string{arg}
	if err := redis.PopulateDirect(st, keys, valSize); err != nil {
		return nil, err
	}
	used, err := st.UsedBytes()
	if err != nil {
		return nil, err
	}
	first := int((used + pageSize - 1) / pageSize)
	buf := make([]byte, pageSize)
	for i := first; i < pages; i++ {
		page(i-first, buf)
		if err := p.WriteMem(p.HeapBase()+vm.Addr(i*pageSize), buf); err != nil {
			return nil, err
		}
	}
	return m.persist(name, p, pages, first)
}

// addFleetLineage spawns one FaaS-sized process running fleetProgram.
func (m *machine) addFleetLineage(name, arg string, page func(i int, buf []byte)) (*lineage, error) {
	p, err := m.k.Spawn(0, name, arg)
	if err != nil {
		return nil, err
	}
	p.SetProgram(&kernel.FuncProgram{Name: fleetProgram, Fn: fleetStep})
	buf := make([]byte, pageSize)
	for i := 0; i < fleetTouchPages; i++ {
		page(i, buf)
		if err := p.WriteMem(p.HeapBase()+vm.Addr(i*pageSize), buf); err != nil {
			return nil, err
		}
	}
	return m.persist(name, p, fleetTouchPages, 0)
}

func (l *lineage) write(page, off int, data []byte) error {
	return l.p.WriteMem(l.p.HeapBase()+vm.Addr(page*pageSize+off), data)
}

func (l *lineage) read(page, off int, buf []byte) error {
	return l.p.ReadMem(l.p.HeapBase()+vm.Addr(page*pageSize+off), buf)
}

func (l *lineage) checkpoint() (ckptStats, error) {
	bd, err := l.o.Checkpoint(l.g, core.CheckpointOpts{})
	return toCkptStats(bd), err
}

func (l *lineage) sync() error { return l.o.Sync(l.g) }

// epochs returns the barrier epoch and the durable epoch.
func (l *lineage) epochs() (epoch, durable uint64) { return l.g.Epoch(), l.g.Durable() }

func (l *lineage) queueDepth() int { return l.g.QueueDepth() }

// breakdowns returns every checkpoint of the lineage so far, FlushTime
// included for the epochs a Sync has retired.
func (l *lineage) breakdowns() []ckptStats {
	bds := l.g.Breakdowns()
	out := make([]ckptStats, len(bds))
	for i, bd := range bds {
		out[i] = toCkptStats(bd)
	}
	return out
}

// run steps the scheduler n quanta.
func (m *machine) run(n int) error {
	ran, err := m.k.Run(n)
	if err == nil && ran != n {
		err = fmt.Errorf("kernel ran %d of %d quanta", ran, n)
	}
	return err
}

// restoreLazy restores the lineage's newest durable epoch from the store
// into the same machine.
func (m *machine) restoreLazy(l *lineage) (*lineage, restoreStats, error) {
	ng, bd, err := m.o.Restore(l.g, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		return nil, restoreStats{}, err
	}
	r, err := restored(m.k, m.o, ng, l)
	return r, toRestoreStats(bd), err
}

// restoreFromReplica restores the newest image replica member holds, on a
// throwaway kernel over that endpoint's memory and clock, and reports the
// image's epoch.
func (m *machine) restoreFromReplica(l *lineage, member int) (*lineage, restoreStats, uint64, error) {
	w := m.wires[member]
	img, err := w.recv.Latest(l.g.ID)
	if err != nil {
		return nil, restoreStats{}, 0, err
	}
	k := kernel.NewWith(w.clock, w.pm)
	o := core.NewOrchestrator(k)
	ng, bd, err := o.RestoreImage(img, 0, core.RestoreOpts{Lazy: true})
	if err != nil {
		return nil, restoreStats{}, 0, err
	}
	r, err := restored(k, o, ng, l)
	return r, toRestoreStats(bd), img.Epoch, err
}

func restored(k *kernel.Kernel, o *core.Orchestrator, ng *core.Group, from *lineage) (*lineage, error) {
	pids := ng.PIDs()
	if len(pids) != 1 {
		return nil, fmt.Errorf("restored group has %d processes, want 1", len(pids))
	}
	p, err := k.Process(pids[0])
	if err != nil {
		return nil, err
	}
	return &lineage{k: k, o: o, p: p, g: ng, pages: from.pages, dirtyLo: from.dirtyLo}, nil
}

// teardown kills a restored lineage and dissolves its group.
func (l *lineage) teardown() error {
	l.k.Exit(l.p, 0)
	err := l.k.Reap(l.p)
	l.o.Unpersist(l.g)
	return err
}

// sameMemory compares the two lineages' heap prefixes bit for bit, demand
// paging whatever a lazy restore left in its source.
func sameMemory(a, b *lineage) error {
	const chunk = 64 * pageSize
	ba, bb := make([]byte, chunk), make([]byte, chunk)
	for off := 0; off < a.pages*pageSize; off += chunk {
		n := min(chunk, a.pages*pageSize-off)
		if err := a.p.ReadMem(a.p.HeapBase()+vm.Addr(off), ba[:n]); err != nil {
			return err
		}
		if err := b.p.ReadMem(b.p.HeapBase()+vm.Addr(off), bb[:n]); err != nil {
			return err
		}
		if !bytes.Equal(ba[:n], bb[:n]) {
			return fmt.Errorf("memory differs within heap pages [%d,%d)", off/pageSize, (off+n)/pageSize)
		}
	}
	return nil
}

// quorumFloor is the newest epoch at least W links acked; floors are the
// per-link acked frontiers.
func (m *machine) quorumFloor(l *lineage) (floor uint64, floors []uint64) {
	return m.rs.QuorumFloor(l.g.ID), m.rs.AckedFloors(l.g.ID)
}

// demandPaging reads the two numbers a demand-read phase moves: pages the
// pager brought in and the foreground virtual clock.
func (m *machine) demandPaging() (pageIns, virtualNS int64) {
	return m.k.Meter.PageIns.Load(), int64(m.clock.Now())
}

func (m *machine) hasStore() bool   { return m.objs != nil }
func (m *machine) replicated() bool { return m.rs != nil }

// stopConstNS is the calibrated constant part of every stop time.
func (m *machine) stopConstNS() int64 {
	return int64(m.k.Costs.CkptMetaBase + m.k.Costs.ProtectBase)
}

func (m *machine) counters() counters {
	c := counters{CowFaults: m.k.Meter.CowFaults.Load(), PageCopies: m.k.Meter.PageCopies.Load()}
	if m.objs != nil {
		ds := m.objs.Device().Stats()
		c.DevReads, c.DevWrites, c.DevSyncs = ds.Reads, ds.Writes, ds.Syncs
		c.DevBytesWritten, c.DevBusy = ds.BytesWritten, int64(ds.Busy)
		for _, md := range m.members {
			c.DevResident += md.Resident()
		}
		st := m.objs.Stats()
		c.DedupHits, c.BlocksFreed, c.EpochsDropped = st.DedupHits, st.BlocksFreed, st.EpochsDropped
		c.LiveBytes, c.PackBlocks = st.LiveBytes, int64(st.PackBlocks)
	}
	for _, w := range m.wires {
		c.WireBytes += w.rb.SentBytes()
		sent, skipped, resends := w.rb.DeltaStats()
		c.PagesSent += sent
		c.PagesSkipped += skipped
		c.NeedResends += resends
	}
	fs := m.o.FleetStats()
	c.Dispatches, c.BudgetStalls, c.MemPeak = fs.Dispatches, fs.BudgetStalls, fs.MemPeak
	for _, g := range m.groups {
		sheds, _ := g.Sheds()
		c.Sheds += sheds
		for _, h := range g.Health() {
			c.Retries += h.Retries
		}
	}
	return c
}

// codecProbe times the image codec on a real image; ns per page.
type codecProbe struct {
	Pages                                 int
	EncodeNS, DecodeNS, CompactNS, HashNS float64
}

// probeCodec takes one more checkpoint of whatever the caller just dirtied
// — with SkipFlush, because flushed images release their frames to the
// store — and times each codec entry point on it.
func (l *lineage) probeCodec() (codecProbe, error) {
	if _, err := l.o.Checkpoint(l.g, core.CheckpointOpts{SkipFlush: true}); err != nil {
		return codecProbe{}, err
	}
	img := l.g.LastImage()
	n := img.PageCount()
	if n == 0 {
		return codecProbe{}, errors.New("codec probe: image holds no pages")
	}
	per := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / float64(n) }

	t := time.Now()
	payload := img.EncodeDelta()
	pr := codecProbe{Pages: n, EncodeNS: per(t)}

	t = time.Now()
	dec, err := core.DecodeDelta(payload, l.k.Mem)
	pr.DecodeNS = per(t)
	if err != nil {
		return pr, err
	}
	dec.Release(l.k.Mem)

	t = time.Now()
	img.EncodeDeltaCompact(nil)
	pr.CompactNS = per(t)

	t = time.Now()
	for _, mi := range img.Memory {
		for idx := range mi.Pages {
			core.PageContentHash(mi.PageData(idx))
		}
	}
	pr.HashNS = per(t)
	return pr, nil
}

// storeProbe times the object store's page paths; ns per page except Drop.
type storeProbe struct {
	PutNS, ReadNS, DropNS float64
}

// probeStore feeds the workload's page mix to a scratch store: two epochs of
// the same object (so the drop has a successor to merge into), then reads
// the first back and drops it.
func probeStore(epoch1, epoch2 map[int64][]byte) (storeProbe, error) {
	clock := storage.NewClock()
	st := objstore.Create(storage.NewOptaneArray(4, clock), clock)
	const group, oid = 1, 1
	kind := uint16(kernel.KindVMObject)
	var pr storeProbe

	t := time.Now()
	if _, err := st.PutRecord(group, oid, 1, kind, true, nil, epoch1, nil); err != nil {
		return pr, err
	}
	pr.PutNS = float64(time.Since(t).Nanoseconds()) / float64(len(epoch1))
	st.PutManifest(&objstore.Manifest{Group: group, Epoch: 1, Records: []objstore.RecordKey{{Group: group, OID: oid, Epoch: 1}}})
	if _, err := st.PutRecord(group, oid, 2, kind, false, nil, epoch2, nil); err != nil {
		return pr, err
	}
	st.PutManifest(&objstore.Manifest{Group: group, Epoch: 2, Prev: 1, Records: []objstore.RecordKey{{Group: group, OID: oid, Epoch: 2}}})

	t = time.Now()
	refs, _, err := st.ResolvePages(group, oid, 1)
	if err != nil {
		return pr, err
	}
	list := make([]objstore.BlockRef, 0, len(refs))
	for _, ref := range refs {
		list = append(list, ref)
	}
	if _, err := st.ReadBlocks(list); err != nil {
		return pr, err
	}
	pr.ReadNS = float64(time.Since(t).Nanoseconds()) / float64(len(list))

	t = time.Now()
	if err := st.DropEpoch(group, 1); err != nil {
		return pr, err
	}
	pr.DropNS = float64(time.Since(t).Nanoseconds())
	return pr, nil
}

// tracedDevice times every device operation. It forwards Redirect, Resident
// and Discard exactly as storage.FaultDevice does and touches neither bytes
// nor clocks, so the simulation cannot tell it is there.
type tracedDevice struct {
	inner storage.Device
	obs   ioObserver
}

func (d *tracedDevice) Redirect(c *storage.Clock) storage.Device {
	return &tracedDevice{inner: storage.Redirect(d.inner, c), obs: d.obs}
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	t := time.Now()
	cost, err := d.inner.ReadAt(p, off)
	d.obs.devOp("dev.read", t, time.Since(t))
	return cost, err
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	t := time.Now()
	cost, err := d.inner.WriteAt(p, off)
	d.obs.devOp("dev.write", t, time.Since(t))
	return cost, err
}

func (d *tracedDevice) ReadBatch(bufs [][]byte, offs []int64) (time.Duration, error) {
	t := time.Now()
	cost, err := d.inner.ReadBatch(bufs, offs)
	d.obs.devOp("dev.readbatch", t, time.Since(t))
	return cost, err
}

func (d *tracedDevice) Sync() (time.Duration, error) {
	t := time.Now()
	cost, err := d.inner.Sync()
	d.obs.devOp("dev.sync", t, time.Since(t))
	return cost, err
}

func (d *tracedDevice) Params() storage.DeviceParams { return d.inner.Params() }
func (d *tracedDevice) Stats() storage.DeviceStats   { return d.inner.Stats() }
func (d *tracedDevice) Resident() int64              { return storage.ResidentBytes(d.inner) }
func (d *tracedDevice) Discard(off, length int64)    { storage.DiscardRange(d.inner, off, length) }

// tracedConn is the sender side of a replica wire. It follows netback's
// frame layout ([type u8][len u64 LE][crc u32][payload]) far enough to count
// outbound frames and to time a round trip from the first byte of a frame
// written to the last byte of the next frame read (the ack). The replica
// protocol is one frame in flight per link under the link's own lock, which
// is also what orders the accesses to this state.
type tracedConn struct {
	inner   io.ReadWriter
	obs     ioObserver
	out, in frameScanner
	rtStart time.Time
	rtOpen  bool
}

const frameHdrSize = 13

// frameScanner finds frame boundaries in a byte stream however the stream
// is chunked into calls.
type frameScanner struct {
	hdr    [frameHdrSize]byte
	have   int
	remain uint64
}

// feed consumes p and reports how many frames started and ended in it.
func (s *frameScanner) feed(p []byte) (started, ended int) {
	for len(p) > 0 {
		if s.remain > 0 {
			n := min(uint64(len(p)), s.remain)
			s.remain -= n
			p = p[n:]
			if s.remain == 0 {
				ended++
			}
			continue
		}
		if s.have == 0 {
			started++
		}
		n := copy(s.hdr[s.have:], p)
		s.have += n
		p = p[n:]
		if s.have == frameHdrSize {
			s.have = 0
			s.remain = binary.LittleEndian.Uint64(s.hdr[1:9])
			if s.remain == 0 {
				ended++
			}
		}
	}
	return started, ended
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t := time.Now()
	if started, _ := c.out.feed(p); started > 0 {
		for i := 0; i < started; i++ {
			c.obs.wireFrameSent()
		}
		if !c.rtOpen {
			c.rtOpen, c.rtStart = true, t
		}
	}
	n, err := c.inner.Write(p)
	c.obs.wireWrite(time.Since(t))
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	if _, ended := c.in.feed(p[:n]); ended > 0 && c.rtOpen {
		c.rtOpen = false
		c.obs.wireRoundTrip(c.rtStart, time.Since(c.rtStart))
	}
	return n, err
}
