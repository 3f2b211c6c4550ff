// Command sls is the Aurora command-line interface of the paper's
// Table 1, operating a simulated Aurora machine. The machine boots
// with the sls session; demo applications are spawned with `boot`,
// and checkpoints can be exported to real files with `send` and
// imported with `recv` — moving applications between sls sessions the
// way `sls send | ssh ... sls recv` moves them between hosts.
//
// Usage:
//
//	sls                      # interactive REPL
//	sls -c "boot counter; persist 1 app; attach app nvme; checkpoint app"
//	echo "script" | sls
//
// Commands (Table 1 plus session helpers):
//
//	persist <pid> <name>      add a process tree to a persistence group
//	attach <group> <backend>  attach a backend: memory|nvme|ssd|hdd
//	detach <group> <backend>  detach a backend
//	checkpoint <group> [name] checkpoint an application (flush is async)
//	sync <group>              wait for the flush pipeline to drain
//	restore <group> [epoch]   restore an application from an image
//	promote <group> <backend> move the primary role to another backend
//	ps                        list applications in Aurora
//	epochs <group> [backend]  list store epochs with quarantine status
//	gc <backend>              run a retention scan, reclaiming old epochs
//	df                        show per-backend space usage and pressure
//	fleet                     show the shard runtime and dedup stats
//	scrub <backend> [source]  verify block hashes, repair rot from a peer
//	send <group> <file>       export an application to a file
//	recv <file>               import an application and restore it
//	place <name>              place a demo app on the multi-store fleet
//	stores                    list fleet stores (domain, state, usage)
//	drain <store>             empty a fleet store, then fence it
//	balance                   move lineages off stores past the watermark
//	autoscale [sub]           elasticity loop: status|tick [n]|out|in [store]
//	signals                   dump the autoscaler's utilization sample window
//	boot <counter|redis>      spawn a demo application
//	run <n>                   run the scheduler for n quanta
//	stat <pid>                show one process
//	help, exit
//
// Exit codes report restore and failover health for scripted use
// (`sls -c ...`): 0 clean, 3 restore fell back past a quarantined
// epoch, 4 restore failed on a corrupt (quarantined) image, 5 restore
// failed because the backing store was down, 6 promotion refused
// because the current primary is still healthy, 7 promotion refused
// because the group was fenced by a newer generation, 8 `df` found a
// backend at or above its emergency space watermark, 10 the operation
// hit a draining store, 11 no feasible placement (anti-affinity,
// liveness, or capacity has no satisfying store), 12 a manual
// `autoscale out`/`autoscale in` refused because another scale action
// is already in flight.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"aurora/internal/apps/redis"
	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// session is one simulated Aurora machine under CLI control.
type session struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
	api   *core.API
	objs  *objstore.Store
	mem   *core.MemoryBackend

	backends map[string]core.Backend
	rsets    map[uint64]*netback.ReplicaSet // per-group loopback replica sets
	migs     map[uint64]*core.Migrator      // warm standby migrators per group
	out      *bufio.Writer
	code     int // process exit code; restore outcomes set 3/4/5

	// The placement fleet: an in-process multi-store control plane
	// (place/stores/drain/balance), built lazily on first use so the
	// single-machine verbs stay untouched.
	placer *core.Placer
	placed map[string]*core.Placement // by application name
	as     *core.Autoscaler           // elasticity loop over the fleet
}

func newSession(out *bufio.Writer) *session {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	objs := objstore.Create(storage.NewOptaneArray(4, clock), clock)
	s := &session{
		clock:    clock,
		k:        k,
		o:        o,
		api:      core.NewAPI(o),
		objs:     objs,
		mem:      core.NewMemoryBackend(k.Mem, 8),
		backends: make(map[string]core.Backend),
		rsets:    make(map[uint64]*netback.ReplicaSet),
		migs:     make(map[uint64]*core.Migrator),
		out:      out,
	}
	s.backends["memory"] = s.mem
	s.addStore("nvme", objs)
	s.addStore("ssd", objstore.Create(storage.NewMemDevice(storage.ParamsSATASSD, clock), clock))
	s.addStore("hdd", objstore.Create(storage.NewMemDevice(storage.ParamsHDD, clock), clock))
	return s
}

// addStore registers a store backend under name with a default
// retention reclaimer attached, so `gc`/`df` and watermark-driven
// reclamation work out of the box (a no-op on unbounded devices).
func (s *session) addStore(name string, st *objstore.Store) *core.StoreBackend {
	sb := core.NewStoreBackend(st, s.k.Mem, s.clock)
	sb.SetReclaimer(core.NewReclaimer(s.o, sb, core.RetentionPolicy{}, core.Watermarks{}))
	s.backends[name] = sb
	return sb
}

func (s *session) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format, args...)
}

// fleetPrimaryTarget is the resident-primary count each fleet store
// is sized for: the denominator of the UTIL column and the load axis
// of the autoscaler's composite utilization signal.
const fleetPrimaryTarget = 4

// fleet lazily boots the placement fleet: four independent store
// machines across two failure domains, wired through a clean store
// directory, under one placer.
func (s *session) fleet() *core.Placer {
	if s.placer != nil {
		return s.placer
	}
	s.placer = core.NewPlacer(netback.NewDirectory(netback.LinkFaultConfig{}), core.PlacerConfig{
		PrimaryTarget: fleetPrimaryTarget,
	})
	for i := 0; i < 4; i++ {
		if err := s.placer.AddStore(s.buildFleetStore(i)); err != nil {
			panic(err) // static fleet: names and domains are well-formed
		}
	}
	s.placed = make(map[string]*core.Placement)
	return s.placer
}

// buildFleetStore constructs one independent store machine for the
// fleet, alternating failure domains by index.
func (s *session) buildFleetStore(i int) *core.StoreNode {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	st := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
	return &core.StoreNode{
		Name:   fmt.Sprintf("store%d", i),
		Domain: fmt.Sprintf("rack%d", i%2),
		O:      o,
		SB:     core.NewStoreBackend(st, k.Mem, clock),
		Sup:    core.NewSupervisor(o, core.SupervisorConfig{}),
	}
}

// scaler lazily boots the elasticity loop over the fleet with a warm
// pool of two provisioned spares (store4/store5, one per rack), so
// `autoscale out` has somewhere to grow and `autoscale in` somewhere
// to shrink back from.
func (s *session) scaler() *core.Autoscaler {
	if s.as != nil {
		return s.as
	}
	p := s.fleet()
	s.as = core.NewAutoscaler(p, core.AutoscalerConfig{
		MinStores: 2,
		MaxStores: 6,
	})
	for i := 4; i <= 5; i++ {
		if err := s.as.AddWarmStore(s.buildFleetStore(i)); err != nil {
			panic(err) // static pool: names and domains are well-formed
		}
	}
	return s.as
}

// scaleExitCode maps a failed scale verb to the documented exit
// codes: 12 = another scale action is already in flight, otherwise
// the placement mapping (10/11/1) applies.
func scaleExitCode(err error) int {
	if errors.Is(err, core.ErrScalingInProgress) {
		return 12
	}
	return placeExitCode(err)
}

// placeExitCode maps a failed placement operation to the documented
// exit codes: 10 = store is draining, 11 = no feasible placement
// (anti-affinity, liveness, or capacity has no satisfying store),
// 1 = anything else.
func placeExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrDraining):
		return 10
	case errors.Is(err, core.ErrNoFeasiblePlacement):
		return 11
	default:
		return 1
	}
}

// placementRow formats one fleet placement's replica homes.
func placementRow(pl *core.Placement) string {
	var reps []string
	for _, r := range pl.Replicas() {
		reps = append(reps, fmt.Sprintf("%s(%s)", r.Name, r.Domain))
	}
	if len(reps) == 0 {
		return "degraded: no replicas"
	}
	return strings.Join(reps, " ")
}

// counterProg is the demo workload: it increments a heap counter.
type counterProg struct{ addr vm.Addr }

func (c *counterProg) ProgName() string { return "sls-counter" }
func (c *counterProg) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	return e.Bytes()
}
func (c *counterProg) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(c.addr, b[:]); err != nil {
		return err
	}
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16
	v++
	b[0], b[1], b[2] = byte(v), byte(v>>8), byte(v>>16)
	return p.WriteMem(c.addr, b[:])
}

func init() {
	kernel.RegisterProgram("sls-counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &counterProg{addr: vm.Addr(d.U64())}, nil
	})
}

// storeArg resolves a backend name to its store-backed implementation.
func (s *session) storeArg(name string) (*core.StoreBackend, error) {
	b, ok := s.backends[name]
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", name)
	}
	sb, ok := b.(*core.StoreBackend)
	if !ok {
		return nil, fmt.Errorf("backend %q is not store-backed", name)
	}
	return sb, nil
}

// restoreExitCode maps a failed restore to the documented exit codes,
// so scripts can tell a corrupt image from an unreachable store
// without parsing stderr: 4 = every candidate epoch quarantined,
// 5 = backing store down, 1 = anything else.
func restoreExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrEpochQuarantined):
		return 4
	case errors.Is(err, core.ErrBackendDown), errors.Is(err, storage.ErrDeviceDown):
		return 5
	default:
		return 1
	}
}

// promoteExitCode maps a failed promotion to the documented exit
// codes, so failover scripts can tell "refused: primary still up"
// from "refused: somebody already promoted over us": 6 = current
// primary healthy, 7 = fenced by a newer generation, 1 = anything else.
func promoteExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrPrimaryHealthy):
		return 6
	case errors.Is(err, core.ErrStaleGeneration):
		return 7
	default:
		return 1
	}
}

// migrateExitCode maps a failed migration to the documented exit
// codes: 7 = fenced by a newer generation (someone else took the
// lineage), 9 = migration aborted (target unreachable or dead — the
// source rolled back and remains primary), 1 = anything else.
func migrateExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrStaleGeneration):
		return 7
	case errors.Is(err, core.ErrMigrationAborted):
		return 9
	default:
		return 1
	}
}

// migratorFor builds (or returns the group's cached) live migrator:
// the named loopback replica link carries the stream, the named store
// backend anchors the target side, and the first store attached to the
// group anchors the source.
func (s *session) migratorFor(g *core.Group, replica, store string) (*core.Migrator, error) {
	if m, ok := s.migs[g.ID]; ok {
		return m, nil
	}
	var link *netback.SetLink
	for _, l := range s.replicaSet(g).Links() {
		if l.Name == replica {
			link = l
			break
		}
	}
	if link == nil {
		return nil, fmt.Errorf("group %d has no replica link %q (use: replica %d %s)", g.ID, replica, g.ID, replica)
	}
	if link.Recv == nil {
		return nil, fmt.Errorf("replica %q lives off-machine: cannot anchor a migration target", replica)
	}
	dst, err := s.storeArg(store)
	if err != nil {
		return nil, err
	}
	var src *core.StoreBackend
	for _, b := range g.Backends() {
		if sb, ok := b.(*core.StoreBackend); ok {
			src = sb
			break
		}
	}
	m := &core.Migrator{
		Src: s.o, Dst: s.o, G: g,
		Link:     link.RB,
		Target:   link.Recv,
		SrcStore: src,
		DstStore: dst,
		Cfg:      core.MigratorConfig{Name: g.Name + "-migrated"},
	}
	s.migs[g.ID] = m
	return m, nil
}

// quarColumn renders the group's quarantined epochs for ps: "-" when
// none failed restore validation, else the poisoned epoch numbers.
func quarColumn(g *core.Group) string {
	eps := g.QuarantinedEpochs()
	if len(eps) == 0 {
		return "-"
	}
	parts := make([]string, len(eps))
	for i, ep := range eps {
		parts[i] = strconv.FormatUint(ep, 10)
	}
	return strings.Join(parts, ",")
}

// healthColumn renders a group's per-backend health for ps: one entry
// per backend ("ok", "degraded:N", "down:N" with N missed epochs
// queued for catch-up), or "-" with no backends attached.
func healthColumn(g *core.Group) string {
	infos := g.Health()
	if len(infos) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(infos))
	for _, info := range infos {
		switch info.State {
		case core.BackendHealthy:
			parts = append(parts, "ok")
		default:
			parts = append(parts, fmt.Sprintf("%s:%d", info.State, info.Pending))
		}
	}
	return strings.Join(parts, ",")
}

// quorumColumn renders a group's write-quorum status for ps: "-"
// without a policy, else "a/W:N" — a of the N non-ephemeral backends
// currently ack-complete against a write quorum of W.
func quorumColumn(g *core.Group) string {
	w, acked, n := g.QuorumStatus()
	if w == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d:%d", acked, w, n)
}

// replicaSet returns (creating on demand) the group's loopback
// replica set.
func (s *session) replicaSet(g *core.Group) *netback.ReplicaSet {
	rs, ok := s.rsets[g.ID]
	if !ok {
		rs = netback.NewReplicaSet(0)
		s.rsets[g.ID] = rs
	}
	return rs
}

// addReplica wires a named loopback replica link to the group: a
// standby receiver on its own memory at the far end of a clean
// netback.Wire, with the acknowledged replica backend attached to the
// group. History already durable on an attached store is backfilled so
// the new member joins current (and its acked floor is contiguous from
// epoch 1).
func (s *session) addReplica(g *core.Group, name string) (int, error) {
	recv := netback.NewReceiver(vm.NewPhysMem(0), storage.NewClock())
	w := netback.NewWire(netback.LinkFaultConfig{}, s.clock, recv)
	rb := w.Backend()
	if err := w.Connect(g.ID); err != nil {
		return 0, err
	}
	backfilled := 0
	for _, b := range g.Backends() {
		sb, ok := b.(*core.StoreBackend)
		if !ok {
			continue
		}
		for _, ep := range sb.Epochs(g.ID) {
			img, _, err := sb.Load(g.ID, ep)
			if err != nil {
				continue
			}
			if _, err := rb.Flush(img); err != nil {
				return backfilled, err
			}
			backfilled++
		}
		break
	}
	s.replicaSet(g).Add(name, rb, recv)
	s.o.Attach(g, rb)
	return backfilled, nil
}

// useColumn renders a group's worst store-backend space usage for ps:
// the highest used fraction across attached bounded store backends, or
// "-" when every attached store is unbounded (capacity unknown).
func useColumn(g *core.Group) string {
	worst := -1.0
	for _, b := range g.Backends() {
		sb, ok := b.(*core.StoreBackend)
		if !ok || sb.Reclaimer() == nil {
			continue
		}
		_, capacity, frac := sb.Reclaimer().Usage()
		if capacity > 0 && frac > worst {
			worst = frac
		}
	}
	if worst < 0 {
		return "-"
	}
	return fmt.Sprintf("%d%%", int(worst*100))
}

func (s *session) groupArg(name string) (*core.Group, error) {
	if id, err := strconv.ParseUint(name, 10, 64); err == nil {
		if g, err := s.o.Group(id); err == nil {
			return g, nil
		}
	}
	return s.o.GroupByName(name)
}

// exec runs one command line; returns false to exit.
func (s *session) exec(line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return true
	}
	cmd, args := fields[0], fields[1:]
	fail := func(err error) bool {
		s.printf("error: %v\n", err)
		return true
	}

	switch cmd {
	case "help":
		s.printf("%s\n", helpText)

	case "boot":
		kind := "counter"
		if len(args) > 0 {
			kind = args[0]
		}
		switch kind {
		case "counter":
			p, err := s.k.Spawn(0, "counter")
			if err != nil {
				return fail(err)
			}
			p.SetProgram(&counterProg{addr: p.HeapBase()})
			s.printf("booted counter, pid %d\n", p.PID)
		case "redis":
			p, _, err := redis.Spawn(s.k, 0, fmt.Sprintf("/redis-%d.sock", s.clock.Now()), 1024, 8<<20, nil)
			if err != nil {
				return fail(err)
			}
			s.printf("booted mini-redis, pid %d\n", p.PID)
		default:
			s.printf("unknown app %q (counter|redis)\n", kind)
		}

	case "persist":
		if len(args) < 2 {
			s.printf("usage: persist <pid> <name>\n")
			return true
		}
		pid, err := strconv.Atoi(args[0])
		if err != nil {
			return fail(err)
		}
		p, err := s.k.Process(pid)
		if err != nil {
			return fail(err)
		}
		g, err := s.o.Persist(args[1], p)
		if err != nil {
			return fail(err)
		}
		s.printf("persistence group %d (%s): pids %v\n", g.ID, g.Name, g.PIDs())

	case "attach":
		if len(args) < 2 {
			s.printf("usage: attach <group> <memory|nvme|ssd|hdd>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		b, ok := s.backends[args[1]]
		if !ok {
			s.printf("unknown backend %q\n", args[1])
			return true
		}
		s.o.Attach(g, b)
		s.printf("attached %s to group %d\n", b.Name(), g.ID)

	case "detach":
		if len(args) < 2 {
			s.printf("usage: detach <group> <backend-name>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		b, ok := s.backends[args[1]]
		name := args[1]
		if ok {
			name = b.Name()
		}
		if err := s.o.Detach(g, name); err != nil {
			return fail(err)
		}
		s.printf("detached %s\n", name)

	case "replica":
		if len(args) < 2 {
			s.printf("usage: replica <group> <name>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		backfilled, err := s.addReplica(g, args[1])
		if err != nil {
			return fail(err)
		}
		s.printf("replica %s linked to group %d (%d in set, %d epochs backfilled)\n",
			args[1], g.ID, len(s.replicaSet(g).Links()), backfilled)

	case "quorum":
		if len(args) < 2 {
			s.printf("usage: quorum <group> <W>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		w, err := strconv.Atoi(args[1])
		if err != nil {
			return fail(err)
		}
		s.replicaSet(g).SetW(w)
		g.SetQuorum(core.QuorumPolicy{W: w})
		if w <= 0 {
			s.printf("group %d back on all-backends durability\n", g.ID)
		} else {
			_, _, n := g.QuorumStatus()
			s.printf("group %d write quorum %d of %d non-ephemeral backends\n", g.ID, w, n)
		}

	case "replicas":
		if len(args) < 1 {
			s.printf("usage: replicas <group>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		rs := s.replicaSet(g)
		links := rs.Links()
		if len(links) == 0 {
			s.printf("group %d has no replica links\n", g.ID)
			return true
		}
		health := map[string]core.BackendHealthInfo{}
		for _, info := range g.Health() {
			health[info.Name] = info
		}
		// HASHED/REFS/BLOCKS are the receiver's block-index counters:
		// pages hashed on arrival, hash refs resolved without a copy,
		// distinct page contents held. LINES is pages the sender shipped
		// as their written lines / pages the receiver rebuilt from them.
		s.printf("%-14s %-10s %-8s %-8s %-11s %-7s %-8s %-8s %-8s %s\n",
			"REPLICA", "STATE", "ACKED", "PENDING", "PARTITIONS", "CONTIG", "HASHED", "REFS", "BLOCKS", "LINES")
		for _, l := range links {
			state, pending := "?", 0
			if info, ok := health[l.Name]; ok {
				state = info.State.String()
				pending = info.Pending
			}
			contig, hashed, refs, blocks, patched := "-", "-", "-", "-", "-"
			if l.Recv != nil {
				contig = strconv.FormatUint(l.Recv.ContiguousEpoch(g.ID), 10)
				bs := l.Recv.BlockStats()
				hashed = strconv.FormatInt(bs.Hashed, 10)
				refs = strconv.FormatInt(bs.Resolved, 10)
				blocks = strconv.Itoa(bs.Entries)
				patched = strconv.FormatInt(bs.Patched, 10)
			}
			s.printf("%-14s %-10s %-8d %-8d %-11d %-7s %-8s %-8s %-8s %d/%s\n",
				l.Name, state, l.RB.AckedFloor(g.ID), pending, l.RB.Partitions(), contig, hashed, refs, blocks,
				l.RB.LinesSent(), patched)
		}
		s.printf("quorum floor %d (W=%d of %d links)\n", rs.QuorumFloor(g.ID), rs.W(), len(links))

	case "checkpoint":
		if len(args) < 1 {
			s.printf("usage: checkpoint <group> [name]\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		name := ""
		if len(args) > 1 {
			name = args[1]
		}
		bd, err := s.o.Checkpoint(g, core.CheckpointOpts{Name: name})
		if err != nil {
			return fail(err)
		}
		s.printf("%s\n", bd)

	case "restore":
		if len(args) < 1 {
			s.printf("usage: restore <group> [epoch]\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		var epoch uint64
		if len(args) > 1 {
			epoch, _ = strconv.ParseUint(args[1], 10, 64)
		}
		// Validate runs the hash pre-pass so a corrupt epoch is caught
		// (and quarantined) here, not later at demand-paging time.
		ng, bd, err := s.o.Restore(g, epoch, core.RestoreOpts{Lazy: true, Validate: true})
		if err != nil {
			s.code = restoreExitCode(err)
			return fail(err)
		}
		if bd.FallbackFrom != 0 {
			s.code = 3
			s.printf("warning: epoch %d quarantined, fell back to epoch %d\n", bd.FallbackFrom, ng.Epoch())
		}
		s.printf("restored as group %d, pids %v\n%s\n", ng.ID, ng.PIDs(), bd)

	case "promote":
		if len(args) < 2 {
			s.printf("usage: promote <group> <backend>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		b, ok := s.backends[args[1]]
		name := args[1]
		if ok {
			name = b.Name()
		}
		rep, err := s.o.PromoteBackend(g, name)
		if err != nil {
			s.code = promoteExitCode(err)
			return fail(err)
		}
		s.printf("promoted %s to primary of group %d: generation %d, floor epoch %d (ttr %s)\n",
			name, g.ID, rep.Gen, rep.Floor, rep.TTR)

	case "migrate":
		if len(args) < 3 {
			s.printf("usage: migrate <group> <replica> <store-backend>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		m, err := s.migratorFor(g, args[1], args[2])
		if err != nil {
			return fail(err)
		}
		rep, err := m.Run(nil)
		if err != nil {
			s.code = migrateExitCode(err)
			return fail(err)
		}
		delete(s.migs, g.ID)
		s.printf("migrated group %d -> group %d over %s: generation %d, floor epoch %d, "+
			"%d pre-copy rounds, %d epochs backfilled, blackout %s (source stop %s)\n",
			g.ID, rep.Group.ID, args[1], rep.Gen, rep.Floor, rep.Rounds, rep.Backfilled,
			rep.Blackout, rep.SrcStop)

	case "standby":
		if len(args) < 3 {
			s.printf("usage: standby <group> <replica> <store-backend>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		m, err := s.migratorFor(g, args[1], args[2])
		if err != nil {
			return fail(err)
		}
		if err := m.StandbyRound(nil); err != nil {
			s.code = migrateExitCode(err)
			return fail(err)
		}
		rep := m.Report()
		s.printf("standby for group %d warm: %d rounds shipped, %d epochs drained, source epoch %d\n",
			g.ID, rep.Rounds, rep.Backfilled, g.Epoch())

	case "takeover":
		if len(args) < 1 {
			s.printf("usage: takeover <group>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		m, ok := s.migs[g.ID]
		if !ok {
			return fail(fmt.Errorf("group %d has no warm standby (use: standby %d <replica> <store>)", g.ID, g.ID))
		}
		rep, err := m.PromoteStandby()
		if err != nil {
			s.code = migrateExitCode(err)
			return fail(err)
		}
		delete(s.migs, g.ID)
		s.printf("standby promoted: group %d -> group %d, generation %d, floor epoch %d (ttr %s)\n",
			g.ID, rep.Group.ID, rep.Gen, rep.Floor, rep.TTR)

	case "sync":
		if len(args) < 1 {
			s.printf("usage: sync <group>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		if err := s.o.Sync(g); err != nil {
			return fail(err)
		}
		s.printf("group %d durable through epoch %d\n", g.ID, g.Durable())

	case "ps":
		s.printf("%-6s %-6s %-4s %-14s %-8s %-8s %-6s %-5s %-8s %-8s %-6s %-5s %-18s %-10s %s\n", "GROUP", "EPOCH", "GEN", "NAME", "STORE", "DOMAIN", "TARGET", "UTIL", "DURABLE", "QUORUM", "QUEUE", "USE%", "HEALTH", "QUAR", "PIDS")
		for _, g := range s.o.Groups() {
			s.printf("%-6d %-6d %-4d %-14s %-8s %-8s %-6s %-5s %-8d %-8s %-6d %-5s %-18s %-10s %v\n", g.ID, g.Epoch(), g.Generation(), g.Name, "-", "-", "-", "-", g.Durable(), quorumColumn(g), g.QueueDepth(), useColumn(g), healthColumn(g), quarColumn(g), g.PIDs())
		}
		if s.placer != nil {
			prim := make(map[*core.StoreNode]int)
			for _, pl := range s.placer.Placements() {
				prim[pl.Primary()]++
			}
			for _, pl := range s.placer.Placements() {
				g, n := pl.Group(), pl.Primary()
				target := fmt.Sprintf("%d/%d", prim[n], fleetPrimaryTarget)
				util := fmt.Sprintf("%.0f%%", s.placer.Utilization(n)*100)
				s.printf("%-6d %-6d %-4d %-14s %-8s %-8s %-6s %-5s %-8d %-8s %-6d %-5s %-18s %-10s %v\n", g.ID, g.Epoch(), g.Generation(), g.Name, n.Name, n.Domain, target, util, g.Durable(), quorumColumn(g), g.QueueDepth(), useColumn(g), healthColumn(g), quarColumn(g), g.PIDs())
			}
		}
		s.printf("%-6s %-6s %-14s %s\n", "PID", "STATE", "NAME", "FDS")
		for _, p := range s.k.Processes() {
			s.printf("%-6d %-6s %-14s %v\n", p.PID, p.State(), p.Name, p.FDs.Numbers())
		}

	case "epochs":
		if len(args) < 1 {
			s.printf("usage: epochs <group> [backend]\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		var stores []*core.StoreBackend
		if len(args) > 1 {
			sb, err := s.storeArg(args[1])
			if err != nil {
				return fail(err)
			}
			stores = append(stores, sb)
		} else {
			for _, b := range g.Backends() {
				if sb, ok := b.(*core.StoreBackend); ok {
					stores = append(stores, sb)
				}
			}
		}
		if len(stores) == 0 {
			s.printf("group %d has no store backends\n", g.ID)
			return true
		}
		// A restored group's images live under the lineage it came from.
		gids := []uint64{g.ID}
		if org := g.Origin(); org != 0 && org != g.ID {
			gids = append(gids, org)
		}
		s.printf("%-6s %-22s %-8s %s\n", "EPOCH", "BACKEND", "DURABLE", "STATUS")
		for _, sb := range stores {
			for _, gid := range gids {
				quar := sb.Store().QuarantinedEpochs(gid)
				for _, ep := range sb.Epochs(gid) {
					status := "ok"
					if why, bad := quar[ep]; bad {
						status = "quarantined: " + why
					}
					durable := "-"
					if ep <= g.Durable() {
						durable = "yes"
					}
					s.printf("%-6d %-22s %-8s %s\n", ep, sb.Name(), durable, status)
				}
			}
		}
		// Link history per backend: partitions (connection losses) and
		// epochs replayed after heals. Zero for in-machine backends;
		// nonzero only for partition-aware ones (network replicas).
		for _, info := range g.Health() {
			s.printf("link %-22s partitions=%d catchup=%d\n", info.Name, info.Partitions, info.CatchUp)
		}

	case "gc":
		if len(args) < 1 {
			s.printf("usage: gc <backend>\n")
			return true
		}
		sb, err := s.storeArg(args[0])
		if err != nil {
			return fail(err)
		}
		rec := sb.Reclaimer()
		if rec == nil {
			s.printf("backend %q has no reclaimer\n", args[0])
			return true
		}
		freed := rec.Scan()
		st := rec.Stats()
		_, _, frac := rec.Usage()
		s.printf("gc %s: freed %d bytes (%d epochs reclaimed total), usage %d%%, pressure %s\n",
			args[0], freed, st.EpochsReclaimed, int(frac*100), rec.Level())

	case "df":
		names := make([]string, 0, len(s.backends))
		for name := range s.backends {
			names = append(names, name)
		}
		sort.Strings(names)
		s.printf("%-10s %-12s %-12s %-5s %s\n", "BACKEND", "USED", "CAPACITY", "USE%", "PRESSURE")
		for _, name := range names {
			sb, ok := s.backends[name].(*core.StoreBackend)
			if !ok || sb.Reclaimer() == nil {
				continue
			}
			rec := sb.Reclaimer()
			used, capacity, frac := rec.Usage()
			capStr, useStr := "-", "-"
			if capacity > 0 {
				capStr = strconv.FormatInt(capacity, 10)
				useStr = fmt.Sprintf("%d%%", int(frac*100))
			}
			level := rec.Level()
			if level == core.PressureEmergency {
				s.code = 8
			}
			s.printf("%-10s %-12d %-12s %-5s %s\n", name, used, capStr, useStr, level)
		}

	case "fleet":
		st := s.o.FleetStats()
		if st.Shards == 0 {
			s.printf("fleet runtime idle (no group has checkpointed yet)\n")
			return true
		}
		s.printf("shards=%d workers/shard=%d dispatches=%d\n", st.Shards, st.WorkersPerShard, st.Dispatches)
		for i, n := range st.Placements {
			s.printf("  shard %d: %d groups placed\n", i, n)
		}
		budget := "unbounded"
		if st.MemBudget > 0 {
			budget = strconv.FormatInt(st.MemBudget, 10)
		}
		s.printf("mem budget=%s in-use=%d peak=%d stalls=%d\n", budget, st.MemInUse, st.MemPeak, st.BudgetStalls)
		names := make([]string, 0, len(s.backends))
		for name := range s.backends {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sb, ok := s.backends[name].(*core.StoreBackend)
			if !ok {
				continue
			}
			os := sb.Store().Stats()
			s.printf("%s: dedup-hits=%d pack-blocks=%d blocks=%d live=%dB\n",
				name, os.DedupHits, os.PackBlocks, os.Blocks, os.LiveBytes)
		}

	case "place":
		if len(args) < 1 {
			s.printf("usage: place <name>\n")
			return true
		}
		p := s.fleet()
		name := args[0]
		if _, ok := s.placed[name]; ok {
			return fail(fmt.Errorf("application %q is already placed", name))
		}
		pl, err := p.Place(name, func(n *core.StoreNode) (*core.Group, error) {
			proc, err := n.O.K.Spawn(0, name)
			if err != nil {
				return nil, err
			}
			proc.SetProgram(&counterProg{addr: proc.HeapBase()})
			return n.O.Persist(name, proc)
		})
		if err != nil {
			s.code = placeExitCode(err)
			return fail(err)
		}
		s.placed[name] = pl
		s.printf("placed %s: lineage %d on %s (%s), replicas %s\n",
			name, pl.Lineage, pl.Primary().Name, pl.Primary().Domain, placementRow(pl))

	case "stores":
		p := s.fleet()
		prim := make(map[*core.StoreNode]int)
		for _, pl := range p.Placements() {
			prim[pl.Primary()]++
		}
		s.printf("%-8s %-8s %-9s %-5s %s\n", "NAME", "DOMAIN", "STATE", "USE%", "GROUPS")
		for _, n := range p.Stores() {
			_, _, frac := n.SB.Store().Usage()
			s.printf("%-8s %-8s %-9s %-5s %d\n", n.Name, n.Domain, n.State(), fmt.Sprintf("%.0f", frac*100), prim[n])
		}
		if evac, repair := p.QueueDepths(); evac > 0 || repair > 0 {
			s.printf("healing: %d evacuations, %d replica repairs queued\n", evac, repair)
		}
		if v := p.AntiAffinityViolations(); len(v) > 0 {
			for _, msg := range v {
				s.printf("VIOLATION: %s\n", msg)
			}
		}

	case "drain":
		if len(args) < 1 {
			s.printf("usage: drain <store>\n")
			return true
		}
		p := s.fleet()
		n, err := p.Node(args[0])
		if err != nil {
			return fail(err)
		}
		evs, err := p.Drain(n)
		for _, ev := range evs {
			if ev.Kind == "migrated" && ev.Err == nil {
				s.printf("  lineage %d: %s -> %s (blackout %s)\n", ev.Lineage, ev.From, ev.To, ev.TTR)
			}
		}
		if err != nil {
			s.code = placeExitCode(err)
			return fail(err)
		}
		s.printf("store %s drained and fenced\n", n.Name)

	case "balance":
		p := s.fleet()
		evs, err := p.Rebalance()
		moved := 0
		for _, ev := range evs {
			switch ev.Kind {
			case "rebalanced":
				moved++
				s.printf("  lineage %d: %s -> %s (blackout %s)\n", ev.Lineage, ev.From, ev.To, ev.TTR)
			case "rebalance-skipped":
				s.printf("  lineage %d: pressure on %s, no feasible target (deferred)\n", ev.Lineage, ev.From)
			}
		}
		if err != nil {
			s.code = placeExitCode(err)
			return fail(err)
		}
		if moved == 0 {
			s.printf("fleet balanced: no store above the high watermark\n")
		} else {
			s.printf("rebalanced %d lineage(s)\n", moved)
		}

	case "autoscale":
		a := s.scaler()
		sub := "status"
		if len(args) > 0 {
			sub = args[0]
		}
		switch sub {
		case "status":
			st := a.Status()
			s.printf("phase=%s tick=%d active=%d target=%d pool=%d util=%.2f cooldown=%d\n",
				st.Phase, st.Tick, st.Active, st.Target, st.Pool, st.Util, st.CooldownLeft)
			if st.Seeding != "" {
				s.printf("seeding %s via paced rebalance\n", st.Seeding)
			}
			if st.Draining != "" {
				s.printf("draining %s via live migration\n", st.Draining)
			}
			if v := a.InvariantViolations(); len(v) > 0 {
				for _, msg := range v {
					s.printf("VIOLATION: %s\n", msg)
				}
			}
		case "tick":
			n := 1
			if len(args) > 1 {
				v, err := strconv.Atoi(args[1])
				if err != nil || v < 1 {
					s.printf("usage: autoscale tick [n]\n")
					return true
				}
				n = v
			}
			for i := 0; i < n; i++ {
				dec, _ := a.Tick()
				line := fmt.Sprintf("tick %d: %s", dec.Tick, dec.Action)
				if dec.Store != "" {
					line += " " + dec.Store
				}
				if dec.Reason != "" {
					line += " (" + dec.Reason + ")"
				}
				s.printf("%s util=%.2f backlog=%d moves=%d\n", line, dec.Util, dec.Backlog, dec.Moves)
			}
		case "out":
			dec, err := a.ScaleOut()
			if err != nil {
				s.code = scaleExitCode(err)
				return fail(err)
			}
			s.printf("scale-out: admitted %s from the warm pool; seeding via paced rebalance\n", dec.Store)
		case "in":
			name := ""
			if len(args) > 1 {
				name = args[1]
			}
			dec, err := a.ScaleIn(name)
			if err != nil {
				s.code = scaleExitCode(err)
				return fail(err)
			}
			s.printf("scale-in: draining %s; drive it with `autoscale tick`\n", dec.Store)
		default:
			s.printf("usage: autoscale [status|tick [n]|out|in [store]]\n")
		}

	case "signals":
		a := s.scaler()
		win := a.Signals()
		if len(win) == 0 {
			s.printf("no samples yet: drive the loop with `autoscale tick`\n")
			return true
		}
		s.printf("%-5s %-7s %-6s %-7s %-6s %s\n", "TICK", "ACTIVE", "UTIL", "MINUTIL", "SHEDS", "BACKLOG")
		for _, sig := range win {
			s.printf("%-5d %-7d %-6.2f %-7.2f %-6d %d\n", sig.Tick, sig.Active, sig.Util, sig.MinUtil, sig.Sheds, sig.Backlog)
		}
		last := win[len(win)-1]
		s.printf("%-8s %-8s %-9s %-6s %-7s %s\n", "STORE", "DOMAIN", "STATE", "UTIL", "SPACE%", "PRIMARIES")
		for _, ss := range last.PerStore {
			s.printf("%-8s %-8s %-9s %-6.2f %-7.0f %d\n", ss.Store, ss.Domain, ss.State, ss.Util, ss.SpaceFrac*100, ss.Primaries)
		}

	case "send":
		if len(args) < 2 {
			s.printf("usage: send <group> <file>\n")
			return true
		}
		g, err := s.groupArg(args[0])
		if err != nil {
			return fail(err)
		}
		// Drain the flush pipeline first: what leaves the machine must
		// be the durable state, not an epoch still in flight.
		if err := s.o.Sync(g); err != nil {
			return fail(err)
		}
		img := g.LastImage()
		if img == nil || !img.Resolvable() {
			for _, b := range g.Backends() {
				if li, _, err := b.Load(g.ID, 0); err == nil {
					img = li
					break
				}
			}
		}
		if img == nil {
			return fail(core.ErrNoImage)
		}
		payload := img.Encode()
		if err := os.WriteFile(args[1], payload, 0o644); err != nil {
			return fail(err)
		}
		s.printf("sent group %d epoch %d: %d bytes -> %s\n", g.ID, img.Epoch, len(payload), args[1])

	case "recv":
		if len(args) < 1 {
			s.printf("usage: recv <file>\n")
			return true
		}
		payload, err := os.ReadFile(args[0])
		if err != nil {
			return fail(err)
		}
		img, err := core.DecodeImage(payload, s.k.Mem)
		if err != nil {
			return fail(err)
		}
		ng, bd, err := s.o.RestoreImage(img, 0, core.RestoreOpts{Lazy: true})
		if err != nil {
			return fail(err)
		}
		s.printf("received as group %d, pids %v\n%s\n", ng.ID, ng.PIDs(), bd)

	case "scrub":
		if len(args) < 1 {
			s.printf("usage: scrub <backend> [source-backend]\n")
			return true
		}
		sb, err := s.storeArg(args[0])
		if err != nil {
			return fail(err)
		}
		var src objstore.BlockSource
		if len(args) > 1 {
			peer, err := s.storeArg(args[1])
			if err != nil {
				return fail(err)
			}
			src = peer.Store()
		}
		rep, err := sb.Store().Scrub(src)
		if err != nil {
			return fail(err)
		}
		s.printf("scrub %s: %s\n", args[0], rep)
		for _, key := range rep.LostRecords {
			s.printf("  lost: oid %d epoch %d\n", key.OID, key.Epoch)
		}

	case "run":
		n := 100
		if len(args) > 0 {
			n, _ = strconv.Atoi(args[0])
		}
		ran, err := s.k.Run(n)
		if err != nil {
			s.printf("ran %d quanta, error: %v\n", ran, err)
		} else {
			s.printf("ran %d quanta (virtual time %s)\n", ran, s.clock.Now())
		}

	case "stat":
		if len(args) < 1 {
			s.printf("usage: stat <pid>\n")
			return true
		}
		pid, _ := strconv.Atoi(args[0])
		p, err := s.k.Process(pid)
		if err != nil {
			return fail(err)
		}
		s.printf("pid %d (%s) state=%s container=%d threads=%d\n",
			p.PID, p.Name, p.State(), p.Container, len(p.Threads))
		for _, m := range p.Space.Mappings() {
			s.printf("  %-10s %#x-%#x resident=%d pages\n", m.Name, m.Start, m.End, m.Obj.ResidentCount())
		}

	case "exit", "quit":
		return false

	default:
		s.printf("unknown command %q (try help)\n", cmd)
	}
	return true
}

const helpText = `Aurora single level store (Table 1):
  persist <pid> <name>       add an application to a persistence group
  attach <group> <backend>   attach a group to a backend (memory|nvme|ssd|hdd)
  detach <group> <backend>   detach a persistence group from a backend
  checkpoint <group> [name]  checkpoint an application (flush is async)
  sync <group>               wait for queued flushes; surface flush errors
  restore <group> [epoch]    restore an application from an image; images are
                             hash-validated, poisoned epochs are quarantined
                             and skipped. exit codes: 0 ok, 3 fell back past
                             a quarantined epoch, 4 corrupt image, 5 backing
                             store down
  promote <group> <backend>  move the primary role to another attached store
                             backend; refused while the current primary is
                             healthy. exit codes: 0 promoted, 6 primary still
                             healthy, 7 fenced by a newer generation
  replica <group> <name>     link a named loopback replica (acknowledged
                             epoch shipping to an in-process standby)
  migrate <group> <replica> <store>
                             live-migrate the group: pre-copy over the
                             replica link, blackout cutover, generation-
                             fenced handover onto the store, lazy tail.
                             exit codes: 0 migrated, 7 fenced by a newer
                             generation, 9 aborted (source rolled back,
                             still primary)
  standby <group> <replica> <store>
                             keep a hot standby warm: ship one pre-copy
                             round over the replica link onto the store
                             (repeat on the checkpoint cadence)
  takeover <group>           promote the warm standby after source death:
                             unplanned generation-fenced handover, prints
                             time-to-recovery
  quorum <group> <W>         set the group's write quorum: epochs retire
                             once W non-ephemeral backends ack (0 restores
                             all-backends durability)
  replicas <group>           show each replica link's acked floor, pending
                             catch-up, partitions, the receiver's block-
                             index counters (pages hashed, refs resolved,
                             blocks held), and the quorum floor
  ps                         list applications in Aurora (GEN = store
                             generation / fencing token, QUORUM = backends
                             ack-complete / write quorum : total, QUEUE =
                             epochs in flight, HEALTH = per-backend flush
                             health, QUAR = epochs that failed restore
                             validation)
  epochs <group> [backend]   list a group's store epochs with durability and
                             quarantine status, plus per-backend link history
                             (partitions seen, epochs caught up after heals)
  gc <backend>               run a retention scan on a store backend,
                             reclaiming unprotected old epochs when the
                             device is past its space watermarks
  df                         show used/capacity/pressure per store backend
                             (ps USE% is the worst attached backend);
                             exit code 8 when any backend is at or above
                             the emergency watermark
  fleet                      show the shard runtime (worker pool, group
                             placements, flush memory budget) and each
                             store backend's dedup and metadata packing
  place <name>               place a demo app on the multi-store fleet:
                             the placer picks the least-loaded store and
                             replicates to a different failure domain
                             (hard anti-affinity). exit codes: 0 placed,
                             11 no feasible placement
  stores                     list the placement fleet: per-store failure
                             domain, lifecycle state (active|draining|
                             down|fenced), space usage, resident groups,
                             plus any queued healing work
  drain <store>              decommission a fleet store: live-migrate
                             every resident lineage off, re-home replica
                             roles, then fence it. exit codes: 0 drained,
                             10 already draining, 11 nowhere to move a
                             resident
  balance                    one pressure-driven rebalance pass: every
                             store past the high watermark moves its
                             heaviest lineage to the emptiest compatible
                             store
  autoscale [status]         show the elasticity loop: phase, active vs
                             target store count, warm-pool depth, fleet
                             utilization, cooldown
  autoscale tick [n]         drive the control loop n rounds (sample,
                             decide, seed/drain one budgeted step,
                             background rebalance)
  autoscale out              admit a warm spare now and seed it via
                             paced rebalance. exit codes: 0 admitted,
                             11 pool empty or fleet at max, 12 another
                             scale action is in flight
  autoscale in [store]       drain a store (the autoscaler's pick when
                             omitted) through live migration; later
                             ticks advance it. exit codes: 0 draining,
                             11 fleet at min stores, 12 another scale
                             action is in flight
  signals                    dump the autoscaler's sample window (fleet
                             high/low-watermark utilization, admission
                             sheds, healing backlog) and the latest
                             per-store signal row (ps shows the same
                             load as TARGET prim/target and UTIL)
  send <group> <file>        send an application to a file (or remote)
  recv <file>                receive an application and restore it
  scrub <backend> [source]   verify every block hash on a store backend,
                             repairing rot from a peer store if given
session helpers:
  boot <counter|redis>       spawn a demo application
  run <n>                    run the scheduler for n quanta
  stat <pid>                 inspect a process
  help | exit`

func main() {
	script := flag.String("c", "", "semicolon-separated commands to run non-interactively")
	flag.Parse()

	out := bufio.NewWriter(os.Stdout)
	s := newSession(out)
	run(s, *script)
	// Flush explicitly: os.Exit skips deferred calls, and the exit code
	// (restore health, see package doc) must reach the caller.
	out.Flush()
	os.Exit(s.code)
}

func run(s *session, script string) {
	if script != "" {
		for _, line := range strings.Split(script, ";") {
			if !s.exec(strings.TrimSpace(line)) {
				return
			}
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	interactive := isTerminal()
	if interactive {
		s.printf("aurora sls — type 'help'\n")
	}
	for {
		if interactive {
			s.printf("sls> ")
			s.out.Flush()
		}
		if !sc.Scan() {
			return
		}
		stop := false
		for _, line := range strings.Split(sc.Text(), ";") {
			if !s.exec(strings.TrimSpace(line)) {
				stop = true
				break
			}
		}
		s.out.Flush()
		if stop {
			return
		}
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
