package main

import (
	"fmt"
	"runtime"
	"time"
)

// roundStats is everything one round observed. The runner fills the first
// block, the round's fixture the second.
type roundStats struct {
	traced              bool
	ops, failed         int
	setupNS, measuredNS int64
	opHostNS            []int64
	mallocs, allocBytes uint64
	heapRetained        int64
	delta, end          counters // over the measured phase; at its end
	stopConstNS         int64
	// Traced rounds only. The spans themselves are dropped once the rest is
	// computed, except for the round that becomes the trace file.
	spans       []span
	spanNS      map[string][]int64 // host durations by span name
	selfNS      map[string]int64   // self time by layer
	wireWriteNS int64
	framesSent  int64

	ckpts                    []ckptStats // the checkpoints the virtual metrics cover
	restores, verifyRestores []restoreStats
	dirtyPages, durableBytes int64
	demandFaults, demandVNS  int64
	queuePeak                int
	lagMax                   int64
	codec                    codecProbe
	store                    storeProbe
}

// restoreSet is what restore_vus_p50 and the restore breakdowns cover: the
// ops where restoring is the op, the verification restores elsewhere.
func (rs *roundStats) restoreSet() []restoreStats {
	if len(rs.restores) > 0 {
		return rs.restores
	}
	return rs.verifyRestores
}

// runRound builds a fixture, measures its ops, verifies it and drops it.
// An error means the round could not run at all; failed ops and oracle
// misses are counted in the returned stats instead.
func runRound(w *workload, seed uint64, round int, traced bool) (rs *roundStats, err error) {
	rs = &roundStats{traced: traced, ops: w.ops}
	env := &roundEnv{name: w.name, seed: seed, round: uint64(round), rs: rs}
	if traced {
		env.tr = newTracer()
	}

	t0 := time.Now()
	fx, err := w.setup(env)
	rs.setupNS = time.Since(t0).Nanoseconds()
	if fx != nil {
		defer func() {
			if cerr := fx.machine().close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if err != nil {
		return nil, fmt.Errorf("%s round %d seed %d: set-up: %w", w.name, round, seed, err)
	}
	m := fx.machine()
	rs.stopConstNS = m.stopConstNS()
	rs.opHostNS = make([]int64, 0, w.ops)

	var ms runtime.MemStats
	runtime.GC()
	before := m.counters()
	runtime.ReadMemStats(&ms)
	heap0, mallocs0, alloc0 := ms.HeapAlloc, ms.Mallocs, ms.TotalAlloc

	start := time.Now()
	for i := 0; i < w.ops; i++ {
		t := time.Now()
		root := env.tr.beginOp(int64(i + 1))
		err := fx.op(i, root)
		env.tr.endOp(root)
		rs.opHostNS = append(rs.opHostNS, time.Since(t).Nanoseconds())
		if err != nil {
			env.fail("op %d: %v", i, err)
		}
	}
	fx.drain()
	rs.measuredNS = time.Since(start).Nanoseconds()

	runtime.ReadMemStats(&ms)
	rs.mallocs, rs.allocBytes = ms.Mallocs-mallocs0, ms.TotalAlloc-alloc0
	rs.end = m.counters()
	rs.delta = rs.end.add(before, -1)
	rs.durableBytes += rs.delta.DevBytesWritten + rs.delta.WireBytes
	// What the ops left reachable, with the fixture still live.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rs.heapRetained = int64(ms.HeapAlloc) - int64(heap0)

	if err := fx.verify(); err != nil {
		env.fail("oracle: %v", err)
		rs.failed = rs.ops // a round that fails verification fails every op in it
	}
	rs.failed = min(rs.failed, rs.ops)

	if traced {
		if err := fx.probe(); err != nil {
			return nil, fmt.Errorf("%s round %d seed %d: probe: %w", w.name, round, seed, err)
		}
		rs.spans, rs.wireWriteNS, rs.framesSent = env.tr.finish()
		rs.selfNS = selfTimes(rs.spans)
		rs.spanNS = make(map[string][]int64)
		for _, s := range rs.spans {
			rs.spanNS[s.Name] = append(rs.spanNS[s.Name], s.dur())
		}
	}
	return rs, nil
}

// runConfig sizes one pass over a workload.
type runConfig struct {
	seed uint64
	// rounds > 0 fixes the work by count, so counts and virtual time repeat
	// exactly; otherwise whole rounds run until seconds have passed.
	rounds  int
	seconds float64
	// trace makes every second round a traced one: the traced rounds give
	// the per-layer metrics, the untraced ones between them the reference
	// that trace.overhead_pct compares against.
	trace bool
}

// runWorkload runs one pass and returns its rounds in order. Before them it
// runs one warm-up round that is not measured: the first fixture of a
// process grows the Go heap from nothing and costs half again as much as
// any later one. The warm-up still has to pass its oracle.
func runWorkload(w *workload, cfg runConfig) ([]*roundStats, error) {
	warm, err := runRound(w, cfg.seed, warmupRound, false)
	if err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d ops of the warm-up round failed", w.name, cfg.seed, warm.failed)
	}
	var rounds []*roundStats
	start := time.Now()
	for r := 0; ; r++ {
		if cfg.rounds > 0 {
			if r >= cfg.rounds {
				break
			}
		} else if r >= 2 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		rs, err := runRound(w, cfg.seed, r, cfg.trace && r%2 == 1)
		if err != nil {
			return nil, err
		}
		if r > 1 {
			rs.spans = nil // only the first traced round becomes the trace file
		}
		rounds = append(rounds, rs)
	}
	return rounds, nil
}

// warmupRound is the round number (and so the input stream) of the warm-up.
const warmupRound = 1 << 20

// pick returns the traced or the untraced rounds.
func pick(rounds []*roundStats, traced bool) []*roundStats {
	var out []*roundStats
	for _, rs := range rounds {
		if rs.traced == traced {
			out = append(out, rs)
		}
	}
	return out
}

const (
	usPerNS = 1e-3
	kib     = 1024.0
)

// computeEndToEnd reduces rounds to the end-to-end metrics. Host-clock and
// allocation metrics are medians over rounds or percentiles over all ops,
// so a round disturbed by a noisy neighbour does not move them.
func computeEndToEnd(rounds []*roundStats) map[string]value {
	var (
		setup, rate, allocs, allocKB, retained []float64
		host, stop, durable, restore           []int64
		bytes, dirty                           float64
	)
	for _, rs := range rounds {
		ops := float64(rs.ops)
		setup = append(setup, float64(rs.setupNS)/1e9)
		rate = append(rate, ops/(float64(rs.measuredNS)/1e9))
		allocs = append(allocs, float64(rs.mallocs)/ops)
		allocKB = append(allocKB, float64(rs.allocBytes)/kib/ops)
		retained = append(retained, float64(rs.heapRetained)/kib/ops)
		host = append(host, rs.opHostNS...)
		for _, c := range rs.ckpts {
			stop = append(stop, c.StopNS)
			durable = append(durable, c.StopNS+c.FlushNS)
		}
		for _, r := range rs.restoreSet() {
			restore = append(restore, r.TotalNS)
		}
		bytes += float64(rs.durableBytes)
		dirty += float64(rs.dirtyPages) * pageSize
	}
	n := len(rounds)
	return map[string]value{
		"setup_s":                      {median(setup), n},
		"ops_per_host_s":               {median(rate), n},
		"host_us_per_op_p50":           {quantile(host, 0.50) * usPerNS, len(host)},
		"host_us_per_op_p95":           {quantile(host, 0.95) * usPerNS, len(host)},
		"host_us_per_op_p99":           {quantile(host, 0.99) * usPerNS, len(host)}, // printed, not gated
		"allocs_per_op":                {median(allocs), n},
		"alloc_kb_per_op":              {median(allocKB), n},
		"heap_retained_kb_per_op":      {median(retained), n},
		"stop_vus_p99":                 {quantile(stop, 0.99) * usPerNS, len(stop)},
		"durable_vus_p50":              {quantile(durable, 0.50) * usPerNS, len(durable)},
		"durable_vus_p99":              {quantile(durable, 0.99) * usPerNS, len(durable)},
		"restore_vus_p50":              {quantile(restore, 0.50) * usPerNS, len(restore)},
		"durable_bytes_per_dirty_byte": {ratio(bytes, dirty), n},
	}
}

// computePerLayer reduces the traced rounds to the per-layer metrics;
// reference are the untraced rounds of the same pass. Metrics marked Exact
// need no span, so the function also accepts untraced rounds as `traced`
// (the smoke test compares the two that way).
func computePerLayer(traced, reference []*roundStats) map[string]value {
	var (
		sum                                        counters
		ops, ckpts, restores, pages                float64
		pteOps, metaBytes, objects                 float64
		demandFaults, demandVNS, wireWrite, frames float64
		stop, metaCopy, lazyCopy, flush            []int64
		restoreMeta, restoreMem, restoreRead       []int64
		live, amp, packs                           []float64
		enc, dec, compact, hash, put, read, drop   []float64
		tracedP50, referenceP50                    []float64
		memPeak, queuePeak, lagMax, stopConst      int64
		spanNS                                     = make(map[string][]int64)
		selfNS                                     = make(map[string]int64)
	)
	for _, rs := range traced {
		ops += float64(rs.ops)
		sum = sum.add(rs.delta, +1)
		for _, c := range rs.ckpts {
			ckpts++
			pages += float64(c.Pages)
			pteOps += float64(c.PTEOps)
			metaBytes += float64(c.MetaBytes)
			objects += float64(c.Objects)
			stop = append(stop, c.StopNS)
			metaCopy = append(metaCopy, c.MetaNS)
			lazyCopy = append(lazyCopy, c.LazyNS)
			flush = append(flush, c.FlushNS)
		}
		restores += float64(len(rs.restores))
		for _, r := range rs.restoreSet() {
			restoreMeta = append(restoreMeta, r.MetaNS)
			restoreMem = append(restoreMem, r.MemNS)
			restoreRead = append(restoreRead, r.ReadNS)
		}
		demandFaults += float64(rs.demandFaults)
		demandVNS += float64(rs.demandVNS)
		wireWrite += float64(rs.wireWriteNS)
		frames += float64(rs.framesSent)
		live = append(live, float64(rs.end.LiveBytes))
		amp = append(amp, ratio(float64(rs.end.DevResident), float64(rs.end.LiveBytes)))
		packs = append(packs, float64(rs.end.PackBlocks))
		enc = append(enc, rs.codec.EncodeNS)
		dec = append(dec, rs.codec.DecodeNS)
		compact = append(compact, rs.codec.CompactNS)
		hash = append(hash, rs.codec.HashNS)
		put = append(put, rs.store.PutNS)
		read = append(read, rs.store.ReadNS)
		drop = append(drop, rs.store.DropNS)
		memPeak = max(memPeak, rs.end.MemPeak)
		queuePeak = max(queuePeak, int64(rs.queuePeak))
		lagMax = max(lagMax, rs.lagMax)
		stopConst = rs.stopConstNS
		for name, ds := range rs.spanNS {
			spanNS[name] = append(spanNS[name], ds...)
		}
		for layer, ns := range rs.selfNS {
			selfNS[layer] += ns
		}
		tracedP50 = append(tracedP50, quantile(append([]int64(nil), rs.opHostNS...), 0.5))
	}
	for _, rs := range reference {
		referenceP50 = append(referenceP50, quantile(append([]int64(nil), rs.opHostNS...), 0.5))
	}

	n := len(traced)
	per := func(total, count float64) value { return value{ratio(total, count), n} }
	p50 := func(xs []int64, scale float64) value { return value{quantile(xs, 0.5) * scale, len(xs)} }
	spanSum := func(name string) float64 {
		var t float64
		for _, d := range spanNS[name] {
			t += float64(d)
		}
		return t
	}
	devHost := spanSum("dev.read") + spanSum("dev.write") + spanSum("dev.readbatch") + spanSum("dev.sync")
	quorumAck := value{0, 0}
	if sum.WireBytes > 0 {
		quorumAck = p50(flush, usPerNS)
	}
	overhead := 0.0
	if ref := median(referenceP50); ref > 0 {
		overhead = (median(tracedP50)/ref - 1) * 100
	}

	out := map[string]value{
		"vm.write_host_us_per_op":      per(spanSum("app.write")*usPerNS, ops),
		"vm.cow_faults_per_op":         per(float64(sum.CowFaults), ops),
		"vm.frame_copies_per_op":       per(float64(sum.PageCopies), ops),
		"vm.pte_ops_per_ckpt":          per(pteOps, ckpts),
		"vm.pages_captured_per_ckpt":   per(pages, ckpts),
		"vm.demand_faults_per_restore": per(demandFaults, restores),
		"vm.demand_read_host_us_p50":   p50(spanNS["vm.demand_read"], usPerNS),
		"vm.demand_page_vus_per_fault": per(demandVNS*usPerNS, demandFaults),

		"kernel.run_host_us_per_op":   per(spanSum("kernel.run")*usPerNS, ops),
		"kernel.meta_bytes_per_ckpt":  per(metaBytes, ckpts),
		"kernel.objects_per_ckpt":     per(objects, ckpts),
		"kernel.restore_meta_vus_p50": p50(restoreMeta, usPerNS),
		"kernel.teardown_host_us_p50": p50(spanNS["kernel.teardown"], usPerNS),

		"core.checkpoint_host_us_p50": p50(spanNS["core.checkpoint"], usPerNS),
		"core.stop_const_vus":         {float64(stopConst) * usPerNS, n},
		"core.stop_var_vus_p50":       {(quantile(stop, 0.5) - float64(stopConst)) * usPerNS, len(stop)},
		"core.meta_copy_vus_p50":      p50(metaCopy, usPerNS),
		"core.lazy_copy_vus_p50":      p50(lazyCopy, usPerNS),

		"core.sync_host_us_p50":              p50(spanNS["core.sync"], usPerNS),
		"core.flush_vus_p50":                 p50(flush, usPerNS),
		"core.fleet_dispatches_per_ckpt":     per(float64(sum.Dispatches), ckpts),
		"core.fleet_budget_stalls_per_kckpt": per(float64(sum.BudgetStalls)*1000, ckpts),
		"core.fleet_mem_peak_bytes":          {float64(memPeak), n},
		"core.queue_depth_peak":              {float64(queuePeak), n},
		"core.sheds_per_kop":                 per(float64(sum.Sheds)*1000, ops),
		"core.flush_retries_per_kop":         per(float64(sum.Retries)*1000, ops),

		"core.encode_ns_per_page":        {median(enc), n},
		"core.decode_ns_per_page":        {median(dec), n},
		"core.delta_compact_ns_per_page": {median(compact), n},
		"core.page_hash_ns_per_page":     {median(hash), n},

		"core.restore_host_us_p50":    p50(spanNS["core.restore"], usPerNS),
		"core.restore_memory_vus_p50": p50(restoreMem, usPerNS),
		"core.restore_read_vus_p50":   p50(restoreRead, usPerNS),

		"objstore.dedup_hit_ratio":       per(float64(sum.DedupHits), pages),
		"objstore.blocks_freed_per_op":   per(float64(sum.BlocksFreed), ops),
		"objstore.epochs_dropped_per_op": per(float64(sum.EpochsDropped), ops),
		"objstore.live_bytes_end":        {median(live), n},
		"objstore.space_amp":             {median(amp), n},
		"objstore.pack_blocks_end":       {median(packs), n},
		"objstore.put_ns_per_page":       {median(put), n},
		"objstore.read_ns_per_page":      {median(read), n},
		"objstore.drop_epoch_ns":         {median(drop), n},

		"storage.dev_writes_per_op":        per(float64(sum.DevWrites), ops),
		"storage.dev_bytes_written_per_op": per(float64(sum.DevBytesWritten), ops),
		"storage.dev_reads_per_op":         per(float64(sum.DevReads), ops),
		"storage.dev_syncs_per_op":         per(float64(sum.DevSyncs), ops),
		"storage.dev_busy_vus_per_op":      per(float64(sum.DevBusy)*usPerNS, ops),
		"storage.dev_host_us_per_op":       per(devHost*usPerNS, ops),

		"netback.wire_bytes_per_ckpt":       per(float64(sum.WireBytes), ckpts),
		"netback.frames_per_ckpt":           per(frames, ckpts),
		"netback.pages_skipped_ratio":       per(float64(sum.PagesSkipped), float64(sum.PagesSent+sum.PagesSkipped)),
		"netback.need_resends_per_kckpt":    per(float64(sum.NeedResends)*1000, ckpts),
		"netback.ack_roundtrip_host_us_p50": p50(spanNS["wire.roundtrip"], usPerNS),
		"netback.wire_write_host_us_per_op": per(wireWrite*usPerNS, ops),
		"netback.quorum_ack_vus_p50":        quorumAck,
		"netback.slow_link_lag_epochs_max":  {float64(lagMax), n},

		"trace.overhead_pct": {overhead, n},
	}
	for _, layer := range spanLayers {
		out[layer+".self_host_us_per_op"] = per(float64(selfNS[layer])*usPerNS, ops)
	}
	return out
}
