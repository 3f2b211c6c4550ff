// Package aurora's root test is the baseline table: one row per
// committed BENCH_*.json in this directory. A row names the sweep in
// internal/bench that produces its file, the parameters the file echoes,
// and its wander list — the fields the Go scheduler still decides
// (ROADMAP item 0), each with the bound it is held to.
//
// Plain `go test .` runs every row's sweep once and compares it with
// the committed file: every field must match to the digit, except a
// wander field, which must stay inside its bound. `make bench` runs the
// same test with -update, which writes the files instead; a wander field
// whose committed and fresh values are both in bound keeps the committed
// one, so two regenerations give the same bytes.
//
// Every number is virtual time or a count from the simulated machine;
// wall-clock costs live in benchmark/ (`make perf`). The paper row runs
// a scaled 64 MiB working set; cmd/aurora-bench -ws 2147483648 runs the
// paper's 2 GiB.
package aurora

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"aurora/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the committed BENCH_*.json baselines from fresh runs instead of checking them")

// row is one committed baseline, BENCH_<name>.json.
type row struct {
	name   string              // file stem and subtest name
	label  string              // the file's "benchmark" key
	header map[string]any      // sweep parameters echoed at the top level
	run    func() (any, error) // the sweep: its points, or one flat report
	wander []wander
}

// wander is a field the Go scheduler decides today: wherever its key
// appears in the row's file, the fresh value must lie in [lo, hi]
// instead of matching the baseline.
type wander struct {
	key    string
	lo, hi float64
}

var (
	rates     = []float64{0, 0.01, 0.05}
	seed42    = map[string]any{"seed": 42}
	migSeeds  = []int64{1, 7, 42}
	plcStores = []int{2, 4, 8}
)

var rows = []row{
	// Tables 3 and 4, the §2–§4 claims and the design ablations.
	{name: "paper", label: "paper",
		run: func() (any, error) { return bench.Paper(64 << 20) }},
	// The background flush pipeline on the LSM store: stop vs
	// checkpoint+flush.
	{name: "pipeline", label: "pipeline-kvlsm",
		run: func() (any, error) { return bench.PipelineKVLSM(500, 50) },
		// How many epochs one flush batches depends on when the flusher
		// goroutine runs.
		wander: []wander{{"total_flush_us", 100, 700}, {"ckpt_plus_flush_us", 2600, 3300},
			{"max_full_us", 250, 800}, {"peak_queue_depth", 1, 10}}},
	// Checkpoint throughput with a faulty primary store beside a clean
	// secondary.
	{name: "faults", label: "fault-matrix", header: seed42,
		run: func() (any, error) { return bench.FaultSweep(100, rates, 42) }},
	// Time to recover a lazy restore whose primary read-faults, failing
	// over to a clean secondary; rate 1 is a dead primary.
	{name: "recovery", label: "recovery-matrix", header: seed42,
		run: func() (any, error) { return bench.RecoverySweep(20, []float64{0, 0.01, 0.05, 1}, 42) }},
	// The whole-system chaos schedule per link fault rate.
	{name: "chaos", label: "chaos-matrix", header: seed42,
		run: func() (any, error) { return bench.ChaosSweep(rates, 42) }},
	// Sustained checkpointing on an unbounded device and on devices
	// sized to 20, 10 and 5 epochs.
	{name: "space", label: "space-matrix", header: seed42,
		run: func() (any, error) { return bench.SpaceSweep(120, []int{0, 20, 10, 5}, 42) },
		// On a bounded device, which barriers are shed and when the
		// reclaimer runs depend on when the flusher goroutine retires
		// epochs; the unbounded cell's values lie inside every bound.
		wander: []wander{{"admitted", 60, 120}, {"durable_epoch", 60, 120}, {"sheds", 0, 60},
			{"scans", 0, 240}, {"emergency_scans", 0, 20}, {"epochs_reclaimed", 0, 120},
			{"bytes_reclaimed", 0, 1 << 20}, {"retained_epochs", 1, 120}, {"final_usage", 0, 1},
			{"max_usage", 0, 1}, {"ckpt_per_vsec", 3900, 4000}}},
	// An open-loop checkpoint storm across a growing fleet on the fixed
	// shard-worker pool.
	{name: "fleet", label: "fleet-storm", header: seed42,
		run: func() (any, error) { return bench.FleetStorm([]int{16, 64, 256}, 8, 42) },
		// The shard workers' interleaving decides how many flushes wait on
		// the 1 MiB fleet memory budget and how close they get to it.
		wander: []wander{{"budget_stalls", 0, 4096}, {"mem_peak", 0, 1 << 20}}},
	// Replica count × link fault rate under majority write quorums.
	{name: "quorum", label: "quorum-matrix", header: seed42,
		run: func() (any, error) { return bench.QuorumSweep(40, []int{1, 3, 5}, rates, 42) }},
	// Seed × fault rate over chained live migrations and a standby
	// promotion.
	{name: "migrate", label: "migrate-matrix", header: map[string]any{"seeds": migSeeds},
		run: func() (any, error) { return bench.MigrateSweep(migSeeds, rates) }},
	// Fleet size × fault rate over store kill, evacuation and drain.
	{name: "placement", label: "placement-matrix", header: map[string]any{"seed": 42, "stores": plcStores},
		run: func() (any, error) { return bench.PlacementSweep(32, plcStores, rates, 42) }},
	// Fault rate over the 2→peak→2 scale storm.
	{name: "autoscale", label: "autoscale-matrix", header: map[string]any{"seed": 42, "groups": 24},
		run: func() (any, error) { return bench.AutoscaleSweep(24, rates, 42) }},
}

func (r row) file() string { return "BENCH_" + r.name + ".json" }

// TestBaselines runs every row's sweep and checks it against its
// committed file, or under -update rewrites the file.
func TestBaselines(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range orphans(files) {
		t.Errorf("%s: no row of the baseline table writes it", f)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got, err := r.doc()
			if err != nil {
				t.Fatal(err)
			}
			base, err := readDoc(r.file())
			if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
				t.Fatal(err)
			}
			keep, msgs := r.diff("", "", base, got)
			if !*update {
				for _, m := range msgs {
					t.Error(m)
				}
				return
			}
			out, err := json.MarshalIndent(keep, "", "  ")
			if err == nil {
				err = os.WriteFile(r.file(), append(out, '\n'), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// orphans returns the baseline files no row writes.
func orphans(files []string) []string {
	var out []string
	for _, f := range files {
		if !slices.ContainsFunc(rows, func(r row) bool { return r.file() == f }) {
			out = append(out, f)
		}
	}
	return out
}

// doc runs the row's sweep and lays out its file: the label, the header,
// and the report — a flat report's own keys, or a matrix's "points".
func (r row) doc() (any, error) {
	rep, err := r.run()
	if err != nil {
		return nil, err
	}
	v, err := tree(json.Marshal(rep))
	if err != nil {
		return nil, err
	}
	doc := map[string]any{"benchmark": r.label}
	for k, h := range r.header {
		doc[k] = h
	}
	if fields, ok := v.(map[string]any); ok {
		for k, f := range fields {
			doc[k] = f
		}
	} else {
		doc["points"] = v
	}
	return tree(json.Marshal(doc))
}

func readDoc(file string) (any, error) { return tree(os.ReadFile(file)) }

// tree decodes JSON keeping every number as the literal it was written
// as, so two trees compare by the digits a baseline file holds, and
// marshal back with each object's keys sorted: a file's bytes depend
// only on its values.
func tree(data []byte, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	return v, dec.Decode(&v)
}

// diff walks a committed baseline and a fresh run side by side, at path
// (the field's place in the file) under key (its last object key). It
// returns what -update writes — the run, except that a wander field
// whose committed and fresh values are both in bound keeps the
// committed one — and one message per difference the check refuses.
func (r row) diff(path, key string, base, got any) (any, []string) {
	var msgs []string
	switch g := got.(type) {
	case map[string]any:
		b, _ := base.(map[string]any)
		at := func(k string) string {
			if path == "" {
				return k
			}
			return path + "." + k
		}
		keep := make(map[string]any, len(g))
		for k, v := range g {
			if _, ok := b[k]; !ok {
				keep[k] = v
				msgs = append(msgs, r.msg(at(k), "is not in the baseline"))
				continue
			}
			var m []string
			keep[k], m = r.diff(at(k), k, b[k], v)
			msgs = append(msgs, m...)
		}
		for k := range b {
			if _, ok := g[k]; !ok {
				msgs = append(msgs, r.msg(at(k), "is missing from the run"))
			}
		}
		sort.Strings(msgs)
		return keep, msgs
	case []any:
		b, _ := base.([]any)
		if len(b) != len(g) {
			return got, []string{r.msg(path, "has %d entries, the baseline %d", len(g), len(b))}
		}
		keep := make([]any, len(g))
		for i := range g {
			var m []string
			keep[i], m = r.diff(fmt.Sprintf("%s[%d]", path, i), key, b[i], g[i])
			msgs = append(msgs, m...)
		}
		return keep, msgs
	}
	if reflect.DeepEqual(base, got) {
		return got, nil
	}
	for _, w := range r.wander {
		if w.key != key {
			continue
		}
		if !w.holds(got) {
			return got, []string{r.msg(path, "= %v, outside its wander bound [%g, %g] (baseline %v)", got, w.lo, w.hi, base)}
		}
		if w.holds(base) {
			return base, nil
		}
		return got, nil
	}
	return got, []string{r.msg(path, "= %v, baseline %v", got, base)}
}

func (w wander) holds(v any) bool {
	n, _ := v.(json.Number)
	f, err := n.Float64()
	return err == nil && w.lo <= f && f <= w.hi
}

func (r row) msg(path, format string, args ...any) string {
	return fmt.Sprintf("%s, row %s: %s ", r.file(), r.name, path) + fmt.Sprintf(format, args...)
}

// TestBaselineOrphanFails: a BENCH_*.json that no row writes is
// reported, so no baseline outlives its sweep unchecked.
func TestBaselineOrphanFails(t *testing.T) {
	if got := orphans([]string{"BENCH_quorum.json", "BENCH_retired.json"}); !slices.Equal(got, []string{"BENCH_retired.json"}) {
		t.Fatalf("orphans = %v, want [BENCH_retired.json]", got)
	}
}

// TestBaselineDriftNamesTheField: one value off by a digit fails with a
// message naming the file, the row and the field.
func TestBaselineDriftNamesTheField(t *testing.T) {
	r, base, got := committed(t, "quorum")
	point(got, 4)["durable_med_us"] = json.Number("43.297")
	_, msgs := r.diff("", "", base, got)
	want := "BENCH_quorum.json, row quorum: points[4].durable_med_us = 43.297, baseline "
	if len(msgs) != 1 || !strings.HasPrefix(msgs[0], want) {
		t.Fatalf("messages %q, want one starting %q", msgs, want)
	}
}

// TestBaselineWanderBound: a wander field may move inside its bound —
// and a regeneration then keeps the committed value — but outside it
// fails like any other field.
func TestBaselineWanderBound(t *testing.T) {
	r, base, got := committed(t, "fleet")
	w := r.wander[0]
	point(got, 2)[w.key] = json.Number(fmt.Sprint(w.lo))
	if keep, msgs := r.diff("", "", base, got); len(msgs) != 0 || !reflect.DeepEqual(keep, base) {
		t.Fatalf("%s = %g (in bound): messages %q, kept baseline %v", w.key, w.lo, msgs, reflect.DeepEqual(keep, base))
	}
	point(got, 2)[w.key] = json.Number(fmt.Sprint(w.hi + 1))
	_, msgs := r.diff("", "", base, got)
	want := fmt.Sprintf("BENCH_fleet.json, row fleet: points[2].%s = %g, outside its wander bound", w.key, w.hi+1)
	if len(msgs) != 1 || !strings.HasPrefix(msgs[0], want) {
		t.Fatalf("messages %q, want one starting %q", msgs, want)
	}
}

// committed returns the named row and two decoded copies of its file.
func committed(t *testing.T, name string) (r row, base, got any) {
	t.Helper()
	r = rows[slices.IndexFunc(rows, func(r row) bool { return r.name == name })]
	base, err := readDoc(r.file())
	if err == nil {
		got, err = readDoc(r.file())
	}
	if err != nil {
		t.Fatal(err)
	}
	return r, base, got
}

func point(doc any, i int) map[string]any {
	return doc.(map[string]any)["points"].([]any)[i].(map[string]any)
}
