package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tiny returns a copy of a workload cut down to a few ops a round.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.ops = map[string]int{"redis-incr": 4, "fleet-small": 2 * fleetSize, "quorum3-incr": 4, "restore-churn": 3}[name]
	return &c
}

func runTiny(t *testing.T, w *workload, seed uint64, r int, traced bool) *roundStats {
	t.Helper()
	rs, err := runRound(w, seed, r, traced)
	if err != nil {
		t.Fatal(err)
	}
	if rs.failed != 0 {
		t.Fatalf("%s round %d: %d of %d ops failed", w.name, r, rs.failed, rs.ops)
	}
	return rs
}

// exact returns the metrics of vals that must repeat bit for bit.
func exact(defs []metricDef, vals map[string]value) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range defs {
		if d.Exact {
			out[d.Name] = vals[d.Name].V
		}
	}
	return out
}

func TestWorkloads(t *testing.T) {
	cow := make(map[string]float64)
	for _, w := range workloads {
		w := tiny(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			// The same round three times: twice untraced, once traced.
			a1, again, b1 := runTiny(t, w, 7, 1, false), runTiny(t, w, 7, 1, false), runTiny(t, w, 7, 1, true)

			e2e := computeEndToEnd([]*roundStats{a1, again})
			for _, d := range endToEnd {
				if v, ok := e2e[d.Name]; !ok || v.V == 0 {
					t.Errorf("end-to-end metric %s: got %v, want a value that is never 0", d.Name, v)
				}
			}
			layers := computePerLayer([]*roundStats{b1}, []*roundStats{a1})
			for _, d := range perLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("per-layer metric %s is not emitted", d.Name)
				}
			}
			if len(layers) != len(perLayer) {
				t.Errorf("computePerLayer emits %d metrics, perLayer names %d", len(layers), len(perLayer))
			}
			cow[w.name] = layers["vm.cow_faults_per_op"].V

			// Each workload bypasses what its row in the README says.
			for name, v := range layers {
				if strings.HasPrefix(name, "netback.") && (v.V != 0) != (w.name == "quorum3-incr") && name != "netback.slow_link_lag_epochs_max" && name != "netback.need_resends_per_kckpt" {
					t.Errorf("%s = %v on %s", name, v.V, w.name)
				}
				if (strings.HasPrefix(name, "objstore.") || strings.HasPrefix(name, "storage.")) && w.name == "quorum3-incr" && v.V != 0 {
					t.Errorf("%s = %v on a workload without a store", name, v.V)
				}
			}

			if w.name == "fleet-small" {
				return // flush interleaving is the Go scheduler's there
			}
			// Same seed, same inputs: virtual time and counts repeat.
			if got, want := exact(endToEnd, computeEndToEnd([]*roundStats{again})), exact(endToEnd, computeEndToEnd([]*roundStats{a1})); !reflect.DeepEqual(got, want) {
				t.Errorf("same seed, different end-to-end numbers:\n got %v\nwant %v", got, want)
			}
			// The decorators of a traced round must not perturb the simulation.
			if got, want := exact(endToEnd, computeEndToEnd([]*roundStats{b1})), exact(endToEnd, computeEndToEnd([]*roundStats{a1})); !reflect.DeepEqual(got, want) {
				t.Errorf("traced round differs end to end:\n got %v\nwant %v", got, want)
			}
			if got, want := exact(perLayer, layers), exact(perLayer, computePerLayer([]*roundStats{a1}, nil)); !reflect.DeepEqual(got, want) {
				t.Errorf("traced round differs per layer:\n got %v\nwant %v", got, want)
			}
		})
	}
	if r, f := cow["redis-incr"], cow["fleet-small"]; r == 0 || f >= 0.02*r {
		t.Errorf("vm.cow_faults_per_op: fleet-small %v, redis-incr %v; want fleet-small under 2%%", f, r)
	}
}

func TestSeedPicksThePages(t *testing.T) {
	sample := func(seed uint64) []int {
		env := &roundEnv{seed: seed}
		d := newDirtier(env.rng(2), &lineage{pages: quorumPages, dirtyLo: 80})
		return append([]int(nil), d.sample(quorumDirty)...)
	}
	if !reflect.DeepEqual(sample(1), sample(1)) {
		t.Error("the same seed dirtied different pages")
	}
	if reflect.DeepEqual(sample(1), sample(2)) {
		t.Error("different seeds dirtied the same pages")
	}
	seen := make(map[int]bool)
	for _, p := range sample(3) {
		if p < 80+patterns || p >= quorumPages || seen[p] {
			t.Fatalf("page %d is out of range or drawn twice", p)
		}
		seen[p] = true
	}
}

// TestNamesMatchBenchmarkJSON keeps the names, units, directions and bounds
// in code equal to the contract at the repository root.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	entries := func(defs []metricDef) []entry {
		out := make([]entry, len(defs))
		for i, d := range defs {
			out[i] = entry{d.Name, d.Unit, d.Better, d.Bound}
		}
		return out
	}
	if got, want := doc.EndToEnd, entries(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n json %v\n code %v", got, want)
	}
	if got, want := doc.PerLayer, entries(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n json %v\n code %v", got, want)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: json %q, code %q", i, doc.Workloads[i].Name, w.name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) is malformed or named twice", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
}

// TestOnlySutImportsTheSystem holds the adapter rule: one file to edit when
// an internal API moves.
func TestOnlySutImportsTheSystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "aurora/internal/") && file != "sut.go" {
				t.Errorf("%s imports %s; only sut.go may", file, imp.Path.Value)
			}
		}
	}
}

// TestOutputs drives the command's own path at tiny scale: both passes, the
// result line, results.json and the trace, all under a temporary directory.
func TestOutputs(t *testing.T) {
	w := tiny(t, "fleet-small")
	o := options{workload: w.name, seed: 3, scale: 0.01, out: t.TempDir(), repeat: 1}
	res, err := measure(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Rounds != 2 || res.TracedRounds != 1 || res.trace == nil {
		t.Fatalf("failed=%d rounds=%d traced=%d trace=%d spans", res.Failed, res.Rounds, res.TracedRounds, len(res.trace))
	}
	if err := writeOutputs(o.out, o, []*result{res}); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"results.json", "trace-fleet-small.json"} {
		data, err := os.ReadFile(filepath.Join(o.out, file))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON", file)
		}
	}

	res.PerLayer = nil // what -trace 0 leaves
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line: %+v", line)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "driver", HostStart: 0, HostEnd: 100},
		{ID: 2, Parent: 1, Layer: "core", HostStart: 10, HostEnd: 60},
		{ID: 3, Parent: 2, Layer: "storage", HostStart: 5, HostEnd: 30},  // starts before its parent: clipped
		{ID: 4, Parent: 2, Layer: "storage", HostStart: 20, HostEnd: 40}, // overlaps span 3
		{ID: 5, Parent: 1, Layer: "vm", HostStart: 70, HostEnd: 90},
	}
	want := map[string]int64{"driver": 100 - 50 - 20, "core": 50 - 30, "storage": 25 + 20, "vm": 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFrameScanner(t *testing.T) {
	frame := func(n int) []byte {
		b := make([]byte, frameHdrSize+n)
		b[1] = byte(n)
		return b
	}
	stream := append(append(frame(5), frame(0)...), frame(300&0xff)...)
	var s frameScanner
	started, ended := 0, 0
	for len(stream) > 0 { // feed it in awkward chunks
		n := min(7, len(stream))
		a, b := s.feed(stream[:n])
		started, ended = started+a, ended+b
		stream = stream[n:]
	}
	if started != 3 || ended != 3 {
		t.Errorf("started %d ended %d, want 3 and 3", started, ended)
	}
}
