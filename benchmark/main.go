// Command benchmark is the repository's performance scoreboard: four
// workloads, each reporting the same end-to-end metrics on two clocks (the
// simulation's virtual clock and this process's wall clock) with tracing
// off, and per-layer metrics from a separate traced pass. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract a change is held to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// result is one workload's reduced numbers.
type result struct {
	Workload     string           `json:"workload"`
	Rounds       int              `json:"rounds"`        // untraced rounds behind end_to_end
	TracedRounds int              `json:"traced_rounds"` // traced rounds behind per_layer
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	EndToEnd     map[string]value `json:"end_to_end,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	trace        []span
}

func (r *result) count(rounds []*roundStats) {
	for _, rs := range rounds {
		r.Attempted += rs.ops
		r.Failed += rs.failed
	}
}

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	scale      float64
	trace      string
	out        string
	repeat     int
	cpuprofile string
	memprofile string
}

// measure runs the passes the options select on one workload. By default
// that is the frozen count of untraced rounds and then a traced pass of
// half as many rounds (every second one traced, so a quarter).
func measure(w *workload, o options) (*result, error) {
	res := &result{Workload: w.name}
	cfg := runConfig{seed: o.seed, seconds: o.seconds}
	if o.seconds <= 0 {
		cfg.rounds = max(2, int(math.Round(float64(w.rounds)*o.scale)))
	}
	if o.trace != "1" {
		rounds, err := runWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		res.count(rounds)
		res.Rounds = len(rounds)
		res.EndToEnd = computeEndToEnd(rounds)
	}
	if o.trace != "0" {
		cfg.trace = true
		if o.trace == "" { // the second pass of a full run is half the size
			cfg.seconds /= 2
			if cfg.rounds > 0 {
				cfg.rounds = max(2, cfg.rounds/2)
			}
		}
		rounds, err := runWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		res.count(rounds)
		traced := pick(rounds, true)
		res.TracedRounds = len(traced)
		res.PerLayer = computePerLayer(traced, pick(rounds, false))
		res.trace = traced[0].spans
	}
	return res, nil
}

// withProfiles runs f under the CPU and heap profiles the options ask for;
// each workload gets its own files.
func withProfiles(o options, name string, f func() error) error {
	if o.cpuprofile != "" {
		file, err := os.Create(fmt.Sprintf("%s-%s.pprof", o.cpuprofile, name))
		if err != nil {
			return err
		}
		defer file.Close()
		if err := pprof.StartCPUProfile(file); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil {
		return err
	}
	if o.memprofile != "" {
		file, err := os.Create(fmt.Sprintf("%s-%s.pprof", o.memprofile, name))
		if err != nil {
			return err
		}
		defer file.Close()
		return pprof.Lookup("allocs").WriteTo(file, 0)
	}
	return nil
}

// printTable prints one block of metrics: name, unit, value, sample count.
func printTable(title string, defs []metricDef, vals map[string]value) {
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Printf("    %-40s %-6s %16.4f  n=%d\n", d.Name, d.Unit, v.V, v.N)
	}
}

func printResult(r *result) {
	fmt.Printf("workload %s: %d ops attempted, %d failed (failed_op_share %.6f)\n",
		r.Workload, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	if r.EndToEnd != nil {
		printTable(fmt.Sprintf("end to end, tracing off, %d rounds", r.Rounds), endToEnd, r.EndToEnd)
		p99 := r.EndToEnd["host_us_per_op_p99"]
		fmt.Printf("    %-40s %-6s %16.4f  n=%d  (not gated)\n", "host_us_per_op_p99", "us", p99.V, p99.N)
	}
	if r.PerLayer != nil {
		printTable(fmt.Sprintf("per layer, traced pass, %d traced rounds", r.TracedRounds), perLayer, r.PerLayer)
	}
}

// contractLine is the last line of standard output when one workload ran
// one pass: the result object the builder contract asks for.
func contractLine(r *result) string {
	defs, vals := endToEnd, r.EndToEnd
	if vals == nil {
		defs, vals = perLayer, r.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{vals[d.Name].V, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// writeOutputs records the run under dir: results.json with the machine it
// ran on, and one Chrome trace per traced workload.
func writeOutputs(dir string, o options, results []*result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	doc := map[string]any{
		"commit": commit, "go_version": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "gogc": gogc,
		"seed": o.seed, "seconds": o.seconds, "scale": o.scale, "results": results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range results {
		if r.trace != nil {
			if err := writeChromeTrace(filepath.Join(dir, "trace-"+r.Workload+".json"), r.trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// printAgreement is the -repeat report: for every (end-to-end metric,
// workload), each run's value, the spread between runs as a share of their
// median, the bound, and whether the bound resolves a change that large.
func printAgreement(runs [][]*result) (unresolved int) {
	fmt.Printf("\nself-agreement over %d runs (spread = (max-min)/median)\n", len(runs))
	for i := range runs[0] {
		for _, d := range endToEnd {
			var vs []float64
			for _, run := range runs {
				vs = append(vs, run[i].EndToEnd[d.Name].V)
			}
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			spread := ratio(sorted[len(sorted)-1]-sorted[0], math.Abs(median(sorted)))
			verdict := "ok"
			if spread > d.Bound {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("  %-14s %-30s %v spread=%.4f bound=%.2f %s\n", runs[0][i].Workload, d.Name, vs, spread, d.Bound, verdict)
		}
	}
	return unresolved
}

func run(o options) error {
	selected := workloads
	if o.workload != "all" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace takes 0 or 1, got %q", o.trace)
	}

	var runs [][]*result
	failed := 0
	for rep := 0; rep < o.repeat; rep++ {
		var results []*result
		for i := range selected {
			w := &selected[i]
			var res *result
			err := withProfiles(o, w.name, func() (err error) {
				res, err = measure(w, o)
				return err
			})
			if err != nil {
				return err
			}
			printResult(res)
			failed += res.Failed
			results = append(results, res)
		}
		runs = append(runs, results)
	}
	last := runs[len(runs)-1]
	if err := writeOutputs(o.out, o, last); err != nil {
		return err
	}
	if o.repeat > 1 && last[0].EndToEnd != nil {
		if n := printAgreement(runs); n > 0 {
			fmt.Printf("%d (metric, workload) pairs UNRESOLVED: the spread between runs exceeds the bound\n", n)
		}
	}
	if len(last) == 1 && o.trace != "" {
		fmt.Println(contractLine(last[0]))
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed or missed the oracle", failed)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "run whole rounds for this long per pass instead of the frozen round count")
	flag.Float64Var(&o.scale, "scale", 1, "multiply the frozen round count (count mode only)")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end pass only; 1: traced pass only; default both")
	flag.StringVar(&o.out, "out", "out", "directory for results.json and trace-<workload>.json")
	flag.IntVar(&o.repeat, "repeat", 1, "run everything N times and report how well the runs agree")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write <prefix>-<workload>.pprof CPU profiles")
	flag.StringVar(&o.memprofile, "memprofile", "", "write <prefix>-<workload>.pprof allocation profiles")
	flag.Parse()
	if flag.NArg() > 0 || o.repeat < 1 || o.scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
