// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed wall-clock budget, checks that its outputs
// are correct, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer split) as one JSON object on the last line of standard
// output. Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload tpcc-pair --seed 1 --seconds 20 --trace 0
//
// Every measured repeat runs in a fresh child process (the same binary
// with -child), so each repeat starts from a cold detection cache and an
// empty heap, and its peak resident memory is its own. The parent only
// schedules children, checks their outputs against each other and
// aggregates medians.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outRoot is where results and profiles are kept, relative to the
// directory the benchmark runs from.
const outRoot = ".bench_build/perfbench-out"

// childTimeout bounds one child process; the whole command must end
// within 180 s.
const childTimeout = 120 * time.Second

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"txn_ktps", "ktxn/s", "higher"},
}

// childResult is what one child process reports about its repeat.
type childResult struct {
	Traced bool `json:"traced"`
	// Setups holds the wall time of each complete set-up the child made
	// and Runs the wall time of each run of the workload's fixed work.
	Setups []float64 `json:"setups"`
	Runs   []float64 `json:"runs"`

	TxnKtps float64 `json:"txn_ktps"`

	// Counts are the per-layer counters; Traced holds what only a traced
	// repeat measures: the per-layer host time split and the set-up heap.
	Counts     map[string]float64 `json:"counts"`
	TracedOnly map[string]float64 `json:"traced_only,omitempty"`

	// Fingerprint summarises the deterministic outputs of a simulator
	// repeat; every repeat of one seed must produce the same one.
	Fingerprint string `json:"fingerprint,omitempty"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	PeakRSSMB float64 `json:"peak_rss_mb"` // filled in by the parent
}

// workloadSpec is one named benchmark workload.
type workloadSpec struct {
	name string
	// sizes records the workload's shape in every result.
	sizes map[string]any
	// run executes one child repeat.
	run func(seed uint64, traced bool, outDir string) *childResult
}

func workloads() []*workloadSpec {
	ws := []*workloadSpec{}
	for _, s := range simSpecs {
		ws = append(ws, s.spec())
	}
	return append(ws, serveSpec())
}

func lookupWorkload(name string) (*workloadSpec, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %s)", name, strings.Join(names, ", "))
}

func main() {
	wname := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 20, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run one repeat in this process (untraced|traced)")
	out := flag.String("out", "", "internal: directory for a child's profiles")
	flag.Parse()

	w, err := lookupWorkload(*wname)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if *child != "" {
		res := w.run(*seed, *child == "traced", *out)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	// Results and profiles of the latest run of each (workload, seed,
	// trace) are kept; older ones are replaced.
	outDir := filepath.Join(outRoot, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.RemoveAll(outDir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	os.Exit(parent(w, *seed, *seconds, *trace == 1, outDir))
}

// must turns an error a repeat cannot continue after into a panic, which
// the repeat reports as a failure.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// parent schedules the children, aggregates and prints. It returns the
// process exit code.
func parent(w *workloadSpec, seed uint64, seconds int, traced bool, outDir string) int {
	window := time.Duration(seconds) * time.Second
	var kids []*childResult
	// Repeat until the window is used up, and at least twice so the
	// repeats can be checked against each other. With tracing, traced and
	// untraced repeats alternate.
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < window; i++ {
		kids = append(kids, runChild(w.name, seed, traced && i%2 == 1, outDir, i))
	}

	rep := aggregate(kids, traced)
	rep.Host = hostFacts(seed)
	rep.Sizes = w.sizes
	rep.Children = kids
	if data, err := json.MarshalIndent(rep, "", " "); err == nil {
		_ = os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644)
	}
	printReport(os.Stdout, w.name, rep, traced)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runChild runs one repeat in a child process and reads its result. A
// child that fails to start, crashes or prints garbage becomes a failed
// repeat.
func runChild(workload string, seed uint64, traced bool, outDir string, idx int) *childResult {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	self, err := os.Executable()
	if err != nil {
		return failedChild(traced, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-child", mode, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res childResult
	if runErr != nil {
		return failedChild(traced, fmt.Errorf("child %d: %v", idx, runErr))
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return failedChild(traced, fmt.Errorf("child %d: bad result: %v", idx, err))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res
}

func failedChild(traced bool, err error) *childResult {
	return &childResult{Traced: traced, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
}

// report is the aggregated outcome of one invocation.
type report struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Host      map[string]any     `json:"host"`
	Sizes     map[string]any     `json:"sizes"`
	Children  []*childResult     `json:"children"`
}

func aggregate(kids []*childResult, traced bool) *report {
	rep := &report{EndToEnd: map[string]float64{}}
	var setups, untracedRuns, tracedRuns, rss, ktps []float64
	var ref *childResult
	for _, k := range kids {
		rep.Attempted += k.Attempted
		rep.Failed += k.Failed
		rep.Errors = append(rep.Errors, k.Errors...)
		if k.Failed > 0 && len(k.Runs) == 0 {
			continue
		}
		// Simulator repeats of one seed are deterministic: any
		// disagreement with the first repeat is a failed repeat.
		if ref == nil {
			ref = k
		} else if k.Fingerprint != ref.Fingerprint {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("repeat disagrees with the first: %q vs %q", k.Fingerprint, ref.Fingerprint))
		}
		setups = append(setups, k.Setups...)
		if k.Traced {
			tracedRuns = append(tracedRuns, k.Runs...)
			continue
		}
		untracedRuns = append(untracedRuns, k.Runs...)
		rss = append(rss, k.PeakRSSMB)
		ktps = append(ktps, k.TxnKtps)
	}
	rep.EndToEnd["setup_s"] = median(setups)
	rep.EndToEnd["run_s"] = median(untracedRuns)
	rep.EndToEnd["peak_rss_mb"] = median(rss)
	rep.EndToEnd["txn_ktps"] = median(ktps)
	rep.Correct = rep.Failed == 0 && ref != nil && len(untracedRuns) > 0
	for _, m := range endToEnd {
		if v := rep.EndToEnd[m.Name]; !(v > 0) {
			rep.Correct = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("end-to-end metric %s is %v", m.Name, v))
		}
	}
	overhead := 0.0
	if len(tracedRuns) > 0 && len(untracedRuns) > 0 {
		overhead = median(tracedRuns)/median(untracedRuns) - 1
	} else if traced {
		rep.Correct = false
		rep.Errors = append(rep.Errors, "no traced repeat completed")
	}
	rep.PerLayer = perLayerValues(kids, overhead)
	return rep
}

// perLayerValues assembles the per-layer table: each value is the median
// over the repeats that measure it, traced-only ones over traced repeats
// and counters over untraced ones (simulator counters agree exactly). A
// layer a workload does not exercise reads 0.
func perLayerValues(kids []*childResult, overhead float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		var vs []float64
		for _, k := range kids {
			switch {
			case len(k.Runs) == 0:
			case tracedOnly(m.Name) && k.Traced:
				vs = append(vs, k.TracedOnly[m.Name])
			case !tracedOnly(m.Name) && !k.Traced:
				vs = append(vs, k.Counts[m.Name])
			}
		}
		out[m.Name] = median(vs)
	}
	out["trace.overhead_frac"] = overhead
	return out
}

// tracedOnly reports whether only a traced repeat measures the metric.
func tracedOnly(name string) bool {
	return strings.HasSuffix(name, ".cpu_s") || name == "setup.heap_mb" || name == "trace.overhead_frac"
}

// median returns the median of vs, or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostFacts describes the machine a result was measured on.
func hostFacts(seed uint64) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"seed":       seed,
	}
}

// printReport prints the human-readable tables, then the result object
// as the last line.
func printReport(w io.Writer, workload string, rep *report, traced bool) {
	host, _ := json.Marshal(rep.Host)
	sizes, _ := json.Marshal(rep.Sizes)
	fmt.Fprintf(w, "workload %s  host %s\nsizes %s\n", workload, host, sizes)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "FAIL: %s\n", e)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]out{}
	put := func(table, name, unit string, v float64) {
		fmt.Fprintf(w, "%-10s %-28s %14.6g %s\n", table, name, v, unit)
		metrics[name] = out{v, unit}
	}
	// Both tables are printed; the result line carries the one the
	// trace mode selects. Host-time lines exist only in traced runs.
	for _, m := range endToEnd {
		if traced {
			fmt.Fprintf(w, "%-10s %-28s %14.6g %s\n", "end2end", m.Name, rep.EndToEnd[m.Name], m.Unit)
		} else {
			put("end2end", m.Name, m.Unit, rep.EndToEnd[m.Name])
		}
	}
	for _, m := range perLayer {
		if traced {
			put("per-layer", m.Name, m.Unit, rep.PerLayer[m.Name])
		} else if !tracedOnly(m.Name) {
			fmt.Fprintf(w, "%-10s %-28s %14.6g %s\n", "per-layer", m.Name, rep.PerLayer[m.Name], m.Unit)
		}
	}
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "%-10s %-28s %14.6g %s\n", "check", "fail_frac", frac, "ratio")
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}
