// Command catbench is catsim's end-to-end benchmark. One invocation runs
// one workload in one process:
//
//	catbench -workload fig8 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it times the workload's fixed work with every layer
// untouched and prints the end-to-end metrics; with -trace 1 it instead
// records each layer's inputs on the workload's ledger cells, replays every
// layer alone on them and prints the per-layer metrics. Either way it checks
// the outputs and ends standard output with one JSON line:
//
//	{"correct":true,"attempted":372,"failed":0,"metrics":{"wall_s":{"value":18.4,"unit":"s"},...}}
//
// -repeat N re-runs the command as N child processes with seeds seed..seed+N-1
// and prints each metric's median and interquartile spread (the calibration
// behind the bounds in BENCHMARK.json). See README.md for the workloads, the
// metrics and what each per-layer number should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run prints, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// schemeKeys names the mitigation lineup entries that get their own
// ns-per-activation ledger row.
var schemeKeys = []string{"pra", "sca64", "sca128", "prcat64", "drcat64", "comet2048", "abacus1024", "dsac64"}

// perLayer lists the metrics a -trace 1 run prints, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"engine.ns_per_req", "ns"},
		{"engine.self_ns_per_req", "ns"},
		{"trace.ns_per_req", "ns"},
		{"workload.ns_per_req", "ns"},
		{"workload.attr_ns_per_req", "ns"},
		{"addrmap.ns_per_req", "ns"},
		{"memctrl.ns_per_req", "ns"},
		{"mitigation.ns_per_req", "ns"},
		{"mitigation.oracle_ns_per_req", "ns"},
	}
	for _, k := range schemeKeys {
		defs = append(defs, metricDef{"mitigation.ns_per_act." + k, "ns"})
	}
	return append(defs,
		metricDef{"memctrl.victim_busy_frac", "ratio"},
		metricDef{"memctrl.avg_read_latency_ns", "ns"},
		metricDef{"mitigation.refresh_rows_per_kact", "count"},
		metricDef{"sim.run_us_p50", "us"},
		metricDef{"sim.run_us_p99", "us"},
		metricDef{"sim.fixed_us_per_run", "us"},
		metricDef{"runner.pool_reuse_ratio", "ratio"},
		metricDef{"runner.cache_hit_ratio", "ratio"},
		metricDef{"go.allocs_per_run", "count"},
		metricDef{"go.alloc_bytes_per_run", "B"},
		metricDef{"go.gc_cpu_frac", "ratio"},
		metricDef{"server.submit_ms_p50", "ms"},
		metricDef{"server.first_line_ms_p50", "ms"},
		metricDef{"server.first_line_ms_p95", "ms"},
		metricDef{"server.stream_ms_p50", "ms"},
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.context_reuse_ratio", "ratio"},
		metricDef{"loadgen.late_ms_max", "ms"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
	)
}()

// workloadDef is one benchmark workload: its untraced end-to-end run and
// its traced ledger run.
type workloadDef struct {
	name  string
	e2e   func(b *bench) error
	trace func(b *bench) error
}

var workloads = []workloadDef{
	{"fig8", runFig8, traceFig8},
	{"hammer64", runHammer64, traceHammer64},
	{"sweep8k", runSweep8k, traceSweep8k},
	{"server-ol", runServerOL, traceServerOL},
}

// bench is one invocation's state: its inputs, the operation tally and
// the metrics collected so far.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration
	start   time.Time // main entry

	attempted, failed int
	metrics           map[string]float64
	digest            string // sha256 of the checked outputs (e2e runs)

	setupPre time.Duration // main entry to the first set-up
	setups   []float64     // set-up durations, ns
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// op counts one operation, marking it failed (and saying why on stderr)
// when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "catbench: %s: FAILED: %v\n", b.name, err)
	}
}

// check counts one correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf(format, args...))
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: fig8, hammer64, sweep8k or server-ol")
	seed := flag.Uint64("seed", 1, "input seed (the same seed gives the same inputs)")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer ledger metrics")
	repeat := flag.Int("repeat", 0, "run N child processes with consecutive seeds and print each metric's median and IQR")
	bless := flag.Bool("bless", false, "record this run's output digest in "+digestPath)
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		fmt.Fprintf(os.Stderr, "catbench: unknown workload %q (fig8, hammer64, sweep8k, server-ol)\n", *name)
		os.Exit(2)
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(os.Stderr, "catbench: -trace must be 0 or 1, got %d\n", *traced)
		os.Exit(2)
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "catbench: -seconds must be positive, got %d\n", *seconds)
		os.Exit(2)
	}
	if *repeat > 0 {
		args := []string{"-workload", *name, "-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*traced)}
		if err := repeatRuns(*repeat, *seed, args); err != nil {
			fmt.Fprintf(os.Stderr, "catbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	b := &bench{name: wl.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		start: start, metrics: map[string]float64{}}
	defs := endToEnd
	run := wl.e2e
	if *traced == 1 {
		defs, run = perLayer, wl.trace
	}
	if err := run(b); err != nil {
		b.op(err)
	}
	if *traced == 0 {
		b.checkDigest(*seconds, *bless)
	}
	for _, d := range defs {
		switch v, ok := b.metrics[d.name]; {
		case !ok:
			b.op(fmt.Errorf("metric %s was not measured", d.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			// JSON has no such numbers; a latency is infinite only when
			// jobs failed, which already counts against the run.
			b.op(fmt.Errorf("metric %s is %v", d.name, v))
			delete(b.metrics, d.name)
		}
	}
	if err := printResult(b, defs); err != nil {
		fmt.Fprintf(os.Stderr, "catbench: %v\n", err)
		os.Exit(1)
	}
	if b.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(b *bench, defs []metricDef) error {
	r := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := b.metrics[d.name]; ok {
			r.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// markPeakRSS records peak_rss_mb as the process's peak resident set so
// far. Workloads call it when their timed phase ends, before the
// correctness checks, whose fresh-context re-runs are not the workload.
func (b *bench) markPeakRSS() { b.set("peak_rss_mb", peakRSSMB()) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastHalf returns the indices of the faster (smaller) half of xs,
// rounded up, smallest first.
func fastHalf(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// fastMedian is the median of the faster half of xs: contention on a
// shared host only ever slows work down, so the slower half carries the
// noise.
func fastMedian(xs []float64) float64 {
	var fast []float64
	for _, i := range fastHalf(xs) {
		fast = append(fast, xs[i])
	}
	return median(fast)
}

// percentile is the nearest-rank p-th percentile (p in (0,100]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(p, len(s))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// immune to p*n/100 landing a rounding error above an integer.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest of the usual reporting percentiles
// that still has at least ten of n samples beyond it, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// latencySummary prints a latency sample's size, median and tail to
// stderr: the context job_p50_ms/job_p95_ms need to be read correctly.
func latencySummary(what string, ms []float64) {
	tail := tailPercentile(len(ms))
	msg := fmt.Sprintf("catbench: %s: n=%d p50=%.3fms p95=%.3fms", what, len(ms), percentile(ms, 50), percentile(ms, 95))
	if tail != 0 && tail != 50 && tail != 95 {
		msg += fmt.Sprintf(" p%g=%.3fms (highest percentile with >=10 samples beyond)", tail, percentile(ms, tail))
	}
	fmt.Fprintln(os.Stderr, msg)
}

// repeatRuns runs this command with args n times as child processes with
// seeds seed..seed+n-1 and prints each metric's median and quartile spread.
func repeatRuns(n int, seed uint64, args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < n; i++ {
		run := append([]string{"-seed", strconv.FormatUint(seed+uint64(i), 10)}, args...)
		cmd := exec.Command(exe, run...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (%s): %w", i+1, strings.Join(run, " "), err)
		}
		var r result
		if err := json.Unmarshal(lastLine(out), &r); err != nil {
			return fmt.Errorf("run %d: parse result: %w", i+1, err)
		}
		if !r.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed", i+1, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "catbench: repeat %d/%d done\n", i+1, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s %14s %14s %9s  (n=%d)\n", "metric", "median", "q1", "q3", "iqr/med", n)
	for _, name := range names {
		vs := values[name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-36s %14.6g %14.6g %14.6g %8.2f%%  %s\n", name, med, q1, q3, 100*spread, units[name])
	}
	return nil
}

func lastLine(out []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
