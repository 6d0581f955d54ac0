// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] [targets...]
//
// Targets come from the experiment registry (experiments -list prints
// them with descriptions); "all" or no targets runs everything in
// canonical order. Unknown targets exit with status 2 and print the
// registry. Scale 1 reproduces full 64 ms intervals; smaller scales
// shrink interval, threshold and traffic together (rates stay
// representative, see internal/experiments).
//
// Output is pluggable: -format text (default, the paper-shaped tables,
// byte-identical to the historical output and locked by golden tests),
// -format json (one JSON array of structured Reports) or -format csv.
// With json/csv, progress lines go to stderr so stdout stays parseable.
//
// The figx protection study sweeps arbitrary user-defined scheme configs
// via the repeatable -scheme flag, e.g.
//
//	experiments -scheme comet:counters=512,depth=4 -scheme drcat:counters=64 figx
//
// Simulation cells run on a deterministic worker pool: -parallel caps the
// concurrency (0 = GOMAXPROCS, 1 = sequential) and the emitted tables are
// byte-identical at every setting. One result cache is shared across all
// requested targets (-cache=false disables it), so fig9 reuses fig8's
// paired runs and each no-mitigation baseline runs exactly once.
//
// -cpuprofile and -memprofile write pprof profiles (CPU during the run,
// heap at exit), making the engine hot path measurable:
//
//	experiments -cpuprofile cpu.pprof -q fig8 && go tool pprof cpu.pprof
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"catsim/internal/dram"
	"catsim/internal/experiments"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable CLI body; it returns the process exit code (named
// so the deferred -memprofile writer can fail the run).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale       = fs.Float64("scale", 0.25, "experiment scale (1 = paper scale)")
		seed        = fs.Uint64("seed", 1, "random seed")
		workloads   = fs.String("workloads", "", "comma-separated workload subset")
		intervals   = fs.Int("intervals", 1, "auto-refresh intervals per run")
		trials      = fs.Int("lfsr-trials", 200, "Monte-Carlo trials for the LFSR study")
		quiet       = fs.Bool("q", false, "suppress progress lines and timings")
		parallel    = fs.Int("parallel", 0, "concurrent simulation cells (0 = GOMAXPROCS, 1 = sequential)")
		cache       = fs.Bool("cache", true, "memoize shared runs (baselines) across figures")
		format      = fs.String("format", "text", "output format: text, json or csv")
		list        = fs.Bool("list", false, "list registered experiments and exit")
		checkReport = fs.String("validate-json", "", "decode a -format json output `file` as []Report and exit")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile to `file`")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile to `file` on exit")
		schemes     mitigation.SpecList
		geo         dram.GeometrySpec
	)
	fs.Var(&schemes, "scheme",
		"scheme spec for the figx sweep, e.g. comet:counters=512,depth=4 (repeatable)")
	fs.Var(&geo, "geometry",
		"geometry spec overriding the baseline system in workload-grid figures, e.g. ddr5:channels=8,rows=128Ki")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Profiling hooks: the engine hot path is measured by running e.g.
	//
	//	experiments -cpuprofile cpu.pprof -q fig8
	//
	// and inspecting with `go tool pprof`. Stops/writes fire on every
	// return path via defer.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			err := writeHeapProfile(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	if *list {
		for _, e := range experiments.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.Name, e.Description)
		}
		return 0
	}
	if *checkReport != "" {
		return validateJSON(*checkReport, stdout, stderr)
	}

	o := experiments.Options{
		Scale: *scale, Seed: *seed, Quiet: *quiet, Intervals: *intervals,
		LFSRTrials: *trials, Parallel: *parallel, NoCache: !*cache,
		Schemes: schemes, Context: ctx,
	}
	if geo.Base != "" {
		o.Geometry = &geo
	}
	if *cache {
		o.Cache = runner.NewCache()
	}
	if *workloads != "" {
		o.Workloads = strings.Split(*workloads, ",")
	}

	targets := fs.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = experiments.Names()
	}
	// Validate every target up front: an unknown one exits 2 with the
	// registry, before any simulation time is spent.
	for _, target := range targets {
		if _, ok := experiments.Lookup(target); !ok {
			fmt.Fprintf(stderr, "experiments: unknown target %q; registered experiments:\n", target)
			for _, e := range experiments.Experiments() {
				fmt.Fprintf(stderr, "  %-10s %s\n", e.Name, e.Description)
			}
			return 2
		}
	}

	var renderer experiments.Renderer
	text := false
	switch *format {
	case "text":
		renderer = experiments.NewTextRenderer(stdout)
		text = true
		if !*quiet {
			o.Progress = stdout
		}
	case "json":
		renderer = experiments.NewJSONRenderer(stdout)
		if !*quiet {
			o.Progress = stderr
		}
	case "csv":
		renderer = experiments.NewCSVRenderer(stdout)
		if !*quiet {
			o.Progress = stderr
		}
	default:
		fmt.Fprintf(stderr, "experiments: unknown format %q (text, json or csv)\n", *format)
		return 2
	}

	if err := experiments.Validate(o); err != nil {
		fmt.Fprintln(stderr, "experiments:", strings.TrimPrefix(err.Error(), "experiments: "))
		return 1
	}
	for _, target := range targets {
		start := time.Now()
		if text {
			fmt.Fprintf(stdout, "==== %s (scale %g) ====\n", target, *scale)
		}
		if err := experiments.RunExperiment(target, o, renderer); err != nil {
			fmt.Fprintln(stderr, "experiments:", strings.TrimPrefix(err.Error(), "experiments: "))
			return 1
		}
		if text {
			if *quiet {
				fmt.Fprintf(stdout, "---- %s done ----\n\n", target)
			} else {
				fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", target, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	if err := renderer.Flush(); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if text && o.Cache != nil && !*quiet {
		fmt.Fprintf(stdout, "result cache: %d simulations run, %d served from cache\n",
			len(o.Cache.Runs()), o.Cache.Hits())
	}
	return 0
}

// writeHeapProfile snapshots the final live set into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialise the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateJSON decodes a -format json output file into []Report — the CI
// golden job's machine-readability check.
func validateJSON(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	var reports []experiments.Report
	if err := json.Unmarshal(data, &reports); err != nil {
		fmt.Fprintf(stderr, "experiments: %s does not decode as []Report: %v\n", path, err)
		return 1
	}
	if len(reports) == 0 {
		fmt.Fprintf(stderr, "experiments: %s decodes to zero reports\n", path)
		return 1
	}
	rows := 0
	for _, r := range reports {
		rows += len(r.Rows)
	}
	fmt.Fprintf(stdout, "%s: %d reports, %d rows ok\n", path, len(reports), rows)
	return 0
}
