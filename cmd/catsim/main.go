// Command catsim runs one crosstalk-mitigation simulation and reports the
// CMRPO breakdown and execution-time overhead.
//
// Usage:
//
//	catsim -workload black -scheme DRCAT -counters 64 -levels 11 -threshold 32768
//	catsim -workload comm1 -scheme PRA -threshold 16384
//	catsim -workload face -scheme SCA -counters 128 -attack heavy -kernel 3
//
// -scheme also accepts full spec strings (any registered kind, including
// the modern trackers), which override the individual -counters/-levels
// flags; a threshold= param overrides -threshold:
//
//	catsim -workload comm1 -scheme comet:counters=512,depth=4
//	catsim -workload black -scheme drcat:threshold=16384,counters=64,levels=11
//
// Open-loop multi-tenant workloads (the ol-* presets, see -list) replace
// the per-core closed loop with timestamped arrivals over a tenant
// cohort and report per-tenant attribution; -attacker embeds an attacker
// tenant issuing that fraction of all arrivals:
//
//	catsim -workload ol-poisson -scheme DRCAT -attacker 0.1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
	wlpkg "catsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, simulates the scheme and its no-mitigation baseline
// and prints the report, returning the process exit code (2 for usage
// errors, matching flag's convention).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("catsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "comm1", "workload name (see -list)")
		scheme    = fs.String("scheme", "DRCAT", "scheme: SCA, PRA, PRCAT, DRCAT, CC, None")
		counters  = fs.Int("counters", 64, "counters per bank (SCA/CAT) or cache entries (CC)")
		levels    = fs.Int("levels", 11, "maximum CAT levels L")
		threshold = fs.Uint("threshold", 32768, "refresh threshold T")
		praP      = fs.Float64("p", 0, "PRA probability (0 = paper's value for T)")
		cores     = fs.Int("cores", 2, "number of cores")
		quad      = fs.Bool("quad", false, "quad-core geometry (128K rows/bank)")
		fourCh    = fs.Bool("4ch", false, "4-channel parallelism-maximising mapping")
		scale     = fs.Float64("scale", 0.25, "run scale (1 = one full 64 ms interval)")
		seed      = fs.Uint64("seed", 1, "random seed")
		attack    = fs.String("attack", "", "kernel attack mode: heavy, medium, light")
		attacker  = fs.Float64("attacker", 0, "open-loop attacker tenant's fraction of arrivals (ol-* workloads)")
		kernel    = fs.Int("kernel", 0, "kernel attack number (0..11)")
		oracle    = fs.Bool("oracle", false, "attach the crosstalk oracle (verifies protection)")
		parallel  = fs.Int("parallel", 0, "concurrent runs for the scheme/baseline pair (0 = GOMAXPROCS)")
		affine    = fs.Bool("affine", false, "pin core i's stream to channel i mod channels (required by -shards)")
		shards    = fs.Int("shards", 0, "run the channel-partitioned engine with up to N workers (0 = sequential; needs -affine)")
		list      = fs.Bool("list", false, "list workloads and exit")
		geo       dram.GeometrySpec
	)
	fs.Var(&geo, "geometry",
		"geometry spec: a preset with optional overrides, e.g. ddr5 or ddr5:channels=8,rows=128Ki (overrides -quad; see catsim.Geometries)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "catsim:", err)
		return 1
	}

	if *list {
		for _, s := range trace.Workloads() {
			fmt.Fprintf(stdout, "%-8s %-6s gap=%-4d hot=%.2f sweep=%.2f spots=%d\n",
				s.Name, s.Suite, s.GapMean, s.HotFraction, s.SweepFraction, s.HotSpots)
		}
		for _, c := range wlpkg.Presets() {
			fmt.Fprintf(stdout, "%-16s open-loop %s tenants=%d\n", c.Name, c.Arrival, c.Cohort.Tenants)
		}
		return 0
	}
	if *threshold > math.MaxUint32 {
		return fail(fmt.Errorf("-threshold %d out of range (max %d)", *threshold, uint32(math.MaxUint32)))
	}
	if *scale <= 0 || *scale > 1 {
		return fail(fmt.Errorf("-scale %g out of (0, 1]", *scale))
	}

	// Open-loop preset names route to the workload package; everything
	// else is a closed-loop trace workload.
	var wl trace.Spec
	ol, olErr := wlpkg.Lookup(*workload)
	if olErr != nil {
		var err error
		if wl, err = trace.Lookup(*workload); err != nil {
			return fail(err)
		}
	}

	var spec sim.SchemeSpec
	if strings.Contains(*scheme, ":") {
		// Full spec string: one flag carries the whole configuration
		// (any registered kind); a threshold= param overrides -threshold.
		ms, err := mitigation.ParseSpec(*scheme)
		if err != nil {
			return fail(err)
		}
		if spec, err = sim.FromSpec(ms); err != nil {
			return fail(err)
		}
		if ms.Threshold != 0 {
			*threshold = uint(ms.Threshold)
		}
	} else {
		switch strings.ToUpper(*scheme) {
		case "SCA":
			spec = sim.SchemeSpec{Kind: mitigation.KindSCA, Counters: *counters}
		case "PRA":
			spec = sim.SchemeSpec{Kind: mitigation.KindPRA, PRAProb: *praP}
		case "PRCAT":
			spec = sim.SchemeSpec{Kind: mitigation.KindPRCAT, Counters: *counters, MaxLevels: *levels}
		case "DRCAT":
			spec = sim.SchemeSpec{Kind: mitigation.KindDRCAT, Counters: *counters, MaxLevels: *levels}
		case "CC":
			spec = sim.SchemeSpec{Kind: mitigation.KindCounterCache, Counters: *counters}
		case "NONE":
			spec = sim.SchemeSpec{Kind: mitigation.KindNone}
		default:
			return fail(fmt.Errorf("unknown scheme %q (kind names also parse as specs, e.g. comet:counters=512)", *scheme))
		}
	}
	// PRA's p pairs with the unscaled threshold, the hardware parameter
	// the paper tabulates; the builder would pick it from the scaled one.
	if spec.Kind == mitigation.KindPRA && spec.PRAProb == 0 {
		spec.PRAProb = mitigation.PRAProbabilityForThreshold(uint32(*threshold))
	}

	geom := dram.Default2Channel()
	if *quad {
		geom = dram.QuadCore2Channel()
	}
	if *fourCh {
		if *quad {
			geom = dram.QuadCore4Channel()
		} else {
			geom = dram.Default4Channel()
		}
	}
	if geo.Base != "" {
		// An explicit -geometry wins over the legacy -quad/-4ch shorthands
		// (the -4ch mapping policy still applies).
		geom = geo.Geometry()
	}
	cfg := sim.Config{
		Geometry:           geom,
		ChannelInterleaved: *fourCh,
		Scheme:             spec,
		Threshold:          uint32(float64(*threshold) * *scale),
		ThresholdScale:     *scale,
		IntervalNS:         dram.RefreshIntervalNS() * *scale,
		Seed:               *seed,
		CheckProtection:    *oracle,
		ChannelAffine:      *affine,
		Shards:             *shards,
	}
	if olErr == nil {
		// Size the open-loop budget like the closed loop: the mean arrival
		// rate sustained for the scaled auto-refresh interval.
		ol.Requests = int(ol.Arrival.MeanRateRPS() * dram.RefreshIntervalNS() * *scale * 1e-9)
		if ol.Requests < 2000 {
			ol.Requests = 2000
		}
		if *attacker > 0 {
			ol.Cohort.Attacker = &wlpkg.AttackerSpec{
				Fraction: *attacker, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided,
			}
		}
		cfg.OpenLoop = &ol
	} else {
		cfg.Cores = *cores
		cfg.RequestsPerCore = int(204.8e6 / float64(wl.GapMean) * *scale)
		cfg.Workload = wl
		if *attacker > 0 {
			return fail(fmt.Errorf("-attacker needs an open-loop workload (ol-*), got %q", *workload))
		}
	}
	if *attack != "" {
		if olErr == nil {
			return fail(fmt.Errorf("-attack drives closed-loop cores; use -attacker with open-loop workloads"))
		}
		var mode trace.AttackMode
		switch strings.ToLower(*attack) {
		case "heavy":
			mode = trace.Heavy
		case "medium":
			mode = trace.Medium
		case "light":
			mode = trace.Light
		default:
			return fail(fmt.Errorf("unknown attack mode %q", *attack))
		}
		cfg.Attack = &sim.AttackConfig{Kernel: *kernel, Mode: mode}
	}
	if cfg.Threshold < 1 {
		return fail(fmt.Errorf("-threshold %d at -scale %g rounds to zero", *threshold, *scale))
	}
	// Validate once here: the pair below runs the scheme and its baseline
	// on one config, and would report a config error once per half.
	if err := sim.Validate(cfg); err != nil {
		return fail(err)
	}

	// The scheme run and its no-mitigation baseline are independent:
	// runner.Pair executes them concurrently (identical results to
	// sim.RunPair at any -parallel).
	eng := &runner.Engine{Parallel: *parallel, Contexts: runner.NewContextPool()}
	pair, err := eng.Pair(context.Background(), cfg)
	if err != nil {
		return fail(err)
	}
	r, baseline := pair.Result, pair.Baseline
	if olErr == nil {
		fmt.Fprintf(stdout, "workload   %s (open-loop %s, %d requests)\n", ol.Name, ol.Arrival, ol.Requests)
	} else {
		fmt.Fprintf(stdout, "workload   %s (%s)\n", wl.Name, wl.Suite)
	}
	fmt.Fprintf(stdout, "scheme     %s, T=%d (scale %g)\n", spec.Label(uint32(*threshold)), *threshold, *scale)
	fmt.Fprintf(stdout, "exec       %.3f ms (baseline %.3f ms)\n", r.ExecNS/1e6, baseline.ExecNS/1e6)
	fmt.Fprintf(stdout, "activations %d, victim rows refreshed %d (%d commands)\n",
		r.Counts.Activations, r.Counts.RowsRefreshed, r.Counts.RefreshEvents)
	fmt.Fprintf(stdout, "read latency %.1f ns avg\n", r.AvgReadLatencyNS)
	b := r.Breakdown
	fmt.Fprintf(stdout, "CMRPO      %.2f%%  (dynamic %.3f%% static %.3f%% refresh %.3f%% prng %.3f%% miss %.3f%%)\n",
		r.CMRPO*100, b.DynamicMW/2.5*100, b.StaticMW/2.5*100, b.RefreshMW/2.5*100,
		b.PRNGMW/2.5*100, b.MissMW/2.5*100)
	fmt.Fprintf(stdout, "ETO        %.3f%%\n", pair.ETO*100)
	if len(r.Tenants) > 0 {
		var benignActs, benignRows int64
		var hit int
		for _, ts := range r.Tenants {
			if ts.Attacker {
				continue
			}
			benignActs += ts.Acts
			benignRows += ts.RowsRefreshed
			if ts.RowsRefreshed > 0 {
				hit++
			}
		}
		fmt.Fprintf(stdout, "tenants    %d (%d with refreshed rows); benign acts %d, benign rows refreshed %d\n",
			len(r.Tenants), hit, benignActs, benignRows)
		if last := r.Tenants[len(r.Tenants)-1]; last.Attacker {
			fmt.Fprintf(stdout, "attacker   acts %d, rows refreshed in its span %d\n",
				last.Acts, last.RowsRefreshed)
		}
	}
	if *oracle {
		verdict := "protection verified: no victim exceeded T"
		if r.OracleViolations > 0 {
			verdict = fmt.Sprintf("PROTECTION VIOLATED %d times", r.OracleViolations)
		}
		fmt.Fprintf(stdout, "oracle     %s\n", verdict)
	}
	return 0
}
