// Package experiments regenerates every table and figure of the paper's
// evaluation. Each generator is listed under a name in registry.go and
// emits Reports shaped like the paper's plot (same rows/series), so
// results can be compared side by side with the published numbers;
// RunExperiment and RunAll render them as text, JSON or CSV.
//
// Runs are deterministic. The Scale option shrinks the experiment
// self-similarly: the simulated auto-refresh interval, the refresh
// threshold and the per-core request count all scale together, which
// preserves trigger rates and therefore CMRPO/ETO to first order while
// letting the full suite run quickly (Scale=1 reproduces the paper's 64 ms
// intervals; the default 0.25 runs the whole suite in minutes).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// CPUCyclesPerInterval is one 64 ms auto-refresh interval at 3.2 GHz.
const CPUCyclesPerInterval = 204.8e6

// Options configures a generator run.
type Options struct {
	// Scale shrinks interval, threshold and request counts together
	// (1 = paper scale). Values in (0, 1].
	Scale float64
	// Seed drives every stochastic component.
	Seed uint64
	// Workloads restricts the workload set (nil = the paper's 18).
	// Open-loop preset names ("ol-poisson", ...) are accepted too; they
	// select figw's arrival processes, and fill moves them out of
	// Workloads so the closed-loop figures never see them.
	Workloads []string
	// Intervals is the number of auto-refresh intervals each run spans
	// (0 = 1; fill rejects a negative count). DRCAT's advantage over
	// PRCAT — keeping the learned tree across interval boundaries instead
	// of relearning — only shows with several intervals and phase drift.
	Intervals int
	// Quiet suppresses progress lines on long sweeps.
	Quiet bool
	// Progress receives live progress lines during sweeps (nil = none).
	// catsim.ReproduceAll, catsim.RunExperiment and the CLI's text format
	// point it at the output writer, so progress lines interleave with
	// the tables.
	Progress io.Writer
	// LFSRTrials is the Monte-Carlo trial count for the lfsr study
	// (0 = 100; the study rejects a negative count).
	LFSRTrials int
	// Schemes overrides the figx, figt and figw scheme lineups with
	// user-defined specs (the CLI's repeatable -scheme flag). Thresholds
	// still come from the figure's own sweep; a spec's Threshold field is
	// ignored there.
	Schemes []mitigation.SchemeSpec
	// Geometry overrides the baseline dual-core 2-channel system in every
	// workload-grid figure (the CLI's -geometry flag). Figures that sweep
	// explicit per-system geometries (fig11) and the kernel-level studies
	// (fig2, tables) are deliberately unaffected.
	Geometry *dram.GeometrySpec

	// Parallel caps concurrently executing simulation cells
	// (0 = GOMAXPROCS, 1 = the sequential reference path). Results and
	// rendered tables are identical at every setting; only wall-clock
	// changes.
	Parallel int
	// NoCache disables memoization of shared runs (the KindNone
	// baselines every paired cell re-derives).
	NoCache bool
	// Cache shares memoized results across figures. fill() installs a
	// fresh per-generator cache when nil (unless NoCache); ReproduceAll
	// and cmd/experiments install a single cache for the whole suite so
	// e.g. Fig. 9 reuses Fig. 8's paired runs outright.
	Cache *runner.Cache
	// Context cancels in-flight grids (nil = context.Background()).
	Context context.Context

	// openWorkloads is figw's open-loop selection: the ol-* names fill
	// routed out of Workloads (nil = the non-attack presets).
	openWorkloads []string
	// pool recycles run contexts across grid cells so same-shape cells
	// reuse their component stacks instead of rebuilding them (see
	// runner.ContextPool); fill installs it. Results are identical with
	// or without pooling.
	pool *runner.ContextPool
}

func (o *Options) fill() error {
	if o.Scale <= 0 || o.Scale > 1 {
		return fmt.Errorf("experiments: scale %v out of (0,1]", o.Scale)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Workloads) == 0 {
		o.Workloads = trace.WorkloadNames()
	} else {
		// Fail loudly on typos: a silently empty or partial subset would
		// quietly skew every mean in the suite. Open-loop preset names are
		// routed to openWorkloads; the closed-loop figures keep seeing
		// trace workloads only (falling back to the full set when the
		// selection was purely open-loop).
		var closed []string
		for _, name := range o.Workloads {
			if _, err := trace.Lookup(name); err == nil {
				closed = append(closed, name)
				continue
			}
			if _, err := workload.Lookup(name); err == nil {
				o.openWorkloads = append(o.openWorkloads, name)
				continue
			}
			return fmt.Errorf("experiments: unknown workload %q (valid: %s; open-loop: %s)",
				name, strings.Join(trace.WorkloadNames(), ", "),
				strings.Join(workload.Names(), ", "))
		}
		if closed == nil {
			closed = trace.WorkloadNames()
		}
		o.Workloads = closed
	}
	if o.Intervals < 0 {
		return fmt.Errorf("experiments: intervals %d is negative", o.Intervals)
	}
	if o.Intervals == 0 {
		o.Intervals = 1
	}
	if o.Cache == nil && !o.NoCache {
		o.Cache = runner.NewCache()
	}
	if o.pool == nil {
		o.pool = runner.NewContextPool()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return nil
}

// Validate reports the first option a generator would reject: it fills a
// copy of o, as sim.Validate does for a Config, and checks the lfsr
// study's trial count, so a caller can check once before running any
// target. Generators that never fill their options accept more.
func Validate(o Options) error {
	if o.LFSRTrials < 0 {
		return fmt.Errorf("experiments: lfsr trials %d is negative", o.LFSRTrials)
	}
	return o.fill()
}

// engine returns the grid executor for these options. Call after fill.
func (o *Options) engine() *runner.Engine {
	return &runner.Engine{Parallel: o.Parallel, Cache: o.Cache, Contexts: o.pool}
}

// workloadCells returns one grid cell per selected workload, running spec
// at threshold on the baseline system: tagged prefix/<workload>, seeded
// o.Seed+i for the i-th workload, and paired with its baseline when pair
// is set. edit, when non-nil, adjusts each config (fig11's systems). Call
// after fill.
func (o *Options) workloadCells(prefix string, spec sim.SchemeSpec, threshold uint32, pair bool, edit func(*sim.Config)) ([]runner.Cell, error) {
	cells := make([]runner.Cell, len(o.Workloads))
	for i, name := range o.Workloads {
		wl, err := trace.Lookup(name)
		if err != nil {
			return nil, err
		}
		cfg := baseConfig(*o, wl, spec, threshold)
		cfg.Seed = o.Seed + uint64(i)
		if edit != nil {
			edit(&cfg)
		}
		cells[i] = runner.Cell{Tag: prefix + "/" + name, Config: cfg, Pair: pair}
	}
	return cells, nil
}

// lineup resolves the scheme lineup of a study that honours -scheme, and
// how to label entry i at a threshold. The defaults keep their figure
// labels ("DRCAT_64"); user specs (o.Schemes) replace them and are
// labelled by their full spec string, threshold stripped (the sweep
// supplies it), so two specs that differ only in a parameter the figure
// label does not encode (depth, seed, ways, levels) stay distinguishable
// in the table and JSON.
func (o *Options) lineup(defaults []sim.SchemeSpec) ([]sim.SchemeSpec, func(i int, threshold uint32) string, error) {
	if len(o.Schemes) == 0 {
		return defaults, func(i int, threshold uint32) string { return defaults[i].Label(threshold) }, nil
	}
	specs := make([]sim.SchemeSpec, len(o.Schemes))
	for i, ms := range o.Schemes {
		spec, err := sim.FromSpec(ms)
		if err != nil {
			return nil, nil, err
		}
		specs[i] = spec
	}
	return specs, func(i int, _ uint32) string {
		ms := o.Schemes[i]
		ms.Threshold = 0
		return ms.String()
	}, nil
}

// scaledThreshold scales the refresh threshold with the run, keeping
// trigger rates representative (see package comment).
func scaledThreshold(t uint32, scale float64) uint32 {
	s := uint32(math.Round(float64(t) * scale))
	if s < 16 {
		s = 16
	}
	return s
}

// baseConfig assembles a simulation config for one workload at the given
// scale on the dual-core 2-channel baseline system. The refresh threshold
// scales with the run (sim.Config.ThresholdScale documents the rate
// corrections this implies); PRA's probability is pinned to the *unscaled*
// threshold, since that is the hardware parameter the paper pairs with p.
func baseConfig(o Options, wl trace.Spec, spec sim.SchemeSpec, threshold uint32) sim.Config {
	reqPerCore := int(CPUCyclesPerInterval/float64(wl.GapMean)*o.Scale) * o.Intervals
	if reqPerCore < 1000 {
		reqPerCore = 1000
	}
	if spec.Kind == mitigation.KindPRA && spec.PRAProb == 0 {
		spec.PRAProb = mitigation.PRAProbabilityForThreshold(threshold)
	}
	geom := dram.Default2Channel()
	if o.Geometry != nil {
		geom = o.Geometry.Geometry()
	}
	return sim.Config{
		Geometry:        geom,
		Timing:          dram.DDR3_1600(),
		Cores:           2,
		RequestsPerCore: reqPerCore,
		Workload:        wl,
		Scheme:          spec,
		Threshold:       scaledThreshold(threshold, o.Scale),
		ThresholdScale:  o.Scale,
		IntervalNS:      dram.RefreshIntervalNS() * o.Scale,
		Seed:            o.Seed,
	}
}

// simSchemeSpec builds a SchemeSpec with the default CAT depth.
func simSchemeSpec(kind mitigation.Kind, m int) sim.SchemeSpec {
	return sim.SchemeSpec{Kind: kind, Counters: m, MaxLevels: 11}
}

// Cell is one (workload, scheme) measurement.
type Cell struct {
	Workload string
	Scheme   string
	CMRPO    float64
	ETO      float64
	Counts   mitigation.Counts
}

// Mean returns the arithmetic mean of a selector over cells.
func Mean(cells []Cell, f func(Cell) float64) float64 {
	if len(cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cells {
		sum += f(c)
	}
	return sum / float64(len(cells))
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// suiteOf returns the benchmark suite label for a workload name.
func suiteOf(name string) string {
	if s, err := trace.Lookup(name); err == nil {
		return s.Suite
	}
	return "?"
}

// meta snapshots the options (and shared cache) into report metadata.
// Call after fill.
func (o *Options) meta() Meta {
	m := Meta{Scale: o.Scale, Seed: o.Seed, Intervals: o.Intervals, Workloads: o.Workloads}
	if o.Cache != nil {
		m.CacheRuns = len(o.Cache.Runs())
		m.CacheHits = o.Cache.Hits()
	}
	if o.pool != nil {
		m.ContextBuilds, m.ContextReuses = o.pool.Stats()
	}
	return m
}
