package experiments

import (
	"fmt"
	"slices"
)

// The experiment registry is the one way to run a generator: registry
// lists every generator, and every caller — catsim.ReproduceAll, the
// cmd/experiments CLI, the golden-file tests — runs it by name through
// RunExperiment or RunAll into a Renderer, so a generator is reachable
// everywhere once it is listed there.

// RunFunc measures one experiment and emits its report(s) as each
// completes, so text rendering interleaves with the generator's live
// progress lines (Options.Progress).
type RunFunc func(o Options, emit func(*Report) error) error

// single adapts a generator that builds one report (plus the data points
// behind it, which tests inspect) to a RunFunc.
func single[P any](build func(Options) (P, *Report, error)) RunFunc {
	return func(o Options, emit func(*Report) error) error {
		_, rep, err := build(o)
		if err != nil {
			return err
		}
		return emit(rep)
	}
}

// Experiment is one generator.
type Experiment struct {
	// Name is the CLI target ("fig8", "ablations", ...).
	Name string
	// Description is the one-line summary shown by -list.
	Description string
	// Run measures and emits the experiment's reports.
	Run RunFunc
}

// registry lists every generator in presentation order: the paper's
// tables and figures, then the beyond-paper studies.
var registry = []Experiment{
	{
		Name:        "table1",
		Description: "system configuration as wired into the simulator defaults (paper Table I)",
		Run:         func(_ Options, emit func(*Report) error) error { return emit(table1Report()) },
	},
	{
		Name:        "table2",
		Description: "hardware energy and area for M=32..512 plus the PRNG spec (paper Table II)",
		Run:         single(func(Options) ([]Table2Row, *Report, error) { return table2Report() }),
	},
	{
		Name:        "fig1",
		Description: "PRA 5-year unsurvivability grid vs the Chipkill reference (paper Fig. 1)",
		Run:         single(func(Options) ([]Fig1Point, *Report, error) { return fig1Report() }),
	},
	{
		Name:        "lfsr",
		Description: "Monte-Carlo collapse of PRA's guarantee under LFSR PRNGs (paper §III-A)",
		Run:         single(func(o Options) (LFSRStudyResult, *Report, error) { return lfsrReport(o.LFSRTrials) }),
	},
	{
		Name:        "fig2",
		Description: "SCA energy-breakdown sweep (M=16..64K) with counter-cache reference lines (paper Fig. 2)",
		Run:         single(fig2Report),
	},
	{
		Name:        "fig3",
		Description: "row-access frequency skew in the hottest DRAM bank (paper Fig. 3)",
		Run:         single(fig3Report),
	},
	{
		Name:        "fig8",
		Description: "per-workload CMRPO matrix for the paper's scheme lineup at T=32K/16K (paper Fig. 8)",
		Run:         fig8Reports,
	},
	{
		Name:        "fig9",
		Description: "per-workload execution-time overhead from the Fig. 8 runs (paper Fig. 9)",
		Run:         fig9Reports,
	},
	{
		Name:        "fig10",
		Description: "DRCAT counter/depth sensitivity sweep with SCA references at T=32K/16K (paper Fig. 10)",
		Run:         fig10Reports,
	},
	{
		Name:        "fig11",
		Description: "CMRPO by system size and mapping policy at T=32K/16K (paper Fig. 11, §VIII-B)",
		Run:         fig11Reports,
	},
	{
		Name:        "fig12",
		Description: "refresh-threshold sensitivity 64K..8K with the paper's per-threshold lineups (paper Fig. 12)",
		Run:         single(fig12Report),
	},
	{
		Name:        "fig13",
		Description: "ETO of benign workloads under blended kernel attacks (paper Fig. 13, §VIII-D)",
		Run:         single(fig13Report),
	},
	{
		Name:        "figx",
		Description: "beyond-paper overhead-vs-protection study: scheme x threshold x adversarial pattern, oracle-checked (-scheme overrides the lineup)",
		Run:         single(figxReport),
	},
	{
		Name:        "figt",
		Description: "beyond-paper time-series study: per-epoch adaptation dynamics and missed-victim exposure across attack onset (-scheme overrides the lineup)",
		Run:         single(figtReport),
	},
	{
		Name:        "figw",
		Description: "open-loop multi-tenant study: scheme x arrival process x attacker fraction, per-tenant attribution (-scheme overrides the lineup)",
		Run:         single(figwReport),
	},
	{
		Name:        "ablations",
		Description: "beyond-paper design-choice ablations: ladder model, weight bits, pre-split depth, counter-cache baseline",
		Run:         ablationsReports,
	},
	{
		Name:        "headlines",
		Description: "programmatic verdicts on the paper's key comparative claims",
		Run:         single(headlinesReport),
	},
}

// Experiments returns every generator in presentation order.
func Experiments() []Experiment { return slices.Clone(registry) }

// Names returns the experiment names in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a generator by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment measures one experiment and streams its reports into the
// renderer (the caller flushes the renderer once all targets ran).
func RunExperiment(name string, o Options, r Renderer) error {
	e, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (registered: %v)", name, Names())
	}
	return e.Run(o, r.Report)
}

// RunAll runs every experiment in presentation order into the renderer. Callers wanting cross-experiment run sharing install a cache
// in o (ReproduceAll and the CLI both do).
func RunAll(o Options, r Renderer) error {
	for _, e := range registry {
		if err := e.Run(o, r.Report); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
