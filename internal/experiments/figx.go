package experiments

import (
	"fmt"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// The figx experiment is the beyond-the-paper protection study the 2018
// evaluation could not run: the adaptive tree (DRCAT) against its 2018
// contemporaries (SCA, counter cache) and the modern tracker generation
// (CoMeT, ABACuS, DSAC) under adversarial attack patterns (double-sided,
// many-sided, bank-sweep — plus the paper's Gaussian kernels as the
// reference), sweeping scheme × refresh threshold × pattern on the shared
// runner grid. Every run attaches the crosstalk oracle, so the rendered
// table pairs each scheme's overhead (CMRPO, ETO) with its measured
// protection (missed-victim rate, violations): the deterministic trackers
// must show zero misses at any overhead, while DSAC's misses quantify what
// its cheapness costs under pressure.

// FigXPoint is one row of the overhead-vs-protection table.
type FigXPoint struct {
	Threshold     uint32
	Pattern       trace.Pattern
	Scheme        string
	CMRPO         float64
	ETO           float64
	MissedRate    float64
	MissedVictims int64
	Violations    int64
	RowsRefreshed int64
}

// figXSchemes is the cross-generation lineup: 2018 baselines, the paper's
// tree, and the modern trackers at comparable counter budgets.
func figXSchemes() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindCounterCache, Counters: 1024, Ways: 8},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindCoMeT, Counters: 2048, Ways: 4},
		{Kind: mitigation.KindABACuS, Counters: 1024},
		{Kind: mitigation.KindStochastic, Counters: 64},
	}
}

// FigXPatterns is the attack-pattern sweep.
func FigXPatterns() []trace.Pattern {
	return []trace.Pattern{
		trace.PatternGaussian, trace.PatternDoubleSided,
		trace.PatternManySided, trace.PatternBankSweep,
	}
}

// FigXThresholds is the refresh-threshold sweep.
func FigXThresholds() []uint32 { return []uint32{32768, 16384} }

func init() {
	Register(Experiment{
		Name:        "figx",
		Description: "beyond-paper overhead-vs-protection study: scheme x threshold x adversarial pattern, oracle-checked (-scheme overrides the lineup)",
		Run:         single(figxReport),
	})
}

// figxReport measures the protection study. The benign carrier is the
// first memory-intensive workload of the options' workload set; cells run
// on the shared worker pool and cache like every other figure (the
// no-mitigation baseline per threshold × pattern is shared by all
// schemes), and rendered bytes are identical at every parallelism. When
// o.Schemes is set (the CLI's repeatable -scheme flag), those specs
// replace the default cross-generation lineup (see Options.lineup), so
// arbitrary user-defined configurations sweep with zero new code.
func figxReport(o Options) ([]FigXPoint, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	benign, err := figXBenign(o)
	if err != nil {
		return nil, nil, err
	}
	specs, labelFor, err := o.lineup(figXSchemes())
	if err != nil {
		return nil, nil, err
	}
	thresholds := FigXThresholds()
	patterns := FigXPatterns()

	type group struct {
		threshold uint32
		pattern   trace.Pattern
	}
	var groups []group
	var cells []runner.Cell
	for _, threshold := range thresholds {
		for _, pattern := range patterns {
			groups = append(groups, group{threshold, pattern})
			for si, spec := range specs {
				cfg := baseConfig(o, benign, spec, threshold)
				cfg.Attack = &sim.AttackConfig{Kernel: 0, Mode: trace.Heavy, Pattern: pattern}
				cfg.CheckProtection = true
				cells = append(cells, runner.Cell{
					Tag:    fmt.Sprintf("figx %s/T=%d/%s", labelFor(si, threshold), threshold, pattern),
					Config: cfg, Pair: true,
				})
			}
		}
	}
	results, err := o.grid(cells, uniform(len(groups), len(specs)),
		func(g int, done []runner.CellResult) string {
			missed := int64(0)
			for _, r := range done {
				missed += r.Result.MissedVictimRows
			}
			return fmt.Sprintf("T=%dK %s done (%d missed victims across schemes)",
				groups[g].threshold/1024, groups[g].pattern, missed)
		})
	if err != nil {
		return nil, nil, err
	}

	out := make([]FigXPoint, len(cells))
	for i, r := range results {
		g := groups[i/len(specs)]
		out[i] = FigXPoint{
			Threshold:     g.threshold,
			Pattern:       g.pattern,
			Scheme:        labelFor(i%len(specs), g.threshold),
			CMRPO:         r.Result.CMRPO,
			ETO:           r.ETO,
			MissedRate:    r.Result.MissedVictimRate,
			MissedVictims: r.Result.MissedVictimRows,
			Violations:    r.Result.OracleViolations,
			RowsRefreshed: r.Result.Counts.RowsRefreshed,
		}
	}

	rep := &Report{
		Name: "figx",
		Title: fmt.Sprintf(
			"Fig. X (beyond the paper): overhead vs protection under adversarial patterns (%s + Heavy attack blend)",
			benign.Name),
		Columns: []Column{
			{Name: "T", Type: "int"},
			{Name: "pattern", Type: "string"},
			{Name: "scheme", Type: "string"},
			{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
			{Name: "eto", Header: "ETO", Type: "percent"},
			{Name: "missed_victim_rate", Header: "missed-victim rate", Type: "percent"},
			{Name: "missed", Type: "int", Format: "%d"},
			{Name: "violations", Type: "int", Format: "%d"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
		},
		Meta: o.meta(),
	}
	for _, p := range out {
		rep.Rows = append(rep.Rows, Row{
			annotate(int(p.Threshold), fmt.Sprintf("%dK", p.Threshold/1024)),
			p.Pattern.String(), p.Scheme, p.CMRPO, p.ETO,
			p.MissedRate, p.MissedVictims, p.Violations, p.RowsRefreshed,
		})
	}
	return out, rep, nil
}

// figXBenign picks the attack carrier: the first memory-intensive workload
// of the configured set, falling back to the full memory-intensive list.
func figXBenign(o Options) (trace.Spec, error) {
	mi := trace.MemoryIntensive()
	if len(mi) == 0 {
		return trace.Spec{}, fmt.Errorf("experiments: no memory-intensive workload available for figx")
	}
	intensive := make(map[string]bool, len(mi))
	for _, s := range mi {
		intensive[s.Name] = true
	}
	for _, name := range o.Workloads {
		wl, err := trace.Lookup(name)
		if err != nil {
			return trace.Spec{}, err
		}
		if intensive[wl.Name] {
			return wl, nil
		}
	}
	return mi[0], nil
}
