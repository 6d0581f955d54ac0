package experiments

import (
	"catsim/internal/core"
	"catsim/internal/mitigation"
	"catsim/internal/rng"
	"catsim/internal/runner"
	"catsim/internal/trace"
)

// Ablations beyond the paper's own sweeps. They isolate the design choices
// the paper calls out — the split-threshold model (§IV-D), the DRCAT
// weight-register width (§V-B) and the pre-split depth λ (§IV-C) — by
// replaying identical access streams through tree variants and counting
// refreshed rows (the CMRPO driver) and SRAM traffic (the dynamic energy
// and latency driver).

func init() {
	Register(Experiment{
		Name:        "ablations",
		Description: "beyond-paper design-choice ablations: ladder model, weight bits, pre-split depth, counter-cache baseline",
		Run: func(o Options, emit func(*Report) error) error {
			for _, tree := range []func(Options) ([]AblationPoint, *Report, error){
				ablationLaddersReport, ablationWeightBitsReport, ablationPreSplitReport,
			} {
				if err := single(tree)(o, emit); err != nil {
					return err
				}
			}
			// The counter-cache comparison runs full simulations per
			// workload; default to the CLI's historical 4-workload subset
			// when the caller did not restrict the set.
			if len(o.Workloads) == 0 {
				o.Workloads = []string{"black", "comm1", "face", "libq"}
			}
			return single(ablationCounterCacheReport)(o, emit)
		},
	})
}

// AblationPoint is one variant measurement.
type AblationPoint struct {
	Variant       string
	RowsRefreshed int64
	RefreshEvents int64
	SRAMPerAccess float64
	Reconfigs     int64
}

// replayStream drives a fresh tree with a seeded mixed stream (one hot
// region that moves once, over uniform background) and returns the
// measurement. The stream mimics the biased-with-phase-change patterns the
// CAT design targets.
func replayStream(cfg core.Config, seed uint64, n int) (AblationPoint, error) {
	tree, err := core.NewTree(cfg)
	if err != nil {
		return AblationPoint{}, err
	}
	src := rng.NewXoshiro256(seed)
	hot := rng.Intn(src, cfg.Rows)
	for i := 0; i < n; i++ {
		if i == n/2 {
			hot = rng.Intn(src, cfg.Rows) // phase change
			tree.OnIntervalBoundary()
		}
		row := hot
		if rng.Intn(src, 10) >= 7 {
			row = rng.Intn(src, cfg.Rows)
		}
		tree.Access(row)
	}
	if err := tree.CheckInvariants(); err != nil {
		return AblationPoint{}, err
	}
	s := tree.Stats()
	return AblationPoint{
		RowsRefreshed: s.RowsRefreshed,
		RefreshEvents: s.RefreshEvents,
		SRAMPerAccess: float64(s.SRAMAccesses) / float64(s.Accesses),
		Reconfigs:     s.Reconfigs,
	}, nil
}

// treeAblation replays the ablation stream through one DRCAT_64 tree
// (L=11, T=32K scaled) per variant, apply(i, cfg) configuring variant i,
// and tabulates the measurements with cols and row.
func treeAblation(o Options, name, title string, variants []string, apply func(i int, cfg *core.Config),
	cols []Column, row func(AblationPoint) Row) ([]AblationPoint, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	threshold := scaledThreshold(32768, o.Scale)
	n := int(2 * CPUCyclesPerInterval / 60 * o.Scale)
	out, err := runner.Map(o.Context, o.Parallel, len(variants),
		func(i int) (AblationPoint, error) {
			cfg := core.Config{Rows: 1 << 16, Counters: 64, MaxLevels: 11,
				RefreshThreshold: threshold, Policy: core.DRCAT}
			apply(i, &cfg)
			p, err := replayStream(cfg, o.Seed, n)
			if err != nil {
				return AblationPoint{}, err
			}
			p.Variant = variants[i]
			return p, nil
		})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Name: name, Title: title, Columns: cols, Meta: o.meta()}
	for _, p := range out {
		rep.Rows = append(rep.Rows, row(p))
	}
	return out, rep, nil
}

// AblationLadders compares the three split-threshold models: the published
// canonical profile (the default), the geometric ladder generalising the
// paper's worked example, and the uniform ladder (no adaptive splitting
// below T — an SCA-shaped tree).
func ablationLaddersReport(o Options) ([]AblationPoint, *Report, error) {
	return treeAblation(o, "ablations/ladders", "Ablation: split-threshold ladder model (DRCAT_64, L=11, T=32K)",
		[]string{"published profile (default)", "geometric T/2^(L-1-l)", "uniform (all rungs at T)"},
		func(i int, cfg *core.Config) {
			switch i {
			case 0:
				cfg.Ladder = core.NewLadder(cfg.Counters, cfg.MaxLevels, cfg.RefreshThreshold)
			case 1:
				cfg.Ladder = core.GeometricLadder(cfg.MaxLevels, cfg.RefreshThreshold)
			case 2:
				cfg.Ladder = core.UniformLadder(cfg.MaxLevels, cfg.RefreshThreshold)
			}
		},
		[]Column{
			{Name: "ladder", Type: "string"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
			{Name: "refresh_events", Header: "refresh events", Type: "int", Format: "%d"},
			{Name: "sram_per_access", Header: "SRAM/access", Type: "float", Format: "%.2f"},
		},
		func(p AblationPoint) Row { return Row{p.Variant, p.RowsRefreshed, p.RefreshEvents, p.SRAMPerAccess} })
}

// AblationWeightBits sweeps the DRCAT weight-register width. The paper uses
// 2 bits: wider registers react more slowly to phase changes (weights take
// longer to saturate and to age out), narrower ones thrash.
func ablationWeightBitsReport(o Options) ([]AblationPoint, *Report, error) {
	return treeAblation(o, "ablations/weightbits", "Ablation: DRCAT weight-register width (paper: 2 bits)",
		[]string{"1-bit", "2-bit", "3-bit", "4-bit"},
		func(i int, cfg *core.Config) { cfg.WeightBits = i + 1 },
		[]Column{
			{Name: "bits", Type: "string"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
			{Name: "reconfigurations", Type: "int", Format: "%d"},
		},
		func(p AblationPoint) Row { return Row{p.Variant, p.RowsRefreshed, p.Reconfigs} })
}

// AblationPreSplit sweeps the pre-split depth λ (paper §IV-C: a deeper
// pre-split reduces pointer-chasing SRAM accesses but spends counters on
// regions that may stay cold).
func ablationPreSplitReport(o Options) ([]AblationPoint, *Report, error) {
	lambdas := []int{1, 3, 6, 7}
	return treeAblation(o, "ablations/presplit", "Ablation: pre-split depth λ (paper default: log2 M = 6)",
		[]string{"λ=1", "λ=3", "λ=6", "λ=7"},
		func(i int, cfg *core.Config) { cfg.PreSplit = lambdas[i] },
		[]Column{
			{Name: "lambda", Header: "λ", Type: "string"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
			{Name: "sram_per_access", Header: "SRAM/access", Type: "float", Format: "%.2f"},
		},
		func(p AblationPoint) Row { return Row{p.Variant, p.RowsRefreshed, p.SRAMPerAccess} })
}

// AblationCounterCache compares the CAL'15 counter-cache baseline against
// DRCAT at matched on-chip storage on real workload streams: the cache
// refreshes only exact victims (fewest rows) but pays DRAM traffic for
// misses — the trade-off the paper's Fig. 2 discussion argues against.
func ablationCounterCacheReport(o Options) ([]Cell, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	specs := []struct {
		name string
		kind mitigation.Kind
		m    int
	}{
		{"DRCAT_64", mitigation.KindDRCAT, 64},
		{"CC_2048", mitigation.KindCounterCache, 2048},
	}
	threshold := uint32(16384)
	var cells []runner.Cell
	var labels []struct{ workload, scheme string }
	for _, name := range o.Workloads {
		wl, err := trace.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range specs {
			spec := simSchemeSpec(s.kind, s.m)
			cells = append(cells, runner.Cell{
				Tag: s.name + "/" + name, Config: baseConfig(o, wl, spec, threshold),
			})
			labels = append(labels, struct{ workload, scheme string }{name, s.name})
		}
	}
	results, err := o.grid(cells, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Cell, len(results))
	rep := &Report{
		Name:  "ablations/countercache",
		Title: "Extension: counter-cache baseline vs DRCAT (T=16K)",
		Columns: []Column{
			{Name: "workload", Type: "string"},
			{Name: "scheme", Type: "string"},
			{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
			{Name: "extra_dram_accesses", Header: "extra DRAM accesses", Type: "int", Format: "%d"},
		},
		Meta: o.meta(),
	}
	for i, r := range results {
		out[i] = Cell{Workload: labels[i].workload, Scheme: labels[i].scheme,
			CMRPO: r.Result.CMRPO, Counts: r.Result.Counts}
		rep.Rows = append(rep.Rows, Row{labels[i].workload, labels[i].scheme,
			r.Result.CMRPO, r.Result.Counts.RowsRefreshed, r.Result.Counts.ExtraMemAcc})
	}
	return out, rep, nil
}
