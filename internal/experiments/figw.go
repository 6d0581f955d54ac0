package experiments

import (
	"fmt"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// The figw experiment is the open-loop multi-tenant study: mitigation
// schemes under datacenter-style arrival processes (Poisson, bursty
// on/off, diurnal phases) over a cohort of thousands of Zipf-skewed
// tenants, with and without an embedded attacker tenant. Where the paper's
// closed-loop methodology measures overhead for co-scheduled SPEC cores,
// this sweep asks the hosting question instead: when one tenant of
// thousands turns hostile, how much refresh work does each scheme spend,
// and how much of it lands in innocent tenants' rows (the per-tenant
// attribution that sim.Result.Tenants carries).

// FigWPoint is one (workload, attacker fraction, scheme) measurement.
type FigWPoint struct {
	Workload     string
	AttackerFrac float64
	Scheme       string
	CMRPO        float64
	ETO          float64
	// RowsRefreshed is the scheme's total victim-refresh row count.
	RowsRefreshed int64
	// AttackerActs counts activations attributed to the attacker tenant's
	// own rows (0 when no attacker is embedded).
	AttackerActs int64
	// BenignRowsRefreshed counts refresh rows that landed in benign
	// tenants' spans — the collateral refresh work innocent tenants absorb.
	BenignRowsRefreshed int64
	// TenantsHit is the number of distinct tenants whose rows the scheme
	// refreshed.
	TenantsHit int
}

// figWSchemes is the open-loop lineup: the 2018 baseline, the paper's
// adaptive tree, and a modern shared-counter tracker.
func figWSchemes() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindCoMeT, Counters: 2048, Ways: 4},
	}
}

// FigWAttackerFracs is the attacker-fraction sweep: a benign cohort and a
// cohort where one tenant issues 10% of all arrivals as a double-sided
// hammer blend.
func FigWAttackerFracs() []float64 { return []float64{0, 0.1} }

// figWWorkloads resolves the arrival-process sweep: the ol-* names of the
// options' workload selection, defaulting to the three non-attack presets
// (the attacker sweep embeds its own).
func figWWorkloads(o Options) ([]workload.Config, error) {
	names := o.openWorkloads
	if len(names) == 0 {
		names = []string{"ol-poisson", "ol-bursty", "ol-diurnal"}
	}
	out := make([]workload.Config, 0, len(names))
	for _, name := range names {
		ol, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, ol)
	}
	return out, nil
}

// figwConfig sizes one open-loop cell: the request budget covers the
// scaled auto-refresh interval(s) at the workload's mean arrival rate, so
// trigger rates stay representative exactly like the closed-loop figures.
func figwConfig(o Options, ol workload.Config, frac float64, spec sim.SchemeSpec, threshold uint32) sim.Config {
	if frac > 0 {
		ol.Cohort.Attacker = &workload.AttackerSpec{
			Fraction: frac, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided,
		}
	}
	seconds := dram.RefreshIntervalNS() * o.Scale * 1e-9 * float64(o.Intervals)
	ol.Requests = int(ol.Arrival.MeanRateRPS() * seconds)
	if ol.Requests < 2000 {
		ol.Requests = 2000
	}
	geom := dram.Default2Channel()
	if o.Geometry != nil {
		geom = o.Geometry.Geometry()
	}
	return sim.Config{
		Geometry:       geom,
		Timing:         dram.DDR3_1600(),
		OpenLoop:       &ol,
		Scheme:         spec,
		Threshold:      scaledThreshold(threshold, o.Scale),
		ThresholdScale: o.Scale,
		IntervalNS:     dram.RefreshIntervalNS() * o.Scale,
		Seed:           o.Seed,
	}
}

// figwReport measures the open-loop study on the shared runner grid
// (paired cells, shared KindNone baselines, byte-identical at every
// parallelism). o.Schemes overrides the lineup (see Options.lineup).
func figwReport(o Options) ([]FigWPoint, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	workloads, err := figWWorkloads(o)
	if err != nil {
		return nil, nil, err
	}
	specs, labelFor, err := o.lineup(figWSchemes())
	if err != nil {
		return nil, nil, err
	}
	const threshold = uint32(32768)
	fracs := FigWAttackerFracs()

	type group struct {
		ol   workload.Config
		frac float64
	}
	var groups []group
	var cells []runner.Cell
	for _, ol := range workloads {
		for _, frac := range fracs {
			groups = append(groups, group{ol, frac})
			for si, spec := range specs {
				cells = append(cells, runner.Cell{
					Tag: fmt.Sprintf("figw %s/%s/attacker=%g%%",
						labelFor(si, threshold), ol.Name, frac*100),
					Config: figwConfig(o, ol, frac, spec, threshold),
					Pair:   true,
				})
			}
		}
	}
	results, err := o.grid(cells, uniform(len(groups), len(specs)),
		func(g int, done []runner.CellResult) string {
			var benign int64
			for _, r := range done {
				for _, ts := range r.Result.Tenants {
					if !ts.Attacker {
						benign += ts.RowsRefreshed
					}
				}
			}
			return fmt.Sprintf("%s attacker=%g%% done (%d benign rows refreshed across schemes)",
				groups[g].ol.Name, groups[g].frac*100, benign)
		})
	if err != nil {
		return nil, nil, err
	}

	out := make([]FigWPoint, len(cells))
	for i, r := range results {
		g := groups[i/len(specs)]
		p := FigWPoint{
			Workload:      g.ol.Name,
			AttackerFrac:  g.frac,
			Scheme:        labelFor(i%len(specs), threshold),
			CMRPO:         r.Result.CMRPO,
			ETO:           r.ETO,
			RowsRefreshed: r.Result.Counts.RowsRefreshed,
		}
		for _, ts := range r.Result.Tenants {
			if ts.Attacker {
				p.AttackerActs = ts.Acts
			} else {
				p.BenignRowsRefreshed += ts.RowsRefreshed
			}
			if ts.RowsRefreshed > 0 {
				p.TenantsHit++
			}
		}
		out[i] = p
	}

	rep := &Report{
		Name:  "figw",
		Title: "Fig. W (beyond the paper): open-loop multi-tenant cohorts under arrival processes, with per-tenant attribution",
		Columns: []Column{
			{Name: "workload", Type: "string"},
			{Name: "attacker", Type: "percent"},
			{Name: "scheme", Type: "string"},
			{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
			{Name: "eto", Header: "ETO", Type: "percent"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
			{Name: "attacker_acts", Header: "attacker acts", Type: "int", Format: "%d"},
			{Name: "benign_rows_refreshed", Header: "benign rows refreshed", Type: "int", Format: "%d"},
			{Name: "tenants_hit", Header: "tenants hit", Type: "int", Format: "%d"},
		},
		Meta: o.meta(),
	}
	for _, p := range out {
		rep.Rows = append(rep.Rows, Row{
			p.Workload, p.AttackerFrac, p.Scheme, p.CMRPO, p.ETO,
			p.RowsRefreshed, p.AttackerActs, p.BenignRowsRefreshed, p.TenantsHit,
		})
	}
	return out, rep, nil
}
