package experiments

import (
	"fmt"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// fig8Schemes returns the scheme lineup of Figs. 8 and 9 for one refresh
// threshold: PRA (p per the threshold), SCA_64, SCA_128, PRCAT_64 and
// DRCAT_64 (CAT variants with up to 11 levels).
func fig8Schemes() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindPRA},
		{Kind: mitigation.KindSCA, Counters: 64},
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindPRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
	}
}

// Fig8Data holds the full CMRPO/ETO matrix for one refresh threshold; it
// backs both Fig. 8 (CMRPO) and Fig. 9 (ETO), which the paper derives from
// the same runs.
type Fig8Data struct {
	Threshold uint32
	Schemes   []string
	Cells     map[string][]Cell // scheme label -> per-workload cells
}

// MeanCMRPO returns the workload-mean CMRPO for a scheme label.
func (d *Fig8Data) MeanCMRPO(scheme string) float64 {
	return Mean(d.Cells[scheme], func(c Cell) float64 { return c.CMRPO })
}

// MeanETO returns the workload-mean ETO for a scheme label.
func (d *Fig8Data) MeanETO(scheme string) float64 {
	return Mean(d.Cells[scheme], func(c Cell) float64 { return c.ETO })
}

// RunFig8 measures the Figs. 8/9 matrix for one refresh threshold. The
// scheme × workload grid runs on the options' worker pool; the paired
// KindNone baselines are shared through the cache, so the five schemes
// cost one baseline run per workload, not five.
func RunFig8(o Options, threshold uint32) (*Fig8Data, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	specs := fig8Schemes()
	var cells []runner.Cell
	for _, spec := range specs {
		label := spec.Label(threshold)
		for wi, name := range o.Workloads {
			wl, err := trace.Lookup(name)
			if err != nil {
				return nil, err
			}
			cfg := baseConfig(o, wl, spec, threshold)
			cfg.Seed = o.Seed + uint64(wi)
			cells = append(cells, runner.Cell{Tag: label + "/" + name, Config: cfg, Pair: true})
		}
	}
	var pg *progressGroups
	if o.Progress != nil && !o.Quiet {
		pg = newProgressGroups(uniform(len(specs), len(o.Workloads)),
			func(g int, done []runner.CellResult) {
				mc, me := 0.0, 0.0
				for _, r := range done {
					mc += r.Result.CMRPO
					me += r.ETO
				}
				n := float64(len(done))
				fmt.Fprintf(o.Progress, "  %s done (mean CMRPO %s, mean ETO %s)\n",
					specs[g].Label(threshold), pct(mc/n), pct(me/n))
			})
	}
	results, err := pg.attach(o.engine()).Grid(o.Context, cells)
	if err != nil {
		return nil, err
	}
	data := &Fig8Data{Threshold: threshold, Cells: map[string][]Cell{}}
	i := 0
	for _, spec := range specs {
		label := spec.Label(threshold)
		data.Schemes = append(data.Schemes, label)
		for _, name := range o.Workloads {
			r := results[i]
			i++
			data.Cells[label] = append(data.Cells[label], Cell{
				Workload: name,
				Scheme:   label,
				CMRPO:    r.Result.CMRPO,
				ETO:      r.ETO,
				Counts:   r.Result.Counts,
			})
		}
	}
	return data, nil
}

func init() {
	Register(Experiment{
		Name:        "fig8",
		Description: "per-workload CMRPO matrix for the paper's scheme lineup at T=32K/16K (paper Fig. 8)",
		Run: func(o Options, emit func(*Report) error) error {
			return fig89Reports("fig8", o,
				"Fig. 8: CMRPO (percent of regular refresh power)",
				func(c Cell) float64 { return c.CMRPO }, emit)
		},
	})
	Register(Experiment{
		Name:        "fig9",
		Description: "per-workload execution-time overhead from the Fig. 8 runs (paper Fig. 9)",
		Run: func(o Options, emit func(*Report) error) error {
			return fig89Reports("fig9", o,
				"Fig. 9: execution time overhead (ETO)",
				func(c Cell) float64 { return c.ETO }, emit)
		},
	})
}

// fig89Reports measures both thresholds and emits one report per
// threshold as it completes, so text rendering interleaves with the
// sweep's progress lines.
func fig89Reports(name string, o Options, title string, metric func(Cell) float64, emit func(*Report) error) error {
	if err := o.fill(); err != nil {
		return err
	}
	for _, threshold := range []uint32{32768, 16384} {
		data, err := RunFig8(o, threshold)
		if err != nil {
			return err
		}
		rep := &Report{
			Name:  name,
			Title: fmt.Sprintf("%s, T=%dK", title, threshold/1024),
			Columns: []Column{
				{Name: "workload", Type: "string"},
				{Name: "suite", Type: "string"},
			},
			Meta: o.meta(),
		}
		rep.Meta.Threshold = threshold
		for _, s := range data.Schemes {
			rep.Columns = append(rep.Columns, Column{Name: s, Type: "percent"})
		}
		for wi, wname := range o.Workloads {
			row := Row{wname, suiteOf(wname)}
			for _, s := range data.Schemes {
				row = append(row, metric(data.Cells[s][wi]))
			}
			rep.Rows = append(rep.Rows, row)
		}
		mean := Row{"Mean", ""}
		for _, s := range data.Schemes {
			mean = append(mean, Mean(data.Cells[s], metric))
		}
		rep.Rows = append(rep.Rows, mean)
		if err := emit(rep); err != nil {
			return err
		}
	}
	return nil
}
