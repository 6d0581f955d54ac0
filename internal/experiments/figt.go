package experiments

import (
	"fmt"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// The figt experiment is the time-series study the end-of-run aggregates
// could never show: the run sliced into fixed-duration epochs by the
// simulation engine, exposing DRCAT's adaptation dynamics (tree occupancy
// growing from the pre-split shape, reconfigurations tracking workload
// drift) and each tracker's missed-victim exposure as the phases shift —
// benign warmup for the first half of the run, then a double-sided attack
// blend switching on at the midpoint. Every run attaches the crosstalk
// oracle, so the epoch rows show *when* protection is earned or lost, not
// just whether the totals came out right.

// FigTPoint is one epoch of one scheme's trajectory.
type FigTPoint struct {
	Scheme           string
	Epoch            int
	EndNS            float64
	Activations      int64
	RowsRefreshed    int64
	Occupancy        float64 // live/cap tracking entries, 0 when unreported
	TreeDepth        int
	Reconfigs        int64
	AvgReadLatencyNS float64
	MissedVictims    int64 // cumulative at epoch end
}

// FigTThreshold is the refresh threshold of the study (the paper's
// headline 32K point).
const FigTThreshold = 32768

// figTEpochsPerInterval slices each auto-refresh interval into this many
// epochs.
const figTEpochsPerInterval = 4

// figTSchemes is the default lineup: the static assignment (no
// adaptation), the paper's adaptive tree, a modern sketch tracker, and
// the probabilistic tracker whose missed-victim trajectory shows what
// onset costs a scheme with no guarantee.
func figTSchemes() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindCoMeT, Counters: 2048, Ways: 4},
		{Kind: mitigation.KindStochastic, Counters: 64},
	}
}

// figtReport measures the trajectories. The benign carrier is the first
// memory-intensive workload of the options' workload set (as in figx);
// each scheme is one oracle-checked engine run with epochs of a quarter
// auto-refresh interval and the attack blend switching on halfway
// through. Cells run on the shared worker pool and cache; rendered bytes
// are identical at every parallelism. o.Schemes (the CLI's repeatable
// -scheme flag) replaces the default lineup exactly as it does for figx.
func figtReport(o Options) ([]FigTPoint, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	benign, err := figXBenign(o)
	if err != nil {
		return nil, nil, err
	}
	specs, labelFor, err := o.lineup(figTSchemes())
	if err != nil {
		return nil, nil, err
	}

	cells := make([]runner.Cell, len(specs))
	for i, spec := range specs {
		cfg := baseConfig(o, benign, spec, FigTThreshold)
		cfg.Attack = &sim.AttackConfig{Kernel: 0, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided}
		cfg.AttackOnsetFrac = 0.5
		cfg.CheckProtection = true
		cfg.EpochNS = cfg.IntervalNS / figTEpochsPerInterval
		cells[i] = runner.Cell{
			Tag:    fmt.Sprintf("figt %s/T=%d", labelFor(i, FigTThreshold), FigTThreshold),
			Config: cfg,
		}
	}
	results, err := o.grid(cells, uniform(len(specs), 1),
		func(g int, done []runner.CellResult) string {
			r := done[0].Result
			return fmt.Sprintf("%s done (%d epochs, %d missed victims)",
				labelFor(g, FigTThreshold), len(r.Epochs), r.MissedVictimRows)
		})
	if err != nil {
		return nil, nil, err
	}

	var out []FigTPoint
	for i, r := range results {
		for _, s := range r.Result.Epochs {
			p := FigTPoint{
				Scheme:           labelFor(i, FigTThreshold),
				Epoch:            s.Epoch,
				EndNS:            s.EndNS,
				Activations:      s.Activations,
				RowsRefreshed:    s.RowsRefreshed,
				TreeDepth:        s.TreeDepth,
				Reconfigs:        s.Reconfigs,
				AvgReadLatencyNS: s.AvgReadLatencyNS,
				MissedVictims:    s.MissedVictimRows,
			}
			if s.CountersCap > 0 {
				p.Occupancy = float64(s.CountersLive) / float64(s.CountersCap)
			}
			out = append(out, p)
		}
	}

	rep := &Report{
		Name: "figt",
		Title: fmt.Sprintf(
			"Fig. T (beyond the paper): adaptation dynamics per epoch (%s, double-sided blend from the run midpoint, T=%d)",
			benign.Name, FigTThreshold),
		Columns: []Column{
			{Name: "scheme", Type: "string"},
			{Name: "epoch", Type: "int", Format: "%d"},
			{Name: "t_ms", Header: "t(ms)", Type: "float", Format: "%.2f"},
			{Name: "acts", Type: "int", Format: "%d"},
			{Name: "rows_refreshed", Header: "rows refreshed", Type: "int", Format: "%d"},
			{Name: "occupancy", Type: "percent"},
			{Name: "depth", Type: "int", Format: "%d"},
			{Name: "reconfigs", Type: "int", Format: "%d"},
			{Name: "read_ns", Header: "read(ns)", Type: "float", Format: "%.1f"},
			{Name: "missed", Type: "int", Format: "%d"},
		},
		Meta: o.meta(),
	}
	rep.Meta.Threshold = FigTThreshold
	for _, p := range out {
		rep.Rows = append(rep.Rows, Row{
			p.Scheme, p.Epoch, p.EndNS / 1e6, p.Activations, p.RowsRefreshed,
			p.Occupancy, p.TreeDepth, p.Reconfigs, p.AvgReadLatencyNS, p.MissedVictims,
		})
	}
	return out, rep, nil
}
