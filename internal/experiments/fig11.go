package experiments

import (
	"fmt"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
)

// SystemConfig is one system of the §VIII-B mapping/core study.
type SystemConfig struct {
	Name               string
	Cores              int
	Geometry           dram.Geometry
	ChannelInterleaved bool
	// SchemeCounters is the iso-area lineup: SCA gets twice the CAT
	// counters (PRCAT_64 and SCA_128 are iso-area per Table II).
	CATCounters int
	SCACounters int
}

// Fig11Systems returns the paper's three systems: dual-core/2-channel,
// quad-core/2-channel and quad-core/4-channel; quad-core banks have 128K
// rows.
func Fig11Systems() []SystemConfig {
	return []SystemConfig{
		{Name: "dual-core/2ch", Cores: 2, Geometry: dram.Default2Channel(),
			CATCounters: 64, SCACounters: 128},
		{Name: "quad-core/2ch", Cores: 4, Geometry: dram.QuadCore2Channel(),
			CATCounters: 128, SCACounters: 256},
		{Name: "quad-core/4ch", Cores: 4, Geometry: dram.QuadCore4Channel(),
			ChannelInterleaved: true, CATCounters: 128, SCACounters: 256},
	}
}

// Fig11Point is one bar of Fig. 11.
type Fig11Point struct {
	System    string
	Scheme    string
	Threshold uint32
	CMRPO     float64
	ETO       float64
}

// RunFig11 measures CMRPO for the three systems at one threshold. Each
// system's scheme lineup shares its per-workload baselines through the
// cache; the whole system × scheme × workload grid runs on the worker
// pool.
func RunFig11(o Options, threshold uint32) ([]Fig11Point, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	type bar struct {
		system string
		label  string
	}
	systems := Fig11Systems()
	var bars []bar
	var cells []runner.Cell
	for _, sys := range systems {
		schemes := []sim.SchemeSpec{
			{Kind: mitigation.KindPRA},
			{Kind: mitigation.KindSCA, Counters: sys.SCACounters},
			{Kind: mitigation.KindPRCAT, Counters: sys.CATCounters, MaxLevels: 11},
			{Kind: mitigation.KindDRCAT, Counters: sys.CATCounters, MaxLevels: 11},
		}
		for _, spec := range schemes {
			label := spec.Label(threshold)
			bars = append(bars, bar{system: sys.Name, label: label})
			cs, err := o.workloadCells(sys.Name+"/"+label, spec, threshold, true, func(cfg *sim.Config) {
				cfg.Geometry = sys.Geometry
				cfg.Cores = sys.Cores
				cfg.ChannelInterleaved = sys.ChannelInterleaved
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, cs...)
		}
	}
	// Progress groups by system: each system's whole scheme lineup.
	results, err := o.grid(cells, uniform(len(systems), len(cells)/len(systems)),
		func(g int, _ []runner.CellResult) string { return systems[g].Name + " done" })
	if err != nil {
		return nil, err
	}
	cmrpo, eto := barMeans(results, len(o.Workloads))
	out := make([]Fig11Point, len(bars))
	for bi, b := range bars {
		out[bi] = Fig11Point{
			System: b.system, Scheme: b.label, Threshold: threshold,
			CMRPO: cmrpo[bi], ETO: eto[bi],
		}
	}
	return out, nil
}

// fig11Reports measures both thresholds and emits one report each.
func fig11Reports(o Options, emit func(*Report) error) error {
	if err := o.fill(); err != nil {
		return err
	}
	for _, threshold := range []uint32{32768, 16384} {
		points, err := RunFig11(o, threshold)
		if err != nil {
			return err
		}
		rep := &Report{
			Name:  "fig11",
			Title: fmt.Sprintf("Fig. 11: CMRPO per bank by system and mapping policy, T=%dK", threshold/1024),
			Columns: []Column{
				{Name: "system", Type: "string"},
				{Name: "scheme", Type: "string"},
				{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
				{Name: "eto", Header: "ETO", Type: "percent"},
			},
			Meta: o.meta(),
		}
		rep.Meta.Threshold = threshold
		for _, p := range points {
			rep.Rows = append(rep.Rows, Row{p.System, p.Scheme, p.CMRPO, p.ETO})
		}
		if err := emit(rep); err != nil {
			return err
		}
	}
	return nil
}

// Fig12Point is one bar of Fig. 12 (threshold sensitivity).
type Fig12Point struct {
	Threshold uint32
	Scheme    string
	CMRPO     float64
	ETO       float64
}

// fig12Report sweeps the refresh threshold (64K..8K) on the dual-core
// system with the paper's per-threshold lineups: PRA with matched p,
// SCA_128 (SCA_256 at 8K) and PRCAT/DRCAT with 32/64/64/128 counters.
func fig12Report(o Options) ([]Fig12Point, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	catCounters := map[uint32]int{65536: 32, 32768: 64, 16384: 64, 8192: 128}
	scaCounters := map[uint32]int{65536: 128, 32768: 128, 16384: 128, 8192: 256}
	type bar struct {
		threshold uint32
		label     string
	}
	thresholds := []uint32{65536, 32768, 16384, 8192}
	var bars []bar
	var cells []runner.Cell
	for _, threshold := range thresholds {
		schemes := []sim.SchemeSpec{
			{Kind: mitigation.KindPRA},
			{Kind: mitigation.KindSCA, Counters: scaCounters[threshold]},
			{Kind: mitigation.KindPRCAT, Counters: catCounters[threshold], MaxLevels: 11},
			{Kind: mitigation.KindDRCAT, Counters: catCounters[threshold], MaxLevels: 11},
		}
		for _, spec := range schemes {
			label := spec.Label(threshold)
			bars = append(bars, bar{threshold: threshold, label: label})
			cs, err := o.workloadCells(fmt.Sprintf("T=%d/%s", threshold, label), spec, threshold, true, nil)
			if err != nil {
				return nil, nil, err
			}
			cells = append(cells, cs...)
		}
	}
	// Progress groups by threshold: four schemes' cells each.
	results, err := o.grid(cells, uniform(len(thresholds), len(cells)/len(thresholds)),
		func(g int, _ []runner.CellResult) string { return fmt.Sprintf("T=%dK done", thresholds[g]/1024) })
	if err != nil {
		return nil, nil, err
	}
	cmrpo, eto := barMeans(results, len(o.Workloads))
	out := make([]Fig12Point, len(bars))
	for bi, b := range bars {
		out[bi] = Fig12Point{Threshold: b.threshold, Scheme: b.label, CMRPO: cmrpo[bi], ETO: eto[bi]}
	}
	rep := &Report{
		Name:  "fig12",
		Title: "Fig. 12: CMRPO for refresh thresholds 64K/32K/16K/8K (dual-core/2ch)",
		Columns: []Column{
			{Name: "T", Type: "int"},
			{Name: "scheme", Type: "string"},
			{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
			{Name: "eto", Header: "ETO", Type: "percent"},
		},
		Meta: o.meta(),
	}
	for _, p := range out {
		rep.Rows = append(rep.Rows, Row{
			annotate(int(p.Threshold), fmt.Sprintf("%dK", p.Threshold/1024)),
			p.Scheme, p.CMRPO, p.ETO,
		})
	}
	return out, rep, nil
}
