package experiments

import (
	"fmt"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// Fig13Point is one bar of Fig. 13: mean ETO of benign workloads under
// kernel attacks.
type Fig13Point struct {
	Threshold uint32
	Mode      trace.AttackMode
	Scheme    string
	ETO       float64
	CMRPO     float64
}

// Fig13Kernels is the paper's kernel-attack count. Scaled runs use fewer
// kernels (at least two) to bound the sweep.
const Fig13Kernels = 12

// fig13Report measures the attack study: three blend modes x three refresh
// thresholds x the counter-based schemes (SCA_128/PRCAT_64/DRCAT_64, with
// counters doubled at T=8K), averaging ETO over the kernel attacks blended
// into memory-intensive benign workloads.
func fig13Report(o Options) ([]Fig13Point, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	kernels := Fig13Kernels
	if o.Scale < 1 {
		kernels = 3
	}
	benign := trace.MemoryIntensive()
	if len(benign) == 0 {
		return nil, nil, fmt.Errorf("experiments: no memory-intensive workloads")
	}

	type bar struct {
		threshold uint32
		mode      trace.AttackMode
		label     string
	}
	thresholds := []uint32{32768, 16384, 8192}
	var bars []bar
	var cells []runner.Cell
	for _, threshold := range thresholds {
		catM, scaM := 64, 128
		if threshold == 8192 {
			catM, scaM = 128, 256
		}
		schemes := []sim.SchemeSpec{
			{Kind: mitigation.KindSCA, Counters: scaM},
			{Kind: mitigation.KindPRCAT, Counters: catM, MaxLevels: 11},
			{Kind: mitigation.KindDRCAT, Counters: catM, MaxLevels: 11},
		}
		for _, mode := range []trace.AttackMode{trace.Heavy, trace.Medium, trace.Light} {
			for _, spec := range schemes {
				label := spec.Label(threshold)
				bars = append(bars, bar{threshold: threshold, mode: mode, label: label})
				for k := 0; k < kernels; k++ {
					wl := benign[k%len(benign)]
					cfg := baseConfig(o, wl, spec, threshold)
					cfg.Attack = &sim.AttackConfig{Kernel: k, Mode: mode}
					cfg.Seed = o.Seed + uint64(k)*7919
					cells = append(cells, runner.Cell{
						Tag:    fmt.Sprintf("fig13 %s/%v/k%d", label, mode, k),
						Config: cfg, Pair: true,
					})
				}
			}
		}
	}
	// Progress groups by threshold: every mode x scheme x kernel cell.
	results, err := o.grid(cells, uniform(len(thresholds), len(cells)/len(thresholds)),
		func(g int, _ []runner.CellResult) string { return fmt.Sprintf("T=%dK done", thresholds[g]/1024) })
	if err != nil {
		return nil, nil, err
	}
	cmrpo, eto := barMeans(results, kernels)
	out := make([]Fig13Point, len(bars))
	for bi, b := range bars {
		out[bi] = Fig13Point{
			Threshold: b.threshold, Mode: b.mode, Scheme: b.label,
			ETO: eto[bi], CMRPO: cmrpo[bi],
		}
	}
	rep := &Report{
		Name:  "fig13",
		Title: "Fig. 13: ETO under kernel attacks (Heavy 75%, Medium 50%, Light 25% target rows)",
		Columns: []Column{
			{Name: "T", Type: "int"},
			{Name: "mode", Type: "string"},
			{Name: "scheme", Type: "string"},
			{Name: "eto", Header: "ETO", Type: "percent"},
			{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
		},
		Meta: o.meta(),
	}
	for _, p := range out {
		rep.Rows = append(rep.Rows, Row{
			annotate(int(p.Threshold), fmt.Sprintf("%dK", p.Threshold/1024)),
			p.Mode.String(), p.Scheme, p.ETO, p.CMRPO,
		})
	}
	return out, rep, nil
}
