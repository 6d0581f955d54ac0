package experiments

import (
	"fmt"
	"math/bits"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
)

// Fig10Point is one bar of Fig. 10: CMRPO for a scheme at (M, L).
type Fig10Point struct {
	Scheme string
	M      int
	L      int // 0 for SCA
	CMRPO  float64
}

// fig10WorkloadSubset is the sweep's default workload set: one
// heavily-skewed, one phase-changing, one streaming, one commercial, one
// bio and one moderate PARSEC workload. The subset keeps the 100+-cell
// sweep tractable while spanning the behaviour space; an explicit
// workload selection (the CLI's -workloads flag) replaces it.
var fig10WorkloadSubset = []string{"black", "face", "libq", "comm1", "mum", "ferret"}

// fillFig10 fills o, defaulting an empty workload selection to
// fig10WorkloadSubset instead of the paper's 18.
func fillFig10(o *Options) error {
	if len(o.Workloads) == 0 {
		o.Workloads = fig10WorkloadSubset
	}
	return o.fill()
}

// RunFig10 sweeps DRCAT over M in {32..512} and L in {log2(M)+1 .. 14},
// with SCA_M as the reference at each M, for one refresh threshold. With
// no workloads selected it sweeps a six-workload representative subset
// instead of the paper's 18. RunFig10Policy does the same for a chosen CAT kind (the paper's §VIII-A
// reports the PRCAT sensitivity separately: "CMRPO for PRCAT is about 4%
// and 7% for T=32K and T=16K with 10 and 11 CAT levels").
func RunFig10(o Options, threshold uint32) ([]Fig10Point, error) {
	return RunFig10Policy(o, threshold, mitigation.KindDRCAT)
}

// RunFig10Policy sweeps the given CAT kind (KindDRCAT or KindPRCAT).
func RunFig10Policy(o Options, threshold uint32, kind mitigation.Kind) ([]Fig10Point, error) {
	if kind != mitigation.KindDRCAT && kind != mitigation.KindPRCAT {
		return nil, fmt.Errorf("experiments: fig10 sweeps CAT kinds, got %v", kind)
	}
	if err := fillFig10(&o); err != nil {
		return nil, err
	}
	// Flatten the (M, L) sweep into a bar list, then expand every bar into
	// its per-workload grid cells.
	type bar struct {
		label string
		m, l  int
		spec  sim.SchemeSpec
	}
	var bars []bar
	for m := 32; m <= 512; m *= 2 {
		bars = append(bars, bar{label: "SCA", m: m,
			spec: sim.SchemeSpec{Kind: mitigation.KindSCA, Counters: m}})
		minL := bits.TrailingZeros(uint(m)) + 1
		for l := minL; l <= 14; l++ {
			bars = append(bars, bar{label: fmt.Sprintf("%s_L%d", kind, l), m: m, l: l,
				spec: sim.SchemeSpec{Kind: kind, Counters: m, MaxLevels: l}})
		}
	}
	var cells []runner.Cell
	// Progress groups by M: all bars sharing an M form one group.
	var sizes, groupM []int
	for _, b := range bars {
		cs, err := o.workloadCells(b.label, b.spec, threshold, false, nil)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cs...)
		if len(groupM) == 0 || groupM[len(groupM)-1] != b.m {
			groupM = append(groupM, b.m)
			sizes = append(sizes, 0)
		}
		sizes[len(sizes)-1] += len(cs)
	}
	results, err := o.grid(cells, sizes, func(g int, _ []runner.CellResult) string {
		return fmt.Sprintf("M=%d done", groupM[g])
	})
	if err != nil {
		return nil, err
	}
	cmrpo, _ := barMeans(results, len(o.Workloads))
	out := make([]Fig10Point, len(bars))
	for bi, b := range bars {
		out[bi] = Fig10Point{Scheme: b.label, M: b.m, L: b.l, CMRPO: cmrpo[bi]}
	}
	return out, nil
}

// fig10Reports measures both thresholds and emits one report each.
func fig10Reports(o Options, emit func(*Report) error) error {
	if err := fillFig10(&o); err != nil {
		return err
	}
	for _, threshold := range []uint32{32768, 16384} {
		points, err := RunFig10(o, threshold)
		if err != nil {
			return err
		}
		rep := &Report{
			Name:  "fig10",
			Title: fmt.Sprintf("Fig. 10: CMRPO per bank for DRCAT (M=32..512, L up to 14), T=%dK", threshold/1024),
			Columns: []Column{
				{Name: "M", Type: "int", Format: "%d"},
				{Name: "scheme", Type: "string"},
				{Name: "cmrpo", Header: "CMRPO", Type: "percent"},
			},
			Meta: o.meta(),
		}
		rep.Meta.Threshold = threshold
		for _, p := range points {
			rep.Rows = append(rep.Rows, Row{p.M, p.Scheme, p.CMRPO})
		}
		if m, l := BestDRCATConfig(points); m != 0 {
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("minimum-CMRPO DRCAT config: M=%d, L=%d (paper: M=64, L=11)", m, l))
		}
		if err := emit(rep); err != nil {
			return err
		}
	}
	return nil
}

// BestDRCATConfig returns the (M, L) minimising DRCAT's CMRPO.
func BestDRCATConfig(points []Fig10Point) (m, l int) {
	best := -1.0
	for _, p := range points {
		if p.L == 0 {
			continue
		}
		if best < 0 || p.CMRPO < best {
			best, m, l = p.CMRPO, p.M, p.L
		}
	}
	return m, l
}
