package experiments

import (
	"fmt"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/energy"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/trace"
)

// Fig2Point is one x-position of Fig. 2: the per-bank, per-interval energy
// of SCA with M counters, averaged over the workload set.
type Fig2Point struct {
	M         int
	CounterNJ float64 // static + dynamic counter energy
	RefreshNJ float64 // victim-row refresh energy
	TotalNJ   float64
}

// fig2Report reproduces the SCA energy-breakdown sweep (M = 16 .. 65536)
// plus the 2K/8K-entry counter-cache reference lines. Refresh counts come
// from driving every SCA instance with the same decoded workload streams
// (no timing needed — Fig. 2 is an energy figure); counter energies come
// from the Table II model.
func fig2Report(o Options) ([]Fig2Point, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	geom := dram.Default2Channel()
	policy, err := addrmap.NewRowInterleaved(geom)
	if err != nil {
		return nil, nil, err
	}
	var ms []int
	for m := 16; m <= geom.RowsPerBank; m *= 2 {
		ms = append(ms, m)
	}
	const threshold = 32768
	th := scaledThreshold(threshold, o.Scale)
	banks := geom.TotalBanks()

	// Each workload's stream replay is independent: run them on the
	// worker pool and reduce the per-workload measurements in order.
	type wlMeasure struct {
		accessesPerBank float64
		refreshRows     []float64 // per M
	}
	measures, err := runner.Map(o.Context, o.Parallel, len(o.Workloads),
		func(wi int) (wlMeasure, error) {
			wl, err := trace.Lookup(o.Workloads[wi])
			if err != nil {
				return wlMeasure{}, err
			}
			schemes := make([]*mitigation.SCA, len(ms))
			for i, m := range ms {
				s, err := mitigation.NewSCA(banks, geom.RowsPerBank, m, th)
				if err != nil {
					return wlMeasure{}, err
				}
				schemes[i] = s
			}
			gen, err := trace.NewSynthetic(wl, geom.TotalBytes(), geom.LineBytes, o.Seed+uint64(wi))
			if err != nil {
				return wlMeasure{}, err
			}
			// One interval of accesses for a dual-core system at this
			// workload's intensity.
			n := int(2 * CPUCyclesPerInterval / float64(wl.GapMean) * o.Scale)
			for i := 0; i < n; i++ {
				c := policy.Decode(gen.Next().Addr)
				flat := geom.Flat(c.Bank)
				for _, s := range schemes {
					s.OnActivate(flat, c.Row)
				}
			}
			m := wlMeasure{
				accessesPerBank: float64(n) / float64(banks),
				refreshRows:     make([]float64, len(ms)),
			}
			for i, s := range schemes {
				m.refreshRows[i] = float64(s.Counts().RowsRefreshed) / float64(banks)
			}
			return m, nil
		})
	if err != nil {
		return nil, nil, err
	}
	sumAccessesPerBank := 0.0
	sumRefreshRows := make([]float64, len(ms))
	for _, m := range measures {
		sumAccessesPerBank += m.accessesPerBank
		for i, r := range m.refreshRows {
			sumRefreshRows[i] += r
		}
	}

	nw := float64(len(o.Workloads))
	// Accesses rescale to a full 64 ms interval; the refresh rows measured
	// against the scaled threshold already correspond to one full interval
	// (triggers = accesses/threshold, and both scale together).
	rescale := 1 / o.Scale
	points := make([]Fig2Point, len(ms))
	for i, m := range ms {
		p, err := energy.SCAEnergy(m, sumAccessesPerBank/nw*rescale, sumRefreshRows[i]/nw)
		if err != nil {
			return nil, nil, err
		}
		points[i] = Fig2Point{M: m, CounterNJ: p.CounterNJ, RefreshNJ: p.RefreshNJ, TotalNJ: p.TotalNJ}
	}

	rep := &Report{
		Name:  "fig2",
		Title: "Fig. 2: SCA energy overhead per bank per 64 ms interval (nJ)",
		Columns: []Column{
			{Name: "M", Type: "int", Format: "%d"},
			{Name: "counters_nj", Header: "counters(static+dyn)", Type: "float", Format: "%.3e"},
			{Name: "refresh_nj", Header: "refresh", Type: "float", Format: "%.3e"},
			{Name: "total_nj", Header: "total", Type: "float", Format: "%.3e"},
		},
		Meta: o.meta(),
	}
	for _, p := range points {
		rep.Rows = append(rep.Rows, Row{p.M, p.CounterNJ, p.RefreshNJ, p.TotalNJ})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("2K-entry counter cache (optimistic)\t%.3e", energy.CounterCacheStaticNJ(2048)),
		fmt.Sprintf("8K-entry counter cache (optimistic)\t%.3e", energy.CounterCacheStaticNJ(8192)),
		fmt.Sprintf("total-energy minimum at M=%d (paper: 128)", MinTotalM(points)))
	return points, rep, nil
}

// MinTotalM returns the M with the smallest total energy.
func MinTotalM(points []Fig2Point) int {
	best, bestM := -1.0, 0
	for _, p := range points {
		if best < 0 || p.TotalNJ < best {
			best, bestM = p.TotalNJ, p.M
		}
	}
	return bestM
}

// Fig3Row is one reported row of the Fig. 3 histogram study.
type Fig3Row struct {
	Workload  string
	Bank      int
	Summary   trace.SkewSummary
	TopCounts []int64 // access counts of the hottest rows, descending
}

// fig3Report reproduces the row-access frequency measurement: for
// blackscholes- and facesim-like workloads, the distribution of per-row
// activation counts in the hottest bank over one refresh interval,
// demonstrating that "a small group of rows dominate overall accesses".
func fig3Report(o Options) ([]Fig3Row, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	geom := dram.Default2Channel()
	policy, err := addrmap.NewRowInterleaved(geom)
	if err != nil {
		return nil, nil, err
	}
	names := []string{"black", "face"}
	out, err := runner.Map(o.Context, o.Parallel, len(names),
		func(i int) (Fig3Row, error) {
			name := names[i]
			wl, err := trace.Lookup(name)
			if err != nil {
				return Fig3Row{}, err
			}
			gen, err := trace.NewSynthetic(wl, geom.TotalBytes(), geom.LineBytes, o.Seed)
			if err != nil {
				return Fig3Row{}, err
			}
			n := int(2 * CPUCyclesPerInterval / float64(wl.GapMean) * o.Scale)
			hist := trace.RowHistogram(gen, geom, policy, n)
			bestBank, best := 0, trace.SkewSummary{}
			for b, rows := range hist {
				s := trace.Summarise(rows)
				if s.Total > best.Total {
					bestBank, best = b, s
				}
			}
			top := topK(hist[bestBank], 8)
			return Fig3Row{Workload: name, Bank: bestBank, Summary: best, TopCounts: top}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Name:  "fig3",
		Title: "Fig. 3: row-access frequency in the hottest DRAM bank (one interval)",
		Columns: []Column{
			{Name: "workload", Type: "string"},
			{Name: "bank", Type: "int", Format: "%d"},
			{Name: "accesses", Type: "int", Format: "%d"},
			{Name: "rows_touched", Header: "rows touched", Type: "int", Format: "%d"},
			{Name: "max_per_row", Header: "max/row", Type: "int", Format: "%d"},
			{Name: "top16_share", Header: "top-16 share", Type: "percent"},
			{Name: "top256_share", Header: "top-256 share", Type: "percent"},
		},
		Meta: o.meta(),
	}
	for _, r := range out {
		rep.Rows = append(rep.Rows, Row{r.Workload, r.Bank, r.Summary.Total,
			r.Summary.TouchedRows, r.Summary.MaxPerRow, r.Summary.Top16Frac, r.Summary.Top256Frac})
	}
	return out, rep, nil
}

func topK(rows []int64, k int) []int64 {
	top := make([]int64, 0, k)
	for _, c := range rows {
		if c == 0 {
			continue
		}
		// Insertion into a small descending list.
		i := len(top)
		for i > 0 && top[i-1] < c {
			i--
		}
		if i < k {
			if len(top) < k {
				top = append(top, 0)
			}
			copy(top[i+1:], top[i:len(top)-1])
			top[i] = c
		}
	}
	return top
}
