package experiments

import (
	"fmt"

	"catsim/internal/reliability"
)

// Headline is one verdict on a comparative claim of the paper.
type Headline struct {
	Claim string
	Pass  bool
	Note  string
}

// headlinesReport evaluates the paper's key comparative claims
// programmatically and builds a verdict table. It runs a compact
// measurement set at the configured scale (workload subset recommended;
// the full-table numbers come from the individual figure targets).
func headlinesReport(o Options) ([]Headline, *Report, error) {
	if err := o.fill(); err != nil {
		return nil, nil, err
	}
	var out []Headline
	add := func(claim string, pass bool, note string) {
		out = append(out, Headline{Claim: claim, Pass: pass, Note: note})
	}

	// 1. Fig. 1 boundary: p=0.001 fails Chipkill at T=32K, p=0.002 passes.
	u1, err := reliability.Unsurvivability(0.001, 32768, 10, 5)
	if err != nil {
		return nil, nil, err
	}
	u2, err := reliability.Unsurvivability(0.002, 32768, 10, 5)
	if err != nil {
		return nil, nil, err
	}
	add("Eq.1: p=0.001 above Chipkill at T=32K, p=0.002 below",
		u1 > reliability.ChipkillReference && u2 < reliability.ChipkillReference,
		fmt.Sprintf("u(0.001)=%.1e u(0.002)=%.1e", u1, u2))

	// 2. LFSR collapse.
	lf, err := reliability.MonteCarloLFSR(reliability.MonteCarloConfig{
		T: 16384, P: 0.005, Q0: 20, Intervals: 2, Trials: 50, Rotate: 1, SeedBase: 11,
	})
	if err != nil {
		return nil, nil, err
	}
	add("LFSR PRNG destroys PRA's guarantee",
		lf.FailProb > reliability.ChipkillReference,
		fmt.Sprintf("weak-LFSR failure prob %.2f", lf.FailProb))

	// 3. Fig. 2 U-shape with a small-M minimum.
	fig2, _, err := fig2Report(o)
	if err != nil {
		return nil, nil, err
	}
	minM := MinTotalM(fig2)
	add("Fig.2: SCA energy U-shaped, minimum at small M (paper: 128)",
		minM >= 32 && minM <= 256, fmt.Sprintf("minimum at M=%d", minM))

	// 4. Fig. 3 skew.
	fig3, _, err := fig3Report(o)
	if err != nil {
		return nil, nil, err
	}
	skewOK := len(fig3) == 2
	for _, r := range fig3 {
		skewOK = skewOK && r.Summary.Top256Frac > 0.3
	}
	add("Fig.3: a small group of rows dominates bank accesses", skewOK,
		fmt.Sprintf("top-256 shares: %.0f%%, %.0f%%",
			fig3[0].Summary.Top256Frac*100, fig3[1].Summary.Top256Frac*100))

	// 5+6. Fig. 8/9 orderings at T=16K. The sweeps' progress lines would
	// interleave with the caller's output, which shows only the verdicts.
	quiet := o
	quiet.Progress = nil
	data, err := RunFig8(quiet, 16384)
	if err != nil {
		return nil, nil, err
	}
	drcat, sca64 := data.MeanCMRPO("DRCAT_64"), data.MeanCMRPO("SCA_64")
	sca128, pra := data.MeanCMRPO("SCA_128"), data.MeanCMRPO("PRA_0.003")
	add("Fig.8 (T=16K): DRCAT < SCA_128 < SCA_64 and DRCAT < PRA",
		drcat < sca128 && sca128 < sca64 && drcat < pra,
		fmt.Sprintf("DRCAT %.1f%% SCA_128 %.1f%% SCA_64 %.1f%% PRA %.1f%%",
			drcat*100, sca128*100, sca64*100, pra*100))
	etoOK := data.MeanETO("DRCAT_64") < 0.01 && data.MeanETO("SCA_64") >= data.MeanETO("DRCAT_64")
	add("Fig.9 (T=16K): CAT ETO ~0, SCA_64 ETO largest", etoOK,
		fmt.Sprintf("DRCAT %.2f%% SCA_64 %.2f%%",
			data.MeanETO("DRCAT_64")*100, data.MeanETO("SCA_64")*100))

	// 7. Fig. 8 threshold collapse: SCA roughly doubles from 32K to 16K.
	data32, err := RunFig8(quiet, 32768)
	if err != nil {
		return nil, nil, err
	}
	ratio := sca64 / data32.MeanCMRPO("SCA_64")
	add("SCA CMRPO roughly doubles when T halves (paper: 11% -> 22%)",
		ratio > 1.5, fmt.Sprintf("ratio %.2f", ratio))

	rep := &Report{
		Name:  "headlines",
		Title: "Headline claims (programmatic verdicts)",
		Columns: []Column{
			{Name: "claim", Type: "string"},
			{Name: "verdict", Type: "string"},
			{Name: "measured", Type: "string"},
		},
		Meta: o.meta(),
	}
	for _, h := range out {
		verdict := "PASS"
		if !h.Pass {
			verdict = "FAIL"
		}
		rep.Rows = append(rep.Rows, Row{h.Claim, verdict, h.Note})
	}
	return out, rep, nil
}
