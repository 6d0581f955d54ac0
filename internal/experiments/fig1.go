package experiments

import (
	"fmt"

	"catsim/internal/reliability"
	"catsim/internal/rng"
)

func init() {
	Register(Experiment{
		Name:        "fig1",
		Description: "PRA 5-year unsurvivability grid vs the Chipkill reference (paper Fig. 1)",
		Run:         single(func(Options) ([]Fig1Point, *Report, error) { return fig1Report() }),
	})
	Register(Experiment{
		Name:        "lfsr",
		Description: "Monte-Carlo collapse of PRA's guarantee under LFSR PRNGs (paper §III-A)",
		Run: single(func(o Options) (LFSRStudyResult, *Report, error) {
			return lfsrReport(o.LFSRTrials)
		}),
	})
}

// Fig1Point is one bar of Fig. 1.
type Fig1Point struct {
	Threshold       uint32
	P               float64
	Unsurvivability float64
}

func fig1Report() ([]Fig1Point, *Report, error) {
	thresholds := []uint32{32768, 24576, 16384, 8192}
	ps := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.006}
	var out []Fig1Point

	rep := &Report{
		Name:    "fig1",
		Title:   "Fig. 1: PRA unsurvivability for 5 years (Chipkill reference 1e-4)",
		Columns: []Column{{Name: "p", Header: "p \\ T", Type: "float", Format: "p=%.3f"}},
		Notes:   []string{"(* = above the Chipkill 1e-4 line)"},
	}
	for _, t := range thresholds {
		rep.Columns = append(rep.Columns, Column{
			Name:   fmt.Sprintf("T%d", t),
			Header: fmt.Sprintf("%dK(Q0=%d)", t/1024, reliability.DefaultQ0(t)),
			Type:   "float",
		})
	}
	for _, p := range ps {
		row := Row{p}
		for _, t := range thresholds {
			u, err := reliability.Unsurvivability(p, t, reliability.DefaultQ0(t), 5)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, Fig1Point{Threshold: t, P: p, Unsurvivability: u})
			mark := " "
			if u > reliability.ChipkillReference {
				mark = "*" // worse than Chipkill
			}
			row = append(row, annotate(u, fmt.Sprintf("%.2e%s", u, mark)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return out, rep, nil
}

// LFSRStudyResult reproduces the §III-A Monte-Carlo observation that PRA's
// guarantee collapses with a cheap LFSR-based PRNG. It reports:
//
//   - the ideal-PRNG Monte Carlo (no failures at paper parameters,
//     matching Eq. 1's ~1e-36 per window);
//   - the weak two-tap LFSR (x^16+x^8+1): most seeds produce a short
//     periodic decision stream containing no refresh decision, so failure
//     is immediate; and
//   - the phase-aware attack against a maximal LFSR: always succeeds with
//     bounded overhead, because the decision stream is deterministic.
type LFSRStudyResult struct {
	Ideal     reliability.MonteCarloResult
	WeakLFSR  reliability.MonteCarloResult
	MaxLFSR   reliability.MonteCarloResult
	SyncTotal int64
	SyncRatio float64
}

func lfsrReport(trials int) (LFSRStudyResult, *Report, error) {
	if trials < 1 {
		trials = 100
	}
	cfg := reliability.MonteCarloConfig{
		T: 16384, P: 0.005, Q0: 20, Intervals: 25, Trials: trials, Rotate: 1, SeedBase: 2024,
	}
	var res LFSRStudyResult
	var err error

	idealCfg := cfg
	idealCfg.Intervals = 2 // ideal never fails; keep the run short
	idealCfg.Trials = min(trials, 20)
	if res.Ideal, err = reliability.MonteCarloIdeal(idealCfg); err != nil {
		return res, nil, err
	}
	if res.WeakLFSR, err = reliability.MonteCarloLFSR(cfg); err != nil {
		return res, nil, err
	}
	maxCfg := cfg
	maxCfg.TapMask = rng.MaximalMask16
	maxCfg.Intervals = 2
	maxCfg.Trials = min(trials, 20)
	if res.MaxLFSR, err = reliability.MonteCarloLFSR(maxCfg); err != nil {
		return res, nil, err
	}
	res.SyncTotal, res.SyncRatio = reliability.SyncAttackAccesses(16384, 0.005, rng.MaximalMask16, 0xBEEF)

	rep := &Report{
		Name:  "lfsr",
		Title: "LFSR study (T=16K, p=0.005), cf. paper §III-A",
		Columns: []Column{
			{Name: "prng", Header: "PRNG", Type: "string"},
			{Name: "failures", Type: "int", Format: "%d"},
			{Name: "trials", Type: "int", Format: "%d"},
			{Name: "fail_prob", Header: "fail prob", Type: "float", Format: "%.2e"},
			{Name: "first_fail", Header: "first-fail interval", Type: "int", Format: "%d"},
		},
		Meta: Meta{LFSRTrials: trials},
	}
	for _, r := range []struct {
		name string
		mc   reliability.MonteCarloResult
	}{
		{"ideal (xoshiro256**)", res.Ideal},
		{"weak LFSR x^16+x^8+1", res.WeakLFSR},
		{"maximal LFSR (blind)", res.MaxLFSR},
	} {
		rep.Rows = append(rep.Rows, Row{r.name, r.mc.Failures, r.mc.Trials, r.mc.FailProb, r.mc.FirstFail})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"maximal LFSR (phase-aware attacker)\talways fails\t\t1.0\t0 (overhead %.3fx)", res.SyncRatio))
	return res, rep, nil
}
