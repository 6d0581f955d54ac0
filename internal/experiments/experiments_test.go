package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/reliability"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// skipIfShort skips the full sweep integration tests under -short; CI's
// race pass uses it to keep this package within its time budget.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full experiment sweep; skipped with -short")
	}
}

// tiny returns fast options for integration tests: a small scale and a
// 3-workload subset spanning skewed/commercial/phase-changing behaviour.
func tiny() Options {
	return Options{
		Scale:     0.03,
		Seed:      7,
		Workloads: []string{"black", "comm1", "face"},
		Quiet:     true,
	}
}

func TestFig1GridAndChipkillCrossing(t *testing.T) {
	points, rep, err := fig1Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("points = %d, want 6 p-values x 4 thresholds", len(points))
	}
	find := func(p float64, th uint32) float64 {
		for _, pt := range points {
			if pt.P == p && pt.Threshold == th {
				return pt.Unsurvivability
			}
		}
		t.Fatalf("missing point p=%v T=%d", p, th)
		return 0
	}
	// Paper: p=0.001 at T=32K is above Chipkill; p=0.002 is below.
	if find(0.001, 32768) <= reliability.ChipkillReference {
		t.Error("p=0.001/T=32K should exceed the Chipkill line")
	}
	if find(0.002, 32768) >= reliability.ChipkillReference {
		t.Error("p=0.002/T=32K should be below the Chipkill line")
	}
	// Smaller T needs larger p: at T=8K even p=0.004 fails Chipkill.
	if find(0.004, 8192) <= reliability.ChipkillReference {
		t.Error("p=0.004/T=8K should exceed the Chipkill line")
	}
	var buf bytes.Buffer
	if err := rep.renderText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Chipkill") {
		t.Error("table missing Chipkill reference")
	}
}

func TestLFSRStudyQualitativeClaims(t *testing.T) {
	skipIfShort(t)
	res, _, err := lfsrReport(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ideal.Failures != 0 {
		t.Error("ideal PRNG must not fail at paper parameters")
	}
	if res.WeakLFSR.FailProb <= reliability.ChipkillReference {
		t.Errorf("weak LFSR fail prob %v; paper's claim is collapse far above 1e-4", res.WeakLFSR.FailProb)
	}
	if res.SyncRatio > 1.2 || res.SyncTotal < 16384 {
		t.Errorf("sync attack: total %d ratio %v", res.SyncTotal, res.SyncRatio)
	}
}

func TestFig2EnergyShape(t *testing.T) {
	points, _, err := fig2Report(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 13 { // 16..65536
		t.Fatalf("points = %d, want 13", len(points))
	}
	// Counter energy strictly increases with M; refresh energy decreases
	// (weakly) with M.
	for i := 1; i < len(points); i++ {
		if points[i].CounterNJ <= points[i-1].CounterNJ {
			t.Errorf("counter energy not increasing at M=%d", points[i].M)
		}
	}
	first, last := points[0], points[len(points)-1]
	if first.RefreshNJ <= last.RefreshNJ {
		t.Errorf("refresh energy should fall from M=16 (%.3e) to M=64K (%.3e)",
			first.RefreshNJ, last.RefreshNJ)
	}
	// Paper: total minimised at M=128. Allow one notch of tolerance for
	// the synthetic workloads.
	if m := MinTotalM(points); m < 64 || m > 256 {
		t.Errorf("total-energy minimum at M=%d, want 64..256 (paper: 128)", m)
	}
}

func TestFig3SkewMatchesMotivation(t *testing.T) {
	rows, _, err := fig3Report(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Summary.Top256Frac < 0.30 {
			t.Errorf("%s: top-256 rows hold %.2f of accesses; want dominated", r.Workload, r.Summary.Top256Frac)
		}
	}
}

func TestTable1And2Render(t *testing.T) {
	var buf bytes.Buffer
	if err := table1Report().renderText(&buf); err != nil {
		t.Fatal(err)
	}
	rows, rep, err := table2Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("table II rows = %d, want 5", len(rows))
	}
	if err := rep.renderText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"64K rows/bank", "PRNG", "DRCAT"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig8OrderingsHold(t *testing.T) {
	skipIfShort(t)
	o := tiny()
	data, err := RunFig8(o, 16384)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's T=16K ranking: DRCAT_64 < PRCAT_64 (close), both far
	// below SCA_64; SCA_128 below SCA_64.
	drcat := data.MeanCMRPO("DRCAT_64")
	prcat := data.MeanCMRPO("PRCAT_64")
	sca64 := data.MeanCMRPO("SCA_64")
	sca128 := data.MeanCMRPO("SCA_128")
	pra := data.MeanCMRPO("PRA_0.003")
	if drcat >= sca64 {
		t.Errorf("DRCAT %.3f should beat SCA_64 %.3f at T=16K", drcat, sca64)
	}
	if prcat >= sca64 {
		t.Errorf("PRCAT %.3f should beat SCA_64 %.3f at T=16K", prcat, sca64)
	}
	if sca128 >= sca64 {
		t.Errorf("SCA_128 %.3f should beat SCA_64 %.3f at T=16K", sca128, sca64)
	}
	if pra <= 0 || drcat <= 0 {
		t.Error("CMRPO must be positive")
	}
	// ETO: CAT variants stay tiny; SCA_64's is the largest of the
	// deterministic schemes (coarse 1K-row refreshes).
	if eto := data.MeanETO("DRCAT_64"); eto > 0.02 {
		t.Errorf("DRCAT ETO %.4f too large", eto)
	}
	if data.MeanETO("SCA_64") < data.MeanETO("DRCAT_64") {
		t.Error("SCA_64 ETO should exceed DRCAT_64 ETO")
	}
}

// TestScalePreservesFig8Means: -scale shrinks the auto-refresh interval,
// the refresh threshold and the request counts together, which preserves
// CMRPO to first order. Every Fig. 8 workload mean at scale 0.01 must
// match the one at 0.02 (seed 1, all 18 workloads) within maxGap.
func TestScalePreservesFig8Means(t *testing.T) {
	skipIfShort(t)
	// The largest gap measured is 0.11 points (SCA_64 at T=16K). Without
	// the refresh-power deflation by ThresholdScale, every mean of a
	// threshold-triggered scheme about doubles from scale 0.02 to 0.01.
	const maxGap = 0.003 // 0.3 points of CMRPO
	for _, threshold := range []uint32{32768, 16384} {
		var runs [2]*Fig8Data
		for i, scale := range []float64{0.01, 0.02} {
			data, err := RunFig8(Options{Scale: scale, Seed: 1, Quiet: true}, threshold)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = data
		}
		for _, scheme := range runs[0].Schemes {
			a, b := runs[0].MeanCMRPO(scheme), runs[1].MeanCMRPO(scheme)
			if gap := math.Abs(a - b); gap > maxGap {
				t.Errorf("T=%d %s: mean CMRPO %.2f%% at scale 0.01, %.2f%% at 0.02 (gap %.2f points, bound %.2f)",
					threshold, scheme, a*100, b*100, gap*100, maxGap*100)
			}
		}
	}
}

func TestFig10SweepShape(t *testing.T) {
	skipIfShort(t)
	o := tiny()
	o.Workloads = []string{"black", "comm1"}
	points, err := RunFig10(o, 32768)
	if err != nil {
		t.Fatal(err)
	}
	m, l := BestDRCATConfig(points)
	if m < 32 || m > 256 {
		t.Errorf("best DRCAT at M=%d, want small-to-mid (paper: 64)", m)
	}
	if l < 7 || l > 14 {
		t.Errorf("best DRCAT depth L=%d out of range", l)
	}
	// Static power must dominate at M=512: its best CMRPO should exceed
	// the best at M=64 (the paper's 'optimum at small M' claim).
	best := func(mWant int) float64 {
		b := -1.0
		for _, p := range points {
			if p.M == mWant && p.L > 0 && (b < 0 || p.CMRPO < b) {
				b = p.CMRPO
			}
		}
		return b
	}
	if best(512) <= best(64) {
		t.Errorf("M=512 best %.3f should exceed M=64 best %.3f (static floor)", best(512), best(64))
	}
}

// TestFig10WorkloadSelection: with no workloads selected fig10 sweeps its
// six-workload subset; an explicit selection, all 18 included, is swept
// as given.
func TestFig10WorkloadSelection(t *testing.T) {
	skipIfShort(t)
	for _, tc := range []struct {
		selected []string
		want     int
	}{
		{nil, len(fig10WorkloadSubset)},
		{trace.WorkloadNames(), len(trace.WorkloadNames())},
	} {
		o := Options{Scale: 0.001, Quiet: true, Workloads: tc.selected, Cache: runner.NewCache()}
		points, err := RunFig10(o, 32768)
		if err != nil {
			t.Fatal(err)
		}
		if runs := len(o.Cache.Runs()); runs != len(points)*tc.want {
			t.Errorf("selection %v: %d runs for %d bars, want %d workloads per bar",
				tc.selected, runs, len(points), tc.want)
		}
	}
}

// TestFig10And11MetaFromFilledOptions: fig10 and fig11 reports carry the
// filled options' metadata (default seed and intervals, cache and pool
// counters), as every other figure's do.
func TestFig10And11MetaFromFilledOptions(t *testing.T) {
	skipIfShort(t)
	for _, name := range []string{"fig10", "fig11"} {
		var metas []Meta
		o := Options{Scale: 0.002, Workloads: []string{"black"}, Quiet: true}
		err := RunExperiment(name, o, renderFunc(func(r *Report) error {
			metas = append(metas, r.Meta)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if len(metas) != 2 {
			t.Fatalf("%s: %d reports, want one per threshold", name, len(metas))
		}
		for _, m := range metas {
			if m.Seed != 1 || m.Intervals != 1 || m.CacheRuns == 0 || m.ContextBuilds == 0 ||
				len(m.Workloads) != 1 || m.Workloads[0] != "black" {
				t.Errorf("%s T=%d: meta %+v lacks the filled options", name, m.Threshold, m)
			}
		}
	}
}

func TestFig11MappingStudy(t *testing.T) {
	skipIfShort(t)
	o := tiny()
	o.Workloads = []string{"black", "comm1"}
	points, err := RunFig11(o, 16384)
	if err != nil {
		t.Fatal(err)
	}
	get := func(system, schemePrefix string) float64 {
		for _, p := range points {
			if p.System == system && strings.HasPrefix(p.Scheme, schemePrefix) {
				return p.CMRPO
			}
		}
		t.Fatalf("missing %s/%s", system, schemePrefix)
		return 0
	}
	// Paper: the 4-channel policy reduces CMRPO versus 2-channel for all
	// schemes (64 banks instead of 16 dilute per-bank refreshes).
	for _, scheme := range []string{"SCA", "DRCAT"} {
		if get("quad-core/4ch", scheme) >= get("quad-core/2ch", scheme) {
			t.Errorf("%s: 4-channel should reduce CMRPO (2ch %.3f vs 4ch %.3f)",
				scheme, get("quad-core/2ch", scheme), get("quad-core/4ch", scheme))
		}
	}
	// Headline: quad-core/2ch DRCAT well below SCA.
	if get("quad-core/2ch", "DRCAT") >= get("quad-core/2ch", "SCA") {
		t.Error("DRCAT should beat SCA on quad-core/2ch at T=16K")
	}
}

func TestFig13AttackOrdering(t *testing.T) {
	skipIfShort(t)
	points, _, err := fig13Report(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*3*3 {
		t.Fatalf("points = %d, want 27", len(points))
	}
	// Paper: SCA's coarse refreshes cost far more than the CAT schemes'
	// under attack. CMRPO (refresh rows) is the robust signal at test
	// scale; ETO at this scale is noise-level (full-scale runs show the
	// ordering clearly), so compare means with a noise allowance.
	byScheme := map[string][]Fig13Point{}
	for _, p := range points {
		key := "CAT"
		if strings.HasPrefix(p.Scheme, "SCA") {
			key = "SCA"
		}
		byScheme[key] = append(byScheme[key], p)
	}
	mean := func(ps []Fig13Point, f func(Fig13Point) float64) float64 {
		s := 0.0
		for _, p := range ps {
			s += f(p)
		}
		return s / float64(len(ps))
	}
	scaC := mean(byScheme["SCA"], func(p Fig13Point) float64 { return p.CMRPO })
	catC := mean(byScheme["CAT"], func(p Fig13Point) float64 { return p.CMRPO })
	if scaC <= catC {
		t.Errorf("SCA mean attack CMRPO %.4f should exceed CAT's %.4f", scaC, catC)
	}
	scaE := mean(byScheme["SCA"], func(p Fig13Point) float64 { return p.ETO })
	catE := mean(byScheme["CAT"], func(p Fig13Point) float64 { return p.ETO })
	if scaE+0.002 <= catE {
		t.Errorf("SCA mean attack ETO %.5f should not be clearly below CAT's %.5f", scaE, catE)
	}
	// Heavier attacks refresh more: CMRPO(heavy) > CMRPO(light) for SCA.
	var heavy, light float64
	for _, p := range points {
		if p.Threshold == 16384 && strings.HasPrefix(p.Scheme, "SCA") {
			switch p.Mode {
			case 0:
				heavy = p.CMRPO
			case 2:
				light = p.CMRPO
			}
		}
	}
	if heavy <= light {
		t.Errorf("heavy-attack CMRPO %.4f should exceed light %.4f for SCA", heavy, light)
	}
}

func TestMultiIntervalDRCATCatchesUpToPRCAT(t *testing.T) {
	skipIfShort(t)
	// Over several intervals with phase drift, DRCAT's kept tree must
	// close (or reverse) the gap to PRCAT, whose rebuild relearns every
	// interval; with a single interval PRCAT pays no relearning at all.
	o := tiny()
	o.Workloads = []string{"face"} // phase-changing workload
	o.Scale = 0.08
	o.Intervals = 4
	rows := func(kind mitigation.Kind) int64 {
		wl, _ := trace.Lookup("face")
		cfg := baseConfig(o, wl, simSchemeSpec(kind, 64), 16384)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts.RowsRefreshed
	}
	dr, pr := rows(mitigation.KindDRCAT), rows(mitigation.KindPRCAT)
	// Allow a small tolerance: the claim is parity-or-better, not a rout.
	if float64(dr) > 1.10*float64(pr) {
		t.Errorf("DRCAT refreshed %d rows, PRCAT %d over 4 intervals; want parity or better", dr, pr)
	}
}

func TestHeadlinesAllPass(t *testing.T) {
	skipIfShort(t)
	hs, _, err := headlinesReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) < 7 {
		t.Fatalf("only %d headline verdicts", len(hs))
	}
	for _, h := range hs {
		if !h.Pass {
			t.Errorf("claim failed: %s (%s)", h.Claim, h.Note)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	o := Options{Scale: 0}
	if err := o.fill(); err == nil {
		t.Error("expected scale error")
	}
	o = Options{Scale: 2}
	if err := o.fill(); err == nil {
		t.Error("expected scale error")
	}
	o = Options{Scale: 0.5}
	if err := o.fill(); err != nil {
		t.Error(err)
	}
	if len(o.Workloads) != 18 || o.Seed == 0 {
		t.Error("defaults not filled")
	}
}
