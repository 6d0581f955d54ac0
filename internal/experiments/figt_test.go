package experiments

import (
	"reflect"
	"strings"
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
)

// TestFigTOutputIdenticalAcrossParallelism extends the suite's
// determinism contract to the time-series study: byte-identical rendering
// and identical epoch points at -parallel 1 and 8.
func TestFigTOutputIdenticalAcrossParallelism(t *testing.T) {
	skipIfShort(t)
	var rendered []string
	var points [][]FigTPoint
	for _, p := range []int{1, 8} {
		o := para(p)
		o.Cache = runner.NewCache()
		rendered = append(rendered, runText(t, "figt", o))
		pts, _, err := figtReport(o)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("figt output differs between parallelism 1 and 8:\n--- p=1\n%s\n--- p=8\n%s",
			rendered[0], rendered[1])
	}
	if !reflect.DeepEqual(points[0], points[1]) {
		t.Error("figt points differ between parallelism 1 and 8")
	}
	if !strings.Contains(rendered[0], "missed victims)") {
		t.Error("progress lines missing from non-quiet run")
	}
}

// TestFigTTrajectoryShape checks the study actually produces a time
// series: every scheme contributes multiple ordered epochs, DRCAT's tree
// occupancy is visible and non-decreasing within an interval, and the
// deterministic trackers never miss a victim even across the onset.
func TestFigTTrajectoryShape(t *testing.T) {
	skipIfShort(t)
	pts, _, err := figtReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	perScheme := map[string][]FigTPoint{}
	for _, p := range pts {
		perScheme[p.Scheme] = append(perScheme[p.Scheme], p)
	}
	if len(perScheme) != len(figTSchemes()) {
		t.Fatalf("schemes in output: %d, want %d", len(perScheme), len(figTSchemes()))
	}
	for scheme, series := range perScheme {
		if len(series) < 2 {
			t.Errorf("%s: only %d epochs; the study needs a trajectory", scheme, len(series))
		}
		for i, p := range series {
			if p.Epoch != i {
				t.Errorf("%s: epoch %d at position %d", scheme, p.Epoch, i)
			}
			if i > 0 && p.EndNS <= series[i-1].EndNS {
				t.Errorf("%s: EndNS not increasing at epoch %d", scheme, i)
			}
		}
	}
	for _, p := range pts {
		if p.Scheme != "DSAC_64" && p.MissedVictims != 0 {
			t.Errorf("deterministic %s missed %d victims at epoch %d", p.Scheme, p.MissedVictims, p.Epoch)
		}
	}
	drcat := perScheme["DRCAT_64"]
	if len(drcat) == 0 {
		t.Fatal("DRCAT_64 missing from the default lineup")
	}
	if drcat[0].Occupancy <= 0 {
		t.Error("DRCAT occupancy not reported")
	}
	if drcat[0].TreeDepth < 1 {
		t.Error("DRCAT tree depth not reported")
	}
}

// TestFigTSchemeOverride mirrors figx: the -scheme flag swaps the lineup
// and labels rows by the full spec string.
func TestFigTSchemeOverride(t *testing.T) {
	skipIfShort(t)
	o := tiny()
	o.Schemes = []mitigation.SchemeSpec{mustParse(t, "sca:counters=128")}
	pts, _, err := figtReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no epochs")
	}
	for _, p := range pts {
		if p.Scheme != "sca:counters=128" {
			t.Fatalf("scheme label %q, want the spec string", p.Scheme)
		}
	}
}

// TestFigTCellsCacheAcrossCalls checks figt runs ride the shared result
// cache like every other figure.
func TestFigTCellsCacheAcrossCalls(t *testing.T) {
	skipIfShort(t)
	o := tiny()
	if err := (&o).fill(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := figtReport(o); err != nil {
		t.Fatal(err)
	}
	runs := len(o.Cache.Runs())
	if runs == 0 {
		t.Fatal("no runs recorded in the shared cache")
	}
	if _, _, err := figtReport(o); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Cache.Runs()); got != runs {
		t.Errorf("second figt run executed %d new runs, want 0", got-runs)
	}
}

func mustParse(t *testing.T, s string) mitigation.SchemeSpec {
	t.Helper()
	spec, err := mitigation.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEpochSamplesSurviveTheCache guards the runner-cache copy: a cached
// figt result must still carry its epoch series.
func TestEpochSamplesSurviveTheCache(t *testing.T) {
	skipIfShort(t)
	o := tiny()
	if err := (&o).fill(); err != nil {
		t.Fatal(err)
	}
	wl, err := figXBenign(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(o, wl, simSchemeSpec(mitigation.KindDRCAT, 64), FigTThreshold)
	cfg.EpochNS = cfg.IntervalNS / 4
	eng := o.engine()
	first, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Epochs) == 0 || !reflect.DeepEqual(first.Epochs, second.Epochs) {
		t.Errorf("cached epochs diverge: %d vs %d samples", len(first.Epochs), len(second.Epochs))
	}
	if o.Cache.Hits() == 0 {
		t.Error("second run should have hit the cache")
	}
	unsampled := cfg
	unsampled.EpochNS = 0
	r, err := eng.Run(unsampled)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs != nil {
		t.Error("unsampled config must not share the sampled cache entry")
	}
}
