package experiments

import (
	"reflect"
	"strings"
	"testing"

	"catsim/internal/runner"
	"catsim/internal/trace"
)

// TestFigXOutputIdenticalAcrossParallelism is the determinism contract
// for the cross-scheme protection experiment: byte-identical output and
// identical points at -parallel 1 and 8. The points are read back from
// the cache the rendered run filled.
func TestFigXOutputIdenticalAcrossParallelism(t *testing.T) {
	skipIfShort(t)
	var rendered []string
	var points [][]FigXPoint
	for _, p := range []int{1, 8} {
		o := para(p)
		o.Cache = runner.NewCache()
		rendered = append(rendered, runText(t, "figx", o))
		pts, _, err := figxReport(o)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("figx output differs between parallelism 1 and 8:\n--- p=1\n%s\n--- p=8\n%s",
			rendered[0], rendered[1])
	}
	if !reflect.DeepEqual(points[0], points[1]) {
		t.Error("figx points differ between parallelism 1 and 8")
	}
	if !strings.Contains(rendered[0], "missed victims across schemes") {
		t.Error("progress lines missing from non-quiet run")
	}
}

// TestFigXDeterministicSchemesNeverMissVictims is the experiment-level
// oracle proof: across every threshold and adversarial pattern, the
// deterministic trackers (everything but DSAC) must show zero violations
// and a zero missed-victim rate, while the attack genuinely exposes
// victims (the pattern is not a no-op).
func TestFigXDeterministicSchemesNeverMissVictims(t *testing.T) {
	skipIfShort(t)
	pts, _, err := figxReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(FigXThresholds()) * len(FigXPatterns()) * len(figXSchemes())
	if len(pts) != wantRows {
		t.Fatalf("%d points, want %d", len(pts), wantRows)
	}
	for _, p := range pts {
		if strings.HasPrefix(p.Scheme, "DSAC") {
			continue
		}
		if p.Violations != 0 || p.MissedVictims != 0 || p.MissedRate != 0 {
			t.Errorf("%s/T=%d/%s: violations=%d missed=%d rate=%v — deterministic scheme missed victims",
				p.Scheme, p.Threshold, p.Pattern, p.Violations, p.MissedVictims, p.MissedRate)
		}
		if p.RowsRefreshed == 0 {
			t.Errorf("%s/T=%d/%s: no rows refreshed under a Heavy attack blend",
				p.Scheme, p.Threshold, p.Pattern)
		}
	}
}

// TestFigXSharesBaselinesAndCache verifies the experiment runs on the
// shared runner cache: the per-(threshold, pattern) no-mitigation baseline
// executes once for all six schemes, and a second figx run over the same
// shared cache re-runs nothing.
func TestFigXSharesBaselinesAndCache(t *testing.T) {
	skipIfShort(t)
	o := para(8)
	o.Cache = runner.NewCache()
	o.Quiet = true
	if _, _, err := figxReport(o); err != nil {
		t.Fatal(err)
	}
	baselines := 0
	for _, key := range o.Cache.Runs() {
		if strings.HasPrefix(key, "None|") {
			baselines++
		}
	}
	if want := len(FigXThresholds()) * len(FigXPatterns()); baselines != want {
		t.Errorf("%d baseline executions, want %d (one per threshold × pattern)", baselines, want)
	}
	runs := len(o.Cache.Runs())
	if _, _, err := figxReport(o); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Cache.Runs()); got != runs {
		t.Errorf("second figx run over the shared cache executed %d new simulations", got-runs)
	}
}

func TestFigXBenignFallsBackToMemoryIntensive(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"swapt"} // GapMean 140: not memory-intensive
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	wl, err := figXBenign(o)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name != trace.MemoryIntensive()[0].Name {
		t.Errorf("fallback picked %s, want the first memory-intensive workload", wl.Name)
	}
}
