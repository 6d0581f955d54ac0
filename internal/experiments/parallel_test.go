package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"catsim/internal/runner"
)

// Determinism contract of the runner refactor: every figure renders
// byte-identical tables and returns identical data no matter the worker
// count, and shared baselines execute exactly once per configuration
// across a multi-figure reproduction.

// para returns micro options pinned to a given parallelism with a private
// cache.
func para(parallel int) Options {
	return Options{
		Scale:     0.02,
		Seed:      3,
		Workloads: []string{"black", "comm1"},
		Quiet:     false, // progress lines must be deterministic too
		Parallel:  parallel,
	}
}

func TestProgressGroupsEmitInOrder(t *testing.T) {
	var got []int
	pg := newProgressGroups([]int{2, 1, 3}, func(g int, cells []runner.CellResult) {
		got = append(got, g)
	})
	// Complete every cell in reverse order: groups must still emit 0,1,2,
	// and only once the whole prefix is done.
	for i := 5; i >= 0; i-- {
		pg.done(i, runner.CellResult{}, nil)
		if i > 0 && len(got) != 0 {
			t.Fatalf("emitted %v before the first group completed", got)
		}
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("emit order = %v, want [0 1 2]", got)
	}
}

func TestProgressGroupsSuppressFailedGroups(t *testing.T) {
	var got []int
	pg := newProgressGroups([]int{2, 2}, func(g int, cells []runner.CellResult) {
		got = append(got, g)
	})
	pg.done(0, runner.CellResult{}, nil)
	pg.done(1, runner.CellResult{}, errors.New("boom")) // group 0 fails
	pg.done(2, runner.CellResult{}, nil)
	pg.done(3, runner.CellResult{}, nil)
	// Group 0's line would print zero means; it must be suppressed while
	// group 1 still emits.
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("emitted groups = %v, want [1]", got)
	}
}

// The determinism tests below read each figure's data back from the
// cache its rendered run filled.

func TestFig8OutputIdenticalAcrossParallelism(t *testing.T) {
	var rendered []string
	var data [][]*Fig8Data
	for _, p := range []int{1, 8} {
		o := para(p)
		o.Cache = runner.NewCache()
		rendered = append(rendered, runText(t, "fig8", o))
		var d []*Fig8Data
		for _, th := range []uint32{32768, 16384} {
			dt, err := RunFig8(o, th)
			if err != nil {
				t.Fatal(err)
			}
			d = append(d, dt)
		}
		data = append(data, d)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("rendered output differs between parallelism 1 and 8:\n--- p=1\n%s\n--- p=8\n%s",
			rendered[0], rendered[1])
	}
	if !reflect.DeepEqual(data[0], data[1]) {
		t.Error("Fig8 data differs between parallelism 1 and 8")
	}
	if !strings.Contains(rendered[0], "done (mean CMRPO") {
		t.Error("progress lines missing from non-quiet run")
	}
}

func TestFig12OutputIdenticalAcrossParallelism(t *testing.T) {
	var rendered []string
	var points [][]Fig12Point
	for _, p := range []int{1, 8} {
		o := para(p)
		o.Cache = runner.NewCache()
		rendered = append(rendered, runText(t, "fig12", o))
		pts, _, err := fig12Report(o)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts)
	}
	if rendered[0] != rendered[1] {
		t.Error("Fig12 output differs between parallelism 1 and 8")
	}
	if !reflect.DeepEqual(points[0], points[1]) {
		t.Error("Fig12 points differ between parallelism 1 and 8")
	}
}

func TestAblationsIdenticalAcrossParallelism(t *testing.T) {
	var outs []string
	for _, p := range []int{1, 8} {
		outs = append(outs, runText(t, "ablations", para(p)))
	}
	if outs[0] != outs[1] {
		t.Error("ablation output differs between parallelism 1 and 8")
	}
}

func TestFigWOutputIdenticalAcrossParallelism(t *testing.T) {
	var rendered []string
	var points [][]FigWPoint
	for _, p := range []int{1, 8} {
		o := para(p)
		o.Cache = runner.NewCache()
		rendered = append(rendered, runText(t, "figw", o))
		pts, _, err := figwReport(o)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("figw output differs between parallelism 1 and 8:\n--- p=1\n%s\n--- p=8\n%s",
			rendered[0], rendered[1])
	}
	if !reflect.DeepEqual(points[0], points[1]) {
		t.Error("figw points differ between parallelism 1 and 8")
	}
}

func TestCachedRunsMatchUncached(t *testing.T) {
	run := func(noCache bool) *Fig8Data {
		o := para(8)
		o.NoCache = noCache
		d, err := RunFig8(o, 16384)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Error("memoized run differs from uncached run")
	}
}

// TestBaselineRunsOncePerWorkloadThresholdSeed drives a multi-figure
// reproduction (the Fig. 8 and Fig. 9 matrices at both thresholds, i.e.
// four RunFig8 sweeps) through one shared cache and checks the KindNone
// baseline executed exactly once per (workload, threshold) — and that the
// second figure added no simulations at all.
func TestBaselineRunsOncePerWorkloadThresholdSeed(t *testing.T) {
	o := para(8)
	o.Cache = runner.NewCache()
	thresholds := []uint32{32768, 16384}
	for _, th := range thresholds { // Fig. 8
		if _, err := RunFig8(o, th); err != nil {
			t.Fatal(err)
		}
	}
	afterFig8 := len(o.Cache.Runs())
	for _, th := range thresholds { // Fig. 9 reuses the same paired runs
		if _, err := RunFig8(o, th); err != nil {
			t.Fatal(err)
		}
	}
	runs := o.Cache.Runs()
	if len(runs) != afterFig8 {
		t.Errorf("second figure ran %d extra simulations", len(runs)-afterFig8)
	}
	var baselines []string
	for _, k := range runs {
		if strings.HasPrefix(k, "None|") {
			baselines = append(baselines, k)
		}
	}
	want := len(o.Workloads) * len(thresholds)
	if len(baselines) != want {
		t.Errorf("baseline executions = %d, want %d (one per workload x threshold):\n%s",
			len(baselines), want, strings.Join(baselines, "\n"))
	}
	// 5 schemes + 1 baseline per (workload, threshold) cell.
	if wantTotal := 6 * want; len(runs) != wantTotal {
		t.Errorf("total executions = %d, want %d", len(runs), wantTotal)
	}
}
