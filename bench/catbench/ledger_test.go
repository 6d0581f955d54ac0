package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// TestLedgerReplaysReproduceEndState records and replays one small cell
// of each traffic shape the workloads use. measureCell fails unless the
// decorated run equals sim.Run and every isolated replay reproduces its
// layer's recorded end state.
func TestLedgerReplaysReproduceEndState(t *testing.T) {
	attack := hammerCell(1, sim.SchemeSpec{Kind: mitigation.KindABACuS, Counters: 1024}, trace.PatternDoubleSided, 300)
	attack.Cores = 8
	open := serverJob(7)
	open.Requests = 2000
	openCfg, err := open.Config()
	if err != nil {
		t.Fatal(err)
	}
	openCfg.EpochNS = 0
	for name, cfg := range map[string]sim.Config{
		"2-core closed loop":            sweepCell(1),
		"8-core attack, ABACuS, oracle": attack,
		"open-loop cohort":              openCfg,
	} {
		t.Run(name, func(t *testing.T) {
			want, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := measureCell(cfg, want)
			if err != nil {
				t.Fatal(err)
			}
			if cl.requests == 0 || cl.engine <= 0 || len(cl.layers) == 0 {
				t.Fatalf("empty ledger: %+v", cl)
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 20: 50, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("p50 = %g, want 5 (nearest rank)", p)
	}
	if p := percentile(xs, 95); p != 10 {
		t.Errorf("p95 = %g, want 10", p)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names, units and
// workloads the command prints in step with BENCHMARK.json, and within
// the names the benchmark contract accepts.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: command prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric %q (%q)", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: command %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !nameRE.MatchString(w.name) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: command %q, BENCHMARK.json %q", i, w.name, spec.Workloads[i].Name)
		}
	}
}
