package experiments

import (
	"bytes"
	"strings"
	"testing"

	"catsim/internal/mitigation"
)

// TestExperimentTableValid: every experiment has a unique non-empty name,
// a description for -list and a Run.
func TestExperimentTableValid(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Name == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q: want a name, a description and a Run", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %t", e.Name, got.Name, ok)
		}
	}
	// The historical ReproduceAll drift: ablations and headlines must be
	// listed so every iterator (ReproduceAll, the CLI) runs them.
	for _, name := range []string{"ablations", "headlines"} {
		if !seen[name] {
			t.Errorf("%s missing from the experiments", name)
		}
	}
}

func TestRunExperimentUnknownName(t *testing.T) {
	err := RunExperiment("nope", Options{}, NewTextRenderer(&bytes.Buffer{}))
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
	// The error lists the registry, so a CLI can print it verbatim.
	if !strings.Contains(err.Error(), "fig8") {
		t.Errorf("error should list registered names: %v", err)
	}
}

func TestUnknownWorkloadFailsLoudly(t *testing.T) {
	o := Options{Scale: 0.05, Workloads: []string{"black", "nope"}}
	err := o.fill()
	if err == nil {
		t.Fatal("fill must reject unknown workloads")
	}
	if !strings.Contains(err.Error(), `unknown workload "nope"`) {
		t.Errorf("err = %v", err)
	}
	// The valid names ride along so the user can fix the typo.
	for _, want := range []string{"black", "comm1", "tigr"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should list valid workload %q: %v", want, err)
		}
	}
}

func TestFigxSchemeOverride(t *testing.T) {
	skipIfShort(t)
	o := micro()
	o.Schemes = []mitigation.SchemeSpec{
		{Kind: mitigation.KindDRCAT, Params: mitigation.Params{"counters": "64", "levels": "11"}},
	}
	var got []*Report
	err := RunExperiment("figx", o, renderFunc(func(r *Report) error {
		got = append(got, r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("reports = %d", len(got))
	}
	rows := got[0].Rows
	// 2 thresholds x 4 patterns x 1 scheme.
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// User specs are labeled by their full spec string, so lineups that
	// differ only in a parameter outside the figure label (depth, seed,
	// ways, levels) stay distinguishable.
	for _, row := range rows {
		if row[2] != "drcat:counters=64,levels=11" {
			t.Errorf("scheme cell = %v, want the full spec string", row[2])
		}
	}
	// A spec the grid cannot express fails loudly instead of silently
	// dropping the parameter.
	o.Schemes = []mitigation.SchemeSpec{
		{Kind: mitigation.KindDRCAT, Params: mitigation.Params{"counters": "64", "weightbits": "3"}},
	}
	if err := RunExperiment("figx", o, NewTextRenderer(&bytes.Buffer{})); err == nil ||
		!strings.Contains(err.Error(), "not supported in experiment grids") {
		t.Errorf("expected grid-spec error, got %v", err)
	}
}

// renderFunc adapts a function to the Renderer interface.
type renderFunc func(*Report) error

func (f renderFunc) Report(r *Report) error { return f(r) }
func (f renderFunc) Flush() error           { return nil }
