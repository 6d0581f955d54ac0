package experiments

import (
	"strings"
	"testing"

	"catsim/internal/mitigation"
)

// TestFillRoutesOpenWorkloadNames: open-loop preset names given through
// the ordinary -workload flag land in OpenWorkloads, closed names stay in
// Workloads, and typos list both name sets.
func TestFillRoutesOpenWorkloadNames(t *testing.T) {
	o := Options{Scale: 0.1, Workloads: []string{"ol-poisson", "black", "ol-bursty"}}
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	if len(o.Workloads) != 1 || o.Workloads[0] != "black" {
		t.Errorf("closed workloads = %v, want [black]", o.Workloads)
	}
	if len(o.OpenWorkloads) != 2 || o.OpenWorkloads[0] != "ol-poisson" || o.OpenWorkloads[1] != "ol-bursty" {
		t.Errorf("open workloads = %v, want [ol-poisson ol-bursty]", o.OpenWorkloads)
	}

	// A purely open-loop selection leaves the closed figures the full set.
	o = Options{Scale: 0.1, Workloads: []string{"ol-diurnal"}}
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	if len(o.Workloads) == 0 {
		t.Error("purely open-loop selection emptied the closed workload set")
	}

	o = Options{Scale: 0.1, Workloads: []string{"nope"}}
	err := o.fill()
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range []string{"black", "ol-poisson", "nope"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestFigWRespectsSelection: the OpenWorkloads selection and the -scheme
// override both narrow the sweep, and the attacker sweep behaves — the
// attacker column is zero exactly on the benign rows.
func TestFigWRespectsSelection(t *testing.T) {
	skipIfShort(t)
	o := para(4)
	o.Workloads = []string{"ol-poisson"}
	o.Schemes = []mitigation.SchemeSpec{mustParse(t, "drcat:counters=64,levels=11")}
	pts, _, err := figwReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(FigWAttackerFracs()); len(pts) != want {
		t.Fatalf("%d points, want %d (1 workload x %d fractions x 1 scheme)", len(pts), want, want)
	}
	for _, p := range pts {
		if p.Workload != "ol-poisson" {
			t.Errorf("unexpected workload %q in the sweep", p.Workload)
		}
		if !strings.Contains(p.Scheme, "drcat") && !strings.Contains(p.Scheme, "DRCAT") {
			t.Errorf("scheme %q does not reflect the -scheme override", p.Scheme)
		}
		if (p.AttackerFrac == 0) != (p.AttackerActs == 0) {
			t.Errorf("attacker frac %g with %d attacker acts", p.AttackerFrac, p.AttackerActs)
		}
		if p.RowsRefreshed < p.BenignRowsRefreshed {
			t.Errorf("benign refresh rows %d exceed the total %d", p.BenignRowsRefreshed, p.RowsRefreshed)
		}
	}
}
