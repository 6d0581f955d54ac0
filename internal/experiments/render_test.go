package experiments

import (
	"bytes"
	"strings"
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
)

// Render-path tests: the registered figures (both thresholds, formatted
// tables) at minimal scale, checking the output carries the paper-shaped
// rows and series.

func micro() Options {
	return Options{Scale: 0.02, Seed: 3, Workloads: []string{"black"}, Quiet: true}
}

func TestFig8RenderBothThresholds(t *testing.T) {
	var buf bytes.Buffer
	text := NewTextRenderer(&buf)
	var thresholds []uint32
	err := RunExperiment("fig8", micro(), renderFunc(func(r *Report) error {
		thresholds = append(thresholds, r.Meta.Threshold)
		return text.Report(r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(thresholds) != 2 || thresholds[0] != 32768 || thresholds[1] != 16384 {
		t.Fatalf("report thresholds = %v, want [32768 16384]", thresholds)
	}
	out := buf.String()
	for _, want := range []string{"T=32K", "T=16K", "DRCAT_64", "PRA_0.002", "PRA_0.003", "Mean", "black"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig9RenderSharesRuns(t *testing.T) {
	o := micro()
	o.Cache = runner.NewCache()
	if !strings.Contains(runText(t, "fig9", o), "execution time overhead") {
		t.Error("output missing ETO title")
	}
	for _, th := range []uint32{32768, 16384} {
		d, err := RunFig8(o, th)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Schemes {
			if len(d.Cells[s]) != 1 {
				t.Errorf("scheme %s has %d cells", s, len(d.Cells[s]))
			}
		}
	}
}

func TestFig10PRCATVariant(t *testing.T) {
	skipIfShort(t)
	o := micro()
	points, err := RunFig10Policy(o, 32768, mitigation.KindPRCAT)
	if err != nil {
		t.Fatal(err)
	}
	foundPRCAT := false
	for _, p := range points {
		if strings.HasPrefix(p.Scheme, "PRCAT") {
			foundPRCAT = true
		}
		if strings.HasPrefix(p.Scheme, "DRCAT") {
			t.Fatalf("DRCAT point in PRCAT sweep: %+v", p)
		}
	}
	if !foundPRCAT {
		t.Fatal("no PRCAT points")
	}
}

func TestFig12RenderAllThresholds(t *testing.T) {
	points, rep, err := fig12Report(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 { // 4 thresholds x 4 schemes
		t.Fatalf("points = %d, want 16", len(points))
	}
	var buf bytes.Buffer
	if err := rep.renderText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"64K", "8K", "PRA_0.001", "PRA_0.005", "DRCAT_128"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
