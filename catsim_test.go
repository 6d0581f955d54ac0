package catsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

func TestFacadeTree(t *testing.T) {
	tree, err := NewTree(TreeConfig{
		Rows: 1 << 12, Counters: 16, MaxLevels: 9,
		RefreshThreshold: 128, Policy: DRCAT,
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for i := 0; i < 128; i++ {
		if lo, hi, refresh := tree.Access(777); refresh {
			fired = true
			if lo > 776 || hi < 778 {
				t.Errorf("refresh [%d,%d] misses the victims of row 777", lo, hi)
			}
		}
	}
	if !fired {
		t.Error("no refresh within T activations")
	}
}

func TestFacadeLadder(t *testing.T) {
	ladder := NewLadder(64, 10, 32768)
	if ladder[5] != 5155 || ladder[9] != 32768 {
		t.Errorf("ladder = %v", ladder)
	}
}

// facadeSpecs is one spec of every scheme kind, with the scheme name
// each builds.
var facadeSpecs = []struct{ spec, name string }{
	{"none", "None"},
	{"sca:threshold=64,counters=8", "SCA_8"},
	{"pra:threshold=64,p=0.002,seed=1", "PRA_0.002"},
	{"prcat:threshold=64,counters=8,levels=6", "PRCAT_8"},
	{"drcat:threshold=64,counters=8,levels=6", "DRCAT_8"},
	{"cc:threshold=64,counters=256", "CC_256"},
	{"comet:threshold=64,counters=256,depth=4,seed=1", "CoMeT_256"},
	{"abacus:threshold=64,counters=64", "ABACuS_64"},
	{"dsac:threshold=64,counters=32,seed=1", "DSAC_32"},
}

// buildFacadeSpec builds one facadeSpecs entry on a small 2-channel
// geometry through ParseScheme and Build.
func buildFacadeSpec(t *testing.T, spec string) (SchemeSpec, Scheme) {
	t.Helper()
	geo, err := ParseGeometry("2ch:rows=1Ki")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := Build(parsed, geo.Geometry())
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return parsed, scheme
}

// TestFacadeSchemes: every scheme kind builds through ParseScheme and
// Build, and a CAT with a custom ladder, which has no spec form, through
// NewCAT.
func TestFacadeSchemes(t *testing.T) {
	kinds := map[mitigation.Kind]bool{}
	for _, tc := range facadeSpecs {
		spec, scheme := buildFacadeSpec(t, tc.spec)
		if scheme.Name() != tc.name || scheme.Kind() != spec.Kind {
			t.Errorf("%s built %s (%v), want %s (%v)", tc.spec, scheme.Name(), scheme.Kind(), tc.name, spec.Kind)
		}
		kinds[spec.Kind] = true
	}
	for _, k := range mitigation.Kinds() {
		if !kinds[k] {
			t.Errorf("no facade spec builds kind %v", k)
		}
	}

	ladder := []uint32{8, 16, 24, 32, 48, 64}
	cat, err := NewCAT(2, TreeConfig{
		Rows: 1 << 10, Counters: 8, MaxLevels: 6, RefreshThreshold: 64, Ladder: ladder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Kind() != mitigation.KindPRCAT {
		t.Errorf("kind = %v", cat.Kind())
	}
}

// TestFacadeModernTrackers: of every kind the facade builds, only ABACuS
// refreshes a hot row's victims in all banks at once.
func TestFacadeModernTrackers(t *testing.T) {
	for _, tc := range facadeSpecs {
		spec, scheme := buildFacadeSpec(t, tc.spec)
		if _, cross := scheme.(mitigation.CrossBank); cross != (spec.Kind == mitigation.KindABACuS) {
			t.Errorf("%s: cross-bank refreshes %v, want them for ABACuS only", tc.spec, cross)
		}
	}
}

func TestFacadeGeometryAndWorkloads(t *testing.T) {
	if g := Default2Channel(); g.TotalBanks() != 16 {
		t.Errorf("banks = %d", g.TotalBanks())
	}
	if w := Workloads(); len(w) != 18 {
		t.Errorf("workloads = %d", len(w))
	}
}

func TestFacadeGeometrySpec(t *testing.T) {
	spec, err := ParseGeometry("ddr5:channels=8,rows=128Ki")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Geometry()
	if g.Channels != 8 || g.RowsPerBank != 128*1024 {
		t.Errorf("geometry = %+v", g)
	}
	// String round-trips through ParseGeometry.
	back, err := ParseGeometry(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Geometry() != g {
		t.Errorf("round trip changed the geometry: %+v vs %+v", back.Geometry(), g)
	}
	// The preset registry is exported and carries the paper baseline.
	found := false
	for _, p := range Geometries() {
		if p.Name == "2ch" && p.Geom == Default2Channel() {
			found = true
		}
	}
	if !found {
		t.Error("Geometries() lacks the 2ch paper baseline")
	}
	if _, err := ParseGeometry("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestFacadeRunPair(t *testing.T) {
	wl, err := trace.Lookup("black")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := RunPair(SimConfig{
		Cores: 2, RequestsPerCore: 30_000, Workload: wl,
		Scheme:    sim.SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		Threshold: 1024, ThresholdScale: 0.03, IntervalNS: 2e6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Scheme.CMRPO <= 0 {
		t.Error("CMRPO must be positive for DRCAT (static floor)")
	}
}

func TestFacadeBuildFromSpec(t *testing.T) {
	spec, err := ParseScheme("comet:threshold=1024,counters=256,depth=4,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := Build(spec, Default2Channel())
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Name() != "CoMeT_256" || scheme.Kind() != mitigation.KindCoMeT {
		t.Errorf("built %s (%v)", scheme.Name(), scheme.Kind())
	}
	// Missing threshold fails loudly.
	spec.Threshold = 0
	if _, err := Build(spec, Default2Channel()); err == nil {
		t.Error("Build without threshold must fail")
	}
}

// TestReproduceAllCoversRegistry runs the whole suite at a micro scale and
// asserts every registered experiment's table appears in ReproduceAll's
// output — the executable form of "the registry and ReproduceAll cover
// identical sets", which guards against the historical drift where
// ablations and headlines ran from the CLI but not from ReproduceAll.
func TestReproduceAllCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite micro run; skipped with -short")
	}
	// One distinctive rendered marker per experiment. A registered
	// experiment without a marker here fails the test, so the map cannot
	// silently fall behind the registry.
	markers := map[string]string{
		"table1":    "Table I:",
		"table2":    "Table II:",
		"fig1":      "Fig. 1:",
		"lfsr":      "LFSR study",
		"fig2":      "Fig. 2:",
		"fig3":      "Fig. 3:",
		"fig8":      "Fig. 8:",
		"fig9":      "Fig. 9:",
		"fig10":     "Fig. 10:",
		"fig11":     "Fig. 11:",
		"fig12":     "Fig. 12:",
		"fig13":     "Fig. 13:",
		"figx":      "Fig. X",
		"figt":      "Fig. T",
		"figw":      "Fig. W",
		"ablations": "Ablation:",
		"headlines": "Headline claims",
	}
	var buf bytes.Buffer
	o := ExperimentOptions{Scale: 0.02, Seed: 3, Workloads: []string{"black"}, Quiet: true, LFSRTrials: 5}
	if err := ReproduceAll(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	infos := Experiments()
	if len(infos) != len(markers) {
		t.Errorf("registry has %d experiments, marker map %d — update the map", len(infos), len(markers))
	}
	for _, e := range infos {
		marker, ok := markers[e.Name]
		if !ok {
			t.Errorf("registered experiment %q has no output marker in this test", e.Name)
			continue
		}
		if !strings.Contains(out, marker) {
			t.Errorf("ReproduceAll output missing %s (marker %q)", e.Name, marker)
		}
	}
}

func TestReproduceAllAnalyticPieces(t *testing.T) {
	// Only the cheap pieces; the figure sweeps have their own tests.
	var buf bytes.Buffer
	for _, name := range []string{"table1", "fig1"} {
		if err := RunExperiment(&buf, name, ExperimentOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Chipkill") || !strings.Contains(out, "Table I") {
		t.Error("missing sections")
	}
}

// TestFacadeOpenLoopCaptureReplay exercises the workload/trace surface:
// an open-loop preset runs with per-tenant attribution, and a capture
// round-tripped through the v1 byte format replays to the identical
// SimResult.
func TestFacadeOpenLoopCaptureReplay(t *testing.T) {
	if len(OpenWorkloads()) == 0 {
		t.Fatal("no open-loop presets")
	}
	ol, err := LookupOpenWorkload("ol-poisson")
	if err != nil {
		t.Fatal(err)
	}
	ol.Requests = 3000
	cfg := SimConfig{
		Geometry: Default2Channel(), OpenLoop: &ol,
		Scheme:    sim.SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		Threshold: 64, ThresholdScale: 0.03, IntervalNS: 2e6, Seed: 5,
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Tenants) == 0 {
		t.Fatal("open-loop run returned no tenant attribution")
	}

	c, err := Capture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Replay = c2
	replayed, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Error("replayed SimResult differs from the live run")
	}
}
