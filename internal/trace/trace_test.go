package trace

import (
	"testing"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
)

func testGeom() dram.Geometry { return dram.Default2Channel() }

func testPolicy(t *testing.T) addrmap.Policy {
	t.Helper()
	p, err := addrmap.NewRowInterleaved(testGeom())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustGen(t *testing.T, spec Spec, seed uint64) *Synthetic {
	t.Helper()
	g := testGeom()
	gen, err := NewSynthetic(spec, g.TotalBytes(), g.LineBytes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestAllPresetsValidAndGenerate(t *testing.T) {
	if len(Workloads()) != 18 {
		t.Fatalf("have %d workloads, want the paper's 18", len(Workloads()))
	}
	g := testGeom()
	for _, spec := range Workloads() {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		gen := mustGen(t, spec, 1)
		for i := 0; i < 1000; i++ {
			r := gen.Next()
			if r.Addr < 0 || r.Addr >= g.TotalBytes() {
				t.Fatalf("%s: address %#x out of memory", spec.Name, r.Addr)
			}
			if r.Addr%int64(g.LineBytes) != 0 {
				t.Fatalf("%s: address %#x not line aligned", spec.Name, r.Addr)
			}
			if r.Gap < 1 {
				t.Fatalf("%s: gap %d", spec.Name, r.Gap)
			}
		}
	}
}

func TestWorkloadNamesMatchFigureOrder(t *testing.T) {
	names := WorkloadNames()
	want := []string{"comm1", "comm2", "comm3", "comm4", "comm5",
		"swapt", "fluid", "str", "black", "ferret", "face", "freq",
		"MTC", "MTF", "libq", "leslie", "mum", "tigr"}
	if len(names) != len(want) {
		t.Fatalf("have %d names", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("position %d: %s, want %s", i, names[i], want[i])
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("black")
	if err != nil || s.Name != "black" {
		t.Errorf("Lookup(black) = %v, %v", s, err)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, _ := Lookup("comm1")
	a := mustGen(t, spec, 7)
	b := mustGen(t, spec, 7)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestDistinctSeedsDistinctLayouts(t *testing.T) {
	spec, _ := Lookup("black")
	a, b := mustGen(t, spec, 1), mustGen(t, spec, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 100 {
		t.Errorf("%d/1000 identical addresses across seeds; layouts not distinct", same)
	}
}

func TestSkewedWorkloadConcentratesOnFewRows(t *testing.T) {
	// Fig. 3: for blackscholes "a small group of rows dominate overall
	// accesses". The 16 hottest rows of the hottest bank must absorb a
	// large fraction of that bank's accesses.
	spec, _ := Lookup("black")
	gen := mustGen(t, spec, 3)
	hist := RowHistogram(gen, testGeom(), testPolicy(t), 400000)
	best := SkewSummary{}
	for _, bank := range hist {
		s := Summarise(bank)
		if s.Total > best.Total {
			best = s
		}
	}
	if best.Top16Frac < 0.30 {
		t.Errorf("top-16 rows absorb %.2f of accesses, want >= 0.30", best.Top16Frac)
	}
}

func TestStreamingWorkloadIsFlat(t *testing.T) {
	// libquantum sweeps its footprint: accesses spread over many rows and
	// no row dominates.
	spec, _ := Lookup("libq")
	gen := mustGen(t, spec, 3)
	hist := RowHistogram(gen, testGeom(), testPolicy(t), 400000)
	var total int64
	var max int64
	touched := 0
	for _, bank := range hist {
		s := Summarise(bank)
		total += s.Total
		touched += s.TouchedRows
		if s.MaxPerRow > max {
			max = s.MaxPerRow
		}
	}
	if touched < 500 {
		t.Errorf("streaming workload touched only %d rows", touched)
	}
	if float64(max) > 0.2*float64(total) {
		t.Errorf("hottest row has %d of %d accesses; too skewed for streaming", max, total)
	}
}

func TestPhaseDriftMovesHotSpots(t *testing.T) {
	spec := Spec{Name: "drifty", Suite: "TEST", FootprintFrac: 0.5, HotSpots: 2,
		HotSigmaKB: 16, HotFraction: 0.9, PhaseLen: 5000, GapMean: 10}
	gen := mustGen(t, spec, 11)
	firstHot := make(map[int64]bool)
	for i := 0; i < 4000; i++ {
		firstHot[gen.Next().Addr>>20] = true // megabyte granularity
	}
	// Run through many phases; new megabyte regions must appear.
	later := 0
	for i := 0; i < 100000; i++ {
		if !firstHot[gen.Next().Addr>>20] {
			later++
		}
	}
	if later == 0 {
		t.Error("no new hot regions after phase changes")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x", FootprintFrac: 0, GapMean: 10},
		{Name: "x", FootprintFrac: 0.5, HotSpots: -1, GapMean: 10},
		{Name: "x", FootprintFrac: 0.5, HotFraction: 0.7, SweepFraction: 0.5, GapMean: 10},
		{Name: "x", FootprintFrac: 0.5, HotFraction: 0.5, HotSpots: 0, GapMean: 10},
		{Name: "x", FootprintFrac: 0.5, GapMean: 0},
		{Name: "x", FootprintFrac: 0.5, GapMean: 10, WriteFraction: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGapMeanControlsIntensity(t *testing.T) {
	mk := func(gap int) float64 {
		spec := Spec{Name: "g", Suite: "TEST", FootprintFrac: 0.5, GapMean: gap}
		gen := mustGen(t, spec, 5)
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += gen.Next().Gap
		}
		return float64(sum) / n
	}
	slow, fast := mk(200), mk(20)
	if slow < 150 || slow > 250 {
		t.Errorf("mean gap %v for GapMean 200", slow)
	}
	if fast < 15 || fast > 25 {
		t.Errorf("mean gap %v for GapMean 20", fast)
	}
}

func TestAttackTargetsGaussianAndPerBank(t *testing.T) {
	g := testGeom()
	benign := mustGen(t, presets[0], 1)
	atk, err := NewAttackPattern(0, Heavy, PatternGaussian, g, testPolicy(t), benign)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(atk.targets); got != g.TotalBanks()*TargetsPerBank {
		t.Errorf("targets = %d, want %d (4 per bank)", got, g.TotalBanks()*TargetsPerBank)
	}
	// Distinct kernels pick distinct targets.
	atk2, _ := NewAttackPattern(1, Heavy, PatternGaussian, g, testPolicy(t), mustGen(t, presets[0], 1))
	same := 0
	for i, a := range atk.targets {
		if atk2.targets[i] == a {
			same++
		}
	}
	if same > len(atk.targets)/4 {
		t.Errorf("%d/%d identical targets across kernels", same, len(atk.targets))
	}
}

func TestAttackModeBlendFractions(t *testing.T) {
	g := testGeom()
	p := testPolicy(t)
	for _, mode := range []AttackMode{Heavy, Medium, Light} {
		benign := mustGen(t, presets[0], 9)
		atk, err := NewAttackPattern(3, mode, PatternGaussian, g, p, benign)
		if err != nil {
			t.Fatal(err)
		}
		targetSet := make(map[int64]bool)
		for _, a := range atk.targets {
			targetSet[a] = true
		}
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if targetSet[atk.Next().Addr] {
				hits++
			}
		}
		frac := float64(hits) / n
		want := mode.TargetFraction()
		// Benign traffic can also hit target addresses, so frac >= want.
		if frac < want-0.03 || frac > want+0.10 {
			t.Errorf("%s: target fraction %.3f, want about %.2f", mode, frac, want)
		}
	}
}

func TestMemoryIntensiveSubsetNonEmpty(t *testing.T) {
	mi := MemoryIntensive()
	if len(mi) < 4 {
		t.Errorf("only %d memory-intensive workloads", len(mi))
	}
	for _, s := range mi {
		if s.GapMean > 100 {
			t.Errorf("%s has GapMean %d", s.Name, s.GapMean)
		}
	}
}

// TestPhasedSwitchesGenerators checks the onset primitive: exactly
// switchAfter requests from the early stream, everything after from the
// late one, with the shared deterministic state intact.
func TestPhasedSwitchesGenerators(t *testing.T) {
	wl, err := Lookup("black")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Synthetic {
		g, err := NewSynthetic(wl, 1<<30, 64, 11)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref := mk()
	var want []Request
	for i := 0; i < 100; i++ {
		want = append(want, ref.Next())
	}
	// Phase both halves off the same underlying stream: the phased view
	// must replay it verbatim regardless of the switch point.
	shared := mk()
	phased, err := NewPhased(40, shared, shared)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := phased.Next(); got != w {
			t.Fatalf("request %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := NewPhased(-1, shared, shared); err == nil {
		t.Error("negative switch point accepted")
	}
	if _, err := NewPhased(1, nil, shared); err == nil {
		t.Error("nil early generator accepted")
	}
	name := mustPhasedName(t, shared)
	if name == "" {
		t.Error("phased stream needs a name")
	}
}

func mustPhasedName(t *testing.T, g Generator) string {
	t.Helper()
	p, err := NewPhased(3, g, g)
	if err != nil {
		t.Fatal(err)
	}
	return p.Name()
}
