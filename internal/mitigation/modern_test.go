package mitigation

import (
	"strings"
	"testing"

	"catsim/internal/rng"
)

// Tests for the modern tracker suite (CoMeT / ABACuS / DSAC) built on
// internal/sketch.

var (
	_ Scheme    = (*CoMeT)(nil)
	_ Scheme    = (*ABACuS)(nil)
	_ Scheme    = (*Stochastic)(nil)
	_ CrossBank = (*ABACuS)(nil)
)

func newTestCoMeT(t *testing.T, banks, rows int, threshold uint32) *CoMeT {
	t.Helper()
	c, err := NewCoMeT(banks, rows, threshold, 256, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestModernSchemeMetadata(t *testing.T) {
	c := newTestCoMeT(t, 2, 1<<10, 64)
	if c.Name() != "CoMeT_256" || c.Kind() != KindCoMeT {
		t.Errorf("CoMeT metadata: %s %v", c.Name(), c.Kind())
	}
	if c.CountersPerBank() != 256+CoMeTRATEntries {
		t.Errorf("CoMeT CountersPerBank = %d", c.CountersPerBank())
	}
	a, err := NewABACuS(16, 1<<10, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "ABACuS_512" || a.Kind() != KindABACuS || a.CountersPerBank() != 32 {
		t.Errorf("ABACuS metadata: %s %v %d", a.Name(), a.Kind(), a.CountersPerBank())
	}
	s, err := NewStochastic(2, 1<<10, 32, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "DSAC_32" || s.Kind() != KindStochastic || s.CountersPerBank() != 32 {
		t.Errorf("DSAC metadata: %s %v %d", s.Name(), s.Kind(), s.CountersPerBank())
	}
}

func TestModernSchemeValidation(t *testing.T) {
	if _, err := NewCoMeT(0, 1024, 64, 256, 4, 1); err == nil {
		t.Error("CoMeT: expected banks error")
	}
	if _, err := NewCoMeT(1, 1024, 1, 256, 4, 1); err == nil {
		t.Error("CoMeT: expected threshold error")
	}
	if _, err := NewCoMeT(1, 1024, 64, 255, 4, 1); err == nil {
		t.Error("CoMeT: expected divisibility error")
	}
	if _, err := NewABACuS(1, 0, 64, 64); err == nil {
		t.Error("ABACuS: expected rows error")
	}
	if _, err := NewABACuS(1, 1024, 0, 64); err == nil {
		t.Error("ABACuS: expected entries error")
	}
	if _, err := NewABACuS(1, 1024, 64, 1); err == nil {
		t.Error("ABACuS: expected threshold error")
	}
}

// manySidedStream builds an n-long stream that round-robins over k
// aggressor rows spaced two apart (the classic many-sided pattern) across
// the given banks.
func manySidedStream(banks, base, k, n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{i % banks, base + 2*((i/banks)%k)}
	}
	return out
}

// TestModernSchemesSoundUnderAdversarialPatterns is the ISSUE-2 acceptance
// oracle proof: each new scheme must refresh every true victim row before
// its exposure crosses the threshold, under double-sided and many-sided
// hammering. DSAC is probabilistic by design, so it is exercised with a
// table large enough to hold every aggressor — the regime in which it too
// counts exactly — while its under-pressure behaviour is quantified by the
// sim-level missed-victim harness instead.
func TestModernSchemesSoundUnderAdversarialPatterns(t *testing.T) {
	const banks, rows = 2, 1 << 10
	const threshold = 64
	build := func(name string) Scheme {
		switch name {
		case "comet":
			c, err := NewCoMeT(banks, rows, threshold, 256, 4, 7)
			if err != nil {
				t.Fatal(err)
			}
			return c
		case "abacus":
			a, err := NewABACuS(banks, rows, 64, threshold)
			if err != nil {
				t.Fatal(err)
			}
			return a
		case "dsac":
			s, err := NewStochastic(banks, rows, 32, threshold, 3)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		return nil
	}
	streams := map[string][][2]int{
		"uniform":      uniformStream(17, banks, rows, 1<<15),
		"single":       hammerStream(banks, rows, 1<<15, []int{777}),
		"double-sided": hammerStream(banks, rows, 1<<15, []int{500, 502}),
		"many-sided":   manySidedStream(banks, 300, 8, 1<<15),
	}
	for _, name := range []string{"comet", "abacus", "dsac"} {
		for sname, stream := range streams {
			s := build(name)
			o := NewOracle(banks, rows, threshold)
			if v := o.Drive(s, stream, 1<<13); v != 0 {
				t.Errorf("%s under %s: %d protection violations", s.Name(), sname, v)
			}
			if o.MissedVictimRows() != 0 {
				t.Errorf("%s under %s: %d missed victims", s.Name(), sname, o.MissedVictimRows())
			}
			if c := s.Counts(); c.Activations != int64(len(stream)) {
				t.Errorf("%s: %d activations counted, want %d", s.Name(), c.Activations, len(stream))
			}
		}
	}
}

func TestCoMeTRefreshesVictimsAtThreshold(t *testing.T) {
	// On an otherwise idle sketch a single hammered row counts exactly:
	// the victims must be refreshed before exposure can cross T.
	const threshold = 100
	c := newTestCoMeT(t, 1, 1<<10, threshold)
	fired := 0
	for i := 0; i < 300; i++ {
		if len(c.OnActivate(0, 500)) > 0 {
			fired++
		}
	}
	if fired < 3 {
		t.Errorf("refresh fired %d times over 300 activations at T=100, want 3", fired)
	}
	counts := c.Counts()
	if counts.RowsRefreshed < int64(2*fired) {
		t.Errorf("RowsRefreshed = %d for %d firings", counts.RowsRefreshed, fired)
	}
	if counts.SRAMAccesses == 0 {
		t.Error("no SRAM accesses accounted")
	}
}

func TestCoMeTIntervalBoundaryResets(t *testing.T) {
	c := newTestCoMeT(t, 1, 1<<10, 100)
	for i := 0; i < 99; i++ {
		c.OnActivate(0, 500)
	}
	c.OnIntervalBoundary()
	for i := 0; i < 99; i++ {
		if got := c.OnActivate(0, 500); len(got) != 0 {
			t.Fatal("refresh fired despite interval reset")
		}
	}
}

func TestABACuSRefreshesAcrossAllBanks(t *testing.T) {
	// Hammering row 500 from bank 0 only must still refresh 499/501 in
	// every bank: the counter is shared by row ID.
	const banks, rows, threshold = 4, 1 << 10, 50
	a, err := NewABACuS(banks, rows, 16, threshold)
	if err != nil {
		t.Fatal(err)
	}
	var ranges []RefreshRange
	var cross []BankRefresh
	for i := 0; i < 2*threshold; i++ {
		ranges = a.OnActivate(0, 500)
		if len(ranges) > 0 {
			cross = append([]BankRefresh(nil), a.PendingCrossBank()...)
			break
		}
	}
	if len(ranges) != 2 {
		t.Fatalf("no local refresh after %d activations", 2*threshold)
	}
	if len(cross) != 2*(banks-1) {
		t.Fatalf("cross-bank refreshes = %d, want %d", len(cross), 2*(banks-1))
	}
	seen := map[int]int{}
	for _, bf := range cross {
		if bf.Bank == 0 {
			t.Error("cross-bank list contains the activating bank")
		}
		if bf.Range.Lo != 499 && bf.Range.Lo != 501 {
			t.Errorf("cross-bank refresh of row %d, want 499/501", bf.Range.Lo)
		}
		seen[bf.Bank]++
	}
	for b := 1; b < banks; b++ {
		if seen[b] != 2 {
			t.Errorf("bank %d received %d refreshes, want 2", b, seen[b])
		}
	}
	if c := a.Counts(); c.RowsRefreshed != int64(2*banks) {
		t.Errorf("RowsRefreshed = %d, want %d", c.RowsRefreshed, 2*banks)
	}
}

func TestABACuSSharedCounterTracksMaxNotSum(t *testing.T) {
	// Alternating the same row across two banks must trigger at roughly
	// 2T total activations (max per bank = T), not at T: the SAV gates
	// the shared counter so benign all-bank traffic is not over-refreshed.
	const banks, rows, threshold = 2, 1 << 10, 50
	a, _ := NewABACuS(banks, rows, 16, threshold)
	total := 0
	for ; total < 4*threshold; total++ {
		if len(a.OnActivate(total%banks, 500)) > 0 {
			break
		}
	}
	if total < 2*(threshold-2) {
		t.Errorf("shared counter fired after %d alternating activations; counting the sum, not the max", total)
	}
}

func TestABACuSSpilloverEscapeRefreshesEverything(t *testing.T) {
	// A deliberately undersized summary flooded with distinct rows must
	// hit the spillover escape (refresh every bank wholesale) rather than
	// silently losing protection.
	const banks, rows, threshold = 2, 256, 8
	a, _ := NewABACuS(banks, rows, 2, threshold)
	o := NewOracle(banks, rows, threshold)
	stream := make([][2]int, 1<<13)
	src := rng.NewXoshiro256(5)
	for i := range stream {
		stream[i] = [2]int{rng.Intn(src, banks), rng.Intn(src, rows)}
	}
	if v := o.Drive(a, stream, 0); v != 0 {
		t.Errorf("%d violations despite spillover escape", v)
	}
	if c := a.Counts(); c.RowsRefreshed < int64(banks*rows) {
		t.Errorf("RowsRefreshed = %d; the escape should have swept at least one full system", c.RowsRefreshed)
	}
}

func TestStochasticChargesPRNGBits(t *testing.T) {
	// Under pressure (more rows than entries) every miss on the full
	// table draws randomness, which the energy model prices.
	s, _ := NewStochastic(1, 1<<12, 4, 1<<12, 8)
	src := rng.NewXoshiro256(9)
	for i := 0; i < 10000; i++ {
		s.OnActivate(0, rng.Intn(src, 1<<12))
	}
	c := s.Counts()
	if c.PRNGBits == 0 {
		t.Fatal("no PRNG bits charged despite table pressure")
	}
	if c.PRNGBits%StochasticDrawBits != 0 {
		t.Errorf("PRNGBits = %d not a multiple of the draw width", c.PRNGBits)
	}
}

func TestStochasticCanMissUnderPressure(t *testing.T) {
	// The flip side of DSAC's cheapness: with far more aggressors than
	// entries, some victim must eventually cross the threshold — the
	// protection gap the FigX harness quantifies. 64 aggressors against a
	// 2-entry table at a tight threshold makes a miss all but certain.
	const banks, rows, threshold = 1, 1 << 10, 16
	s, _ := NewStochastic(banks, rows, 2, threshold, 11)
	o := NewOracle(banks, rows, threshold)
	targets := make([]int, 64)
	for i := range targets {
		targets[i] = 4 * (i + 1)
	}
	o.Drive(s, hammerStream(banks, rows, 1<<15, targets), 0)
	if o.MissedVictimRows() == 0 {
		t.Error("no missed victims; the stochastic tracker should be overwhelmed here")
	}
	if o.MissedVictimRows() > o.ExposedVictimRows() {
		t.Errorf("%d missed victims out of %d exposed", o.MissedVictimRows(), o.ExposedVictimRows())
	}
}

// TestKindRegistry pins every family's name in Kinds() order: the
// canonical spelling specs, JSON and figure labels are built from.
func TestKindRegistry(t *testing.T) {
	want := []string{"None", "SCA", "PRA", "PRCAT", "DRCAT", "CounterCache", "CoMeT", "ABACuS", "Stochastic"}
	kinds := Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("Kinds() = %v, want the %d families %q", kinds, len(want), want)
	}
	for i, k := range kinds {
		if !k.Valid() {
			t.Errorf("kind %d invalid despite registry listing", int(k))
		}
		if s := k.String(); s != want[i] {
			t.Errorf("kind %d String() = %q, want %q", int(k), s, want[i])
		}
	}
	bogus := Kind(97)
	if bogus.Valid() {
		t.Error("Kind(97) reported valid")
	}
	if s := bogus.String(); !strings.Contains(s, "!?") {
		t.Errorf("unknown kind renders as %q; it should stand out", s)
	}
}
