package trace

import (
	"slices"
	"testing"

	"catsim/internal/addrmap"
)

// Tests for the adversarial attack patterns beyond the paper's Gaussian
// kernels, and the blend-mode convergence contract.

func mustAttack(t *testing.T, kernel int, mode AttackMode, p Pattern) *Attack {
	t.Helper()
	atk, err := NewAttackPattern(kernel, mode, p, testGeom(), testPolicy(t), mustGen(t, presets[0], 5))
	if err != nil {
		t.Fatal(err)
	}
	return atk
}

func allPatterns() []Pattern {
	return []Pattern{PatternGaussian, PatternDoubleSided, PatternManySided, PatternBankSweep}
}

func TestPatternStrings(t *testing.T) {
	want := map[Pattern]string{
		PatternGaussian:    "gauss",
		PatternDoubleSided: "double",
		PatternManySided:   "many",
		PatternBankSweep:   "sweep",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Pattern %d = %q, want %q", int(p), p.String(), s)
		}
	}
	if Pattern(9).String() != "Pattern(9)" {
		t.Errorf("unknown pattern = %q", Pattern(9).String())
	}
}

func TestUnknownPatternRejected(t *testing.T) {
	_, err := NewAttackPattern(0, Heavy, Pattern(9), testGeom(), testPolicy(t), mustGen(t, presets[0], 5))
	if err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

func TestPatternsRejectUndersizedGeometry(t *testing.T) {
	// Aggressor layouts that do not fit the bank must fail loudly, not
	// silently fold rows out of range.
	g := testGeom()
	g.RowsPerBank = 8 // valid power of two, too small for many-sided (needs 17)
	p, err := addrmap.NewRowInterleaved(g)
	if err != nil {
		t.Fatal(err)
	}
	benign, err := NewSynthetic(presets[0], g.TotalBytes(), g.LineBytes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttackPattern(0, Heavy, PatternManySided, g, p, benign); err == nil {
		t.Error("many-sided accepted an 8-row bank")
	}
	if _, err := NewAttackPattern(0, Heavy, PatternGaussian, g, p, benign); err != nil {
		t.Errorf("gaussian rejected an 8-row bank: %v", err)
	}
}

func TestGaussianPatternKeepsLegacyKernelSeeds(t *testing.T) {
	// The adversarial patterns must not perturb the paper's kernels: a
	// Gaussian attack picks the targets it picked before the pattern seed
	// space was added, independent of pattern numbering.
	want := map[int][]int64{
		0: {6810506560, 4880604096, 5993401088, 7296779136},
		3: {9959904192, 7127182720, 8904778496, 6172974272},
	}
	for kernel, first := range want {
		if got := mustAttack(t, kernel, Heavy, PatternGaussian).targets[:len(first)]; !slices.Equal(got, first) {
			t.Errorf("kernel %d: first targets %v, want %v", kernel, got, first)
		}
	}
}

// TestAttackModeFractionsConverge asserts the §VIII-D blend contract for
// every pattern: the fraction of emissions that are attack requests (the
// tight hammer gap marks them) converges to 0.75/0.50/0.25 for
// Heavy/Medium/Light.
func TestAttackModeFractionsConverge(t *testing.T) {
	const n = 100_000
	const tol = 0.02
	for _, pattern := range allPatterns() {
		for _, mode := range []AttackMode{Heavy, Medium, Light} {
			atk := mustAttack(t, 3, mode, pattern)
			targetSet := make(map[int64]bool)
			for _, a := range atk.targets {
				targetSet[a] = true
			}
			attacks := 0
			for i := 0; i < n; i++ {
				// Attack emissions are target accesses with the tight
				// hammer gap; a benign request matching both is possible
				// but vanishingly rare, so the empirical fraction must
				// converge to the mode's blend.
				if r := atk.Next(); r.Gap == hammerGap && targetSet[r.Addr] {
					attacks++
				}
			}
			frac := float64(attacks) / n
			if want := mode.TargetFraction(); frac < want-tol || frac > want+tol {
				t.Errorf("%s/%s: attack fraction %.4f, want %.2f±%.2f", pattern, mode, frac, want, tol)
			}
		}
	}
}

// TestAdversarialPatternsDeterministicPerSeed is the satellite determinism
// contract: identical (kernel, mode, pattern) arguments reproduce the
// exact request stream; distinct kernels diverge.
func TestAdversarialPatternsDeterministicPerSeed(t *testing.T) {
	const n = 20_000
	for _, pattern := range allPatterns() {
		a := mustAttack(t, 4, Heavy, pattern)
		b := mustAttack(t, 4, Heavy, pattern)
		other := mustAttack(t, 5, Heavy, pattern)
		diverged := false
		for i := 0; i < n; i++ {
			ra, rb := a.Next(), b.Next()
			if ra != rb {
				t.Fatalf("%s: same kernel diverged at request %d: %+v vs %+v", pattern, i, ra, rb)
			}
			if ro := other.Next(); ro != ra {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: distinct kernels emitted identical streams", pattern)
		}
	}
}

func TestDoubleSidedEmitsAdjacentPairs(t *testing.T) {
	g := testGeom()
	p := testPolicy(t)
	atk := mustAttack(t, 2, Heavy, PatternDoubleSided)
	if got, want := len(atk.targets), g.TotalBanks()*TargetsPerBank; got != want {
		t.Fatalf("targets = %d, want %d", got, want)
	}
	// Consecutive target entries are an aggressor pair around one victim.
	for i := 0; i+1 < len(atk.targets); i += 2 {
		lo := p.Decode(atk.targets[i])
		hi := p.Decode(atk.targets[i+1])
		if lo.Bank != hi.Bank {
			t.Fatalf("pair %d spans banks %v and %v", i/2, lo.Bank, hi.Bank)
		}
		if hi.Row-lo.Row != 2 {
			t.Errorf("pair %d rows %d/%d, want an aggressor pair two apart", i/2, lo.Row, hi.Row)
		}
	}
	// Emission alternates the two sides of a pair: between consecutive
	// attack emissions, the second aggressor (same bank, row+2) must
	// regularly complete the first.
	type coord struct {
		bank int
		row  int
	}
	var prev *coord
	pairs, attacks := 0, 0
	for i := 0; i < 10_000; i++ {
		r := atk.Next()
		if r.Gap != hammerGap {
			continue
		}
		attacks++
		c := p.Decode(r.Addr)
		cur := coord{bank: testGeom().Flat(c.Bank), row: c.Row}
		if prev != nil && cur.bank == prev.bank && cur.row == prev.row+2 {
			pairs++
		}
		prev = &cur
	}
	if pairs < attacks/4 {
		t.Errorf("only %d of %d attack emissions completed an aggressor pair", pairs, attacks)
	}
}

func TestManySidedRoundRobinsAcrossBanks(t *testing.T) {
	p := testPolicy(t)
	atk := mustAttack(t, 2, Heavy, PatternManySided)
	g := testGeom()
	if got, want := len(atk.targets), g.TotalBanks()*2*TargetsPerBank; got != want {
		t.Fatalf("targets = %d, want %d", got, want)
	}
	// The first TotalBanks() entries of the walk touch every bank once.
	seen := map[int]bool{}
	for _, a := range atk.targets[:g.TotalBanks()] {
		c := p.Decode(a)
		seen[g.Flat(c.Bank)] = true
	}
	if len(seen) != g.TotalBanks() {
		t.Errorf("first round touches %d banks, want %d", len(seen), g.TotalBanks())
	}
	// Within one bank the aggressors are spaced two apart.
	c0 := p.Decode(atk.targets[0])
	c1 := p.Decode(atk.targets[g.TotalBanks()])
	if c0.Bank != c1.Bank || c1.Row-c0.Row != 2 {
		t.Errorf("bank cluster not spaced two apart: %v/%d then %v/%d", c0.Bank, c0.Row, c1.Bank, c1.Row)
	}
}

func TestBankSweepHitsSameRowsInEveryBank(t *testing.T) {
	p := testPolicy(t)
	g := testGeom()
	atk := mustAttack(t, 2, Heavy, PatternBankSweep)
	if got, want := len(atk.targets), g.TotalBanks()*2; got != want {
		t.Fatalf("targets = %d, want %d", got, want)
	}
	first := p.Decode(atk.targets[0])
	banks := map[int]bool{}
	for i, a := range atk.targets {
		c := p.Decode(a)
		banks[g.Flat(c.Bank)] = true
		wantRow := first.Row
		if i%2 == 1 {
			wantRow += 2
		}
		if c.Row != wantRow {
			t.Errorf("target %d row %d, want %d (same pair in every bank)", i, c.Row, wantRow)
		}
	}
	if len(banks) != g.TotalBanks() {
		t.Errorf("sweep touches %d banks, want %d", len(banks), g.TotalBanks())
	}
}
