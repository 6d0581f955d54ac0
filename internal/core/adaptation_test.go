package core

import (
	"testing"

	"catsim/internal/rng"
)

// Tests for the adaptive behaviours the paper claims beyond the basic
// protection guarantee: Fig. 4's tree shapes, Fig. 6's threshold-driven
// evolution, and §V-B's multi-hot-spot tracking.

func TestFigure4ShapesFromRootBuild(t *testing.T) {
	// Mirror Fig. 4 with M=8 counters and L=6 levels, building from the
	// root (PreSplit=1) so the full evolution is visible.
	base := Config{
		Rows: 1 << 10, Counters: 8, MaxLevels: 6,
		RefreshThreshold: 1 << 12, PreSplit: 1,
	}

	// (b) uniform access frequency: counters distributed uniformly,
	// tree grows only through level log2(M) = 3.
	uniform := mustTree(t, base)
	src := rng.NewXoshiro256(1)
	for i := 0; i < 1<<17 && !uniform.Full(); i++ {
		uniform.Access(rng.Intn(src, base.Rows))
	}
	for _, l := range uniform.Leaves() {
		if l.Depth != 3 {
			t.Errorf("uniform: leaf at depth %d, want 3 (Fig. 4b mimics SCA)", l.Depth)
		}
	}

	// (a) biased access: the tree grows through level 5 around the hot
	// region with large cold leaves elsewhere.
	biased := mustTree(t, base)
	for i := 0; i < 1<<17; i++ {
		row := 7 // a single ultra-hot row at the low end
		if i%16 == 0 {
			row = rng.Intn(src, base.Rows)
		}
		biased.Access(row)
	}
	var hotDepth, maxDepth, minDepth int
	minDepth = 99
	for _, l := range biased.Leaves() {
		if l.Lo <= 7 && 7 <= l.Hi {
			hotDepth = l.Depth
		}
		if l.Depth > maxDepth {
			maxDepth = l.Depth
		}
		if l.Depth < minDepth {
			minDepth = l.Depth
		}
	}
	if hotDepth != base.MaxLevels-1 {
		t.Errorf("biased: hot leaf at depth %d, want %d (Fig. 4a)", hotDepth, base.MaxLevels-1)
	}
	if minDepth >= maxDepth {
		t.Errorf("biased: tree is balanced (depths %d..%d), want unbalanced", minDepth, maxDepth)
	}
	if err := biased.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricLadderGrowsAdaptively(t *testing.T) {
	// The worked-example ladder must also produce deep hot leaves.
	cfg := Config{
		Rows: 1 << 12, Counters: 16, MaxLevels: 9,
		RefreshThreshold: 1 << 12,
	}
	cfg.Ladder = GeometricLadder(cfg.MaxLevels, cfg.RefreshThreshold)
	tree := mustTree(t, cfg)
	for i := 0; i < 1<<15; i++ {
		tree.Access(100)
	}
	var hotDepth int
	for _, l := range tree.Leaves() {
		if l.Lo <= 100 && 100 <= l.Hi {
			hotDepth = l.Depth
		}
	}
	if hotDepth != cfg.MaxLevels-1 {
		t.Errorf("hot leaf depth %d, want %d", hotDepth, cfg.MaxLevels-1)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeEvolutionFollowsCostModel(t *testing.T) {
	// §IV-D: above the critical bias (x* = 3w in the worked example) the
	// unbalanced evolution refreshes fewer rows, and the T/4, T/2, T
	// ladder makes the tree take it. Drive two trees with reference
	// streams well below and well above that bias and check which one
	// grows deeper.
	mk := func() *Tree {
		return mustTree(t, Config{
			Rows: 1 << 12, Counters: 4, MaxLevels: 4,
			RefreshThreshold: 1 << 14, PreSplit: 1,
			Ladder: GeometricLadder(4, 1<<14),
		})
	}
	// The hot region is the last eighth of the bank (the w/2 group of the
	// example). Bias factor b = extra accesses to it per uniform access.
	drive := func(tree *Tree, hotShare float64) {
		n := 1 << 18
		hotLo := tree.Config().Rows * 7 / 8
		src := rng.NewXoshiro256(99)
		for i := 0; i < n; i++ {
			if rng.Float64(src) < hotShare {
				tree.Access(hotLo + rng.Intn(src, tree.Config().Rows/8))
			} else {
				tree.Access(rng.Intn(src, tree.Config().Rows))
			}
		}
	}
	weak, strong := mk(), mk()
	drive(weak, 0.15)   // mild bias: roughly uniform pressure
	drive(strong, 0.75) // strong bias: well past critical
	maxDepth := func(tree *Tree) int {
		d := 0
		for _, l := range tree.Leaves() {
			if l.Depth > d {
				d = l.Depth
			}
		}
		return d
	}
	if maxDepth(strong) <= maxDepth(weak) {
		t.Errorf("strong bias depth %d should exceed weak bias depth %d",
			maxDepth(strong), maxDepth(weak))
	}
}

func TestDRCATTracksMultipleHotSpots(t *testing.T) {
	// §V-B: "the reconfiguration of the CAT according to the weights of
	// the counters has the flexibility of adapting to multiple hot spots".
	// The split thresholds carve fine leaves around every spot present
	// while the tree builds. (Note a genuine property of the paper's
	// weight mechanism: with several *equally* hot spots triggering in
	// strict rotation, each trigger decrements the other spots' weights,
	// so weight saturation — and hence post-build reconfiguration — needs
	// the spots to be unequal or bursty; the adaptive-build path below is
	// how multiple simultaneous spots actually get fine granularity.)
	cfg := Config{
		Rows: 1 << 12, Counters: 32, MaxLevels: 10,
		RefreshThreshold: 256, Policy: DRCAT,
	}
	tree := mustTree(t, cfg)
	spots := []int{200, 1800, 3600}
	src := rng.NewXoshiro256(17)
	for i := 0; i < 1<<17; i++ {
		row := spots[i%3]
		if i%8 == 0 {
			row = rng.Intn(src, cfg.Rows)
		}
		tree.Access(row)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every hot spot must end up in a leaf much finer than the pre-split
	// granularity (rows / 2^(λ-1) = 256 rows).
	for _, s := range spots {
		for _, l := range tree.Leaves() {
			if l.Lo <= s && s <= l.Hi {
				if size := l.Hi - l.Lo + 1; size > 32 {
					t.Errorf("hot spot %d sits in a %d-row leaf; want fine-grained tracking", s, size)
				}
			}
		}
	}
}

func TestDRCATWeightSaturationNeedsDominantSpot(t *testing.T) {
	// Companion to the multi-spot test: document that strict rotation over
	// equally hot spots keeps every weight below saturation (each trigger
	// decrements the other spots), while a single dominant spot saturates
	// and reconfigures. This pins the mechanism's actual behaviour.
	mk := func() *Tree {
		tree := mustTree(t, Config{
			Rows: 1 << 12, Counters: 16, MaxLevels: 9,
			RefreshThreshold: 128, Policy: DRCAT,
		})
		fillTree(t, tree, 31)
		return tree
	}
	rotating := mk()
	spots := []int{100, 2100, 4000}
	for i := 0; i < 1<<16; i++ {
		rotating.Access(spots[i%3])
	}
	if got := rotating.Stats().Reconfigs; got != 0 {
		t.Errorf("equal rotating spots reconfigured %d times; weight aging should prevent it", got)
	}
	dominant := mk()
	for i := 0; i < 1<<16; i++ {
		dominant.Access(100)
	}
	if got := dominant.Stats().Reconfigs; got == 0 {
		t.Error("a dominant spot should saturate its weight and reconfigure")
	}
}

func TestDRCATBeatsPRCATAcrossIntervalBoundaries(t *testing.T) {
	// §V-A: PRCAT "resets the CAT periodically, even when the row access
	// patterns do not change, potentially incurring the overhead of
	// reconstructing the CAT unnecessarily". With a stable pattern and
	// several interval boundaries, DRCAT (which keeps its shape) must
	// refresh no more rows than PRCAT (which relearns every interval).
	run := func(policy Policy) int64 {
		cfg := Config{
			Rows: 1 << 12, Counters: 16, MaxLevels: 9,
			RefreshThreshold: 512, Policy: policy,
		}
		tree, err := NewTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewXoshiro256(23)
		for interval := 0; interval < 8; interval++ {
			for i := 0; i < 1<<14; i++ {
				row := 999
				if i%4 == 0 {
					row = rng.Intn(src, cfg.Rows)
				}
				tree.Access(row)
			}
			tree.OnIntervalBoundary()
		}
		return tree.Stats().RowsRefreshed
	}
	drcat, prcat := run(DRCAT), run(PRCAT)
	if drcat > prcat {
		t.Errorf("DRCAT refreshed %d rows, PRCAT %d; stable patterns should favour DRCAT", drcat, prcat)
	}
}

func TestWorstCaseAdversarialRotation(t *testing.T) {
	// An adversary rotating over exactly the pre-split group boundaries
	// tries to force maximal splitting then defeat precision; protection
	// must hold and the tree must stay structurally sound.
	cfg := Config{
		Rows: 1 << 10, Counters: 16, MaxLevels: 8,
		RefreshThreshold: 64, Policy: DRCAT,
	}
	tree := mustTree(t, cfg)
	o := newExposureOracle(cfg.Rows, cfg.RefreshThreshold)
	groups := cfg.Rows / 8
	stream := func(i int) int {
		g := (i * 7) % 8
		return g*groups + (i % groups) // stride through every group
	}
	driveWithOracle(t, tree, o, stream, 1<<16, 1<<13)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
