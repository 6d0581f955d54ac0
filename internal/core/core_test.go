package core

import (
	"testing"

	"catsim/internal/rng"
)

func mustTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func defaultCfg() Config {
	return Config{
		Rows:             1 << 16,
		Counters:         64,
		MaxLevels:        11,
		RefreshThreshold: 32768,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Rows = 1000 },
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.Counters = 48 },
		func(c *Config) { c.Counters = c.Rows * 2 },
		func(c *Config) { c.MaxLevels = 0 },
		func(c *Config) { c.MaxLevels = 18 }, // deeper than log2(64K)+1
		func(c *Config) { c.RefreshThreshold = 0 },
		func(c *Config) { c.PreSplit = 12 }, // > MaxLevels... clamped; use counters
		func(c *Config) { c.WeightBits = 9 },
		func(c *Config) { c.Ladder = []uint32{1, 2} },
	}
	for i, mutate := range bad {
		cfg := defaultCfg()
		mutate(&cfg)
		if cfg.PreSplit == 12 {
			// PreSplit larger than MaxLevels is clamped, so craft a real
			// violation instead: more pre-split leaves than counters.
			cfg.PreSplit = 11
			cfg.Counters = 2
		}
		if _, err := NewTree(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestInitialShapeIsPreSplitUniform(t *testing.T) {
	tree := mustTree(t, defaultCfg())
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	// λ = log2(64) = 6 levels => 2^5 = 32 leaves at depth 5, M/2 counters.
	if len(leaves) != 32 {
		t.Fatalf("initial leaves = %d, want 32", len(leaves))
	}
	for _, l := range leaves {
		if l.Depth != 5 {
			t.Errorf("leaf %d at depth %d, want 5", l.Counter, l.Depth)
		}
		if l.Hi-l.Lo+1 != 1<<16/32 {
			t.Errorf("leaf %d covers %d rows, want %d", l.Counter, l.Hi-l.Lo+1, 1<<16/32)
		}
	}
	if tree.Full() {
		t.Error("tree must not be full initially (only M/2 counters active)")
	}
}

func TestSingleCounterTreeActsAsOneBigGroup(t *testing.T) {
	cfg := Config{Rows: 1 << 10, Counters: 1, MaxLevels: 1, RefreshThreshold: 100}
	tree := mustTree(t, cfg)
	var refreshed bool
	var lo, hi int
	for i := 0; i < 100; i++ {
		lo, hi, refreshed = tree.Access(7)
	}
	if !refreshed {
		t.Fatal("expected a refresh at exactly T accesses")
	}
	if lo != 0 || hi != cfg.Rows-1 {
		t.Errorf("refresh range [%d,%d], want full bank", lo, hi)
	}
	if s := tree.Stats(); s.RefreshEvents != 1 || s.RowsRefreshed != int64(cfg.Rows) {
		t.Errorf("stats = %+v", s)
	}
}

func TestHotRowTriggersRefreshAtThreshold(t *testing.T) {
	cfg := defaultCfg()
	cfg.RefreshThreshold = 4096
	tree := mustTree(t, cfg)
	const hot = 12345
	accesses := 0
	for {
		accesses++
		lo, hi, refresh := tree.Access(hot)
		if refresh {
			if hot < lo || hot > hi {
				t.Errorf("refresh [%d,%d] does not cover the aggressor %d", lo, hi, hot)
			}
			break
		}
		if accesses > int(cfg.RefreshThreshold) {
			t.Fatal("no refresh within T accesses of a single row")
		}
	}
	// The deterministic guarantee: refresh no later than the T-th access.
	if accesses > int(cfg.RefreshThreshold) {
		t.Errorf("refresh after %d accesses, want <= %d", accesses, cfg.RefreshThreshold)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRefreshRangeClampedAtBankEdges(t *testing.T) {
	cfg := Config{Rows: 1 << 10, Counters: 1, MaxLevels: 1, RefreshThreshold: 10}
	tree := mustTree(t, cfg)
	for i := 0; i < 9; i++ {
		tree.Access(0)
	}
	lo, hi, refresh := tree.Access(0)
	if !refresh {
		t.Fatal("expected refresh")
	}
	if lo != 0 || hi != cfg.Rows-1 {
		t.Errorf("range [%d,%d] not clamped to bank", lo, hi)
	}
}

func TestUniformAccessGrowsBalancedTree(t *testing.T) {
	// Paper Fig. 4(b): uniform access frequency distributes counters
	// uniformly and the CAT "mimics SCA".
	cfg := Config{Rows: 1 << 12, Counters: 16, MaxLevels: 8, RefreshThreshold: 1 << 12}
	tree := mustTree(t, cfg)
	src := rng.NewXoshiro256(42)
	for i := 0; i < 1<<18; i++ {
		tree.Access(rng.Intn(src, cfg.Rows))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !tree.Full() {
		t.Fatal("tree should be fully built under heavy uniform traffic")
	}
	for _, l := range tree.Leaves() {
		if l.Depth != 4 {
			t.Errorf("leaf %d at depth %d, want uniform depth 4 (= log2 M)", l.Counter, l.Depth)
		}
	}
}

func TestBiasedAccessGrowsUnbalancedTree(t *testing.T) {
	// Paper Fig. 4(a): biased access concentrates counters on the hot
	// region, producing deeper leaves there and shallower ones elsewhere.
	cfg := Config{Rows: 1 << 12, Counters: 16, MaxLevels: 9, RefreshThreshold: 1 << 12}
	tree := mustTree(t, cfg)
	src := rng.NewXoshiro256(43)
	hotLo, hotHi := 100, 115
	for i := 0; i < 1<<18; i++ {
		if i%8 != 0 {
			tree.Access(hotLo + rng.Intn(src, hotHi-hotLo+1))
		} else {
			tree.Access(rng.Intn(src, cfg.Rows))
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	maxHotDepth, maxColdDepth := 0, 0
	for _, l := range tree.Leaves() {
		overlapsHot := l.Lo <= hotHi && l.Hi >= hotLo
		if overlapsHot && l.Depth > maxHotDepth {
			maxHotDepth = l.Depth
		}
		if !overlapsHot && l.Depth > maxColdDepth && l.Lo > hotHi+1024 {
			maxColdDepth = l.Depth
		}
	}
	if maxHotDepth <= maxColdDepth {
		t.Errorf("hot region depth %d not deeper than distant cold depth %d", maxHotDepth, maxColdDepth)
	}
}

func TestSplitClonesCounterValue(t *testing.T) {
	// §IV-A: "generating two children counters initialized to the current
	// count value" — the activation upper bound must survive the split.
	cfg := Config{Rows: 1 << 8, Counters: 4, MaxLevels: 4, RefreshThreshold: 64, PreSplit: 1}
	tree := mustTree(t, cfg)
	ladder := tree.Ladder()
	for i := 0; i < int(ladder[0]); i++ {
		tree.Access(3)
	}
	leaves := tree.Leaves()
	if len(leaves) < 2 {
		t.Fatalf("expected a split, have %d leaves", len(leaves))
	}
	for _, l := range leaves {
		if l.Value < ladder[0] {
			t.Errorf("leaf %d value %d lost the inherited count %d", l.Counter, l.Value, ladder[0])
		}
	}
}

func TestMarkFullForcesThresholdToT(t *testing.T) {
	// Algorithm 1 lines 23-25: when the last counter activates, every
	// split-threshold index jumps to L-1.
	cfg := Config{Rows: 1 << 10, Counters: 4, MaxLevels: 6, RefreshThreshold: 1 << 10}
	tree := mustTree(t, cfg)
	src := rng.NewXoshiro256(7)
	for i := 0; i < 1<<16 && !tree.Full(); i++ {
		tree.Access(rng.Intn(src, cfg.Rows))
	}
	if !tree.Full() {
		t.Fatal("tree never filled")
	}
	for _, l := range tree.Leaves() {
		if int(tree.thIdx[l.Counter]) != cfg.MaxLevels-1 {
			t.Errorf("counter %d threshold index %d, want %d", l.Counter, tree.thIdx[l.Counter], cfg.MaxLevels-1)
		}
	}
}

func TestPRCATIntervalRebuild(t *testing.T) {
	cfg := defaultCfg()
	cfg.Policy = PRCAT
	tree := mustTree(t, cfg)
	src := rng.NewXoshiro256(3)
	for i := 0; i < 1<<19; i++ {
		tree.Access(rng.Intn(src, cfg.Rows))
	}
	before := len(tree.Leaves())
	if before <= 32 {
		t.Fatalf("tree did not grow (leaves = %d)", before)
	}
	tree.OnIntervalBoundary()
	if got := len(tree.Leaves()); got != 32 {
		t.Errorf("after rebuild leaves = %d, want 32 (pre-split shape)", got)
	}
	if tree.Stats().Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", tree.Stats().Rebuilds)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDRCATIntervalKeepsStructure(t *testing.T) {
	cfg := defaultCfg()
	cfg.Policy = DRCAT
	tree := mustTree(t, cfg)
	src := rng.NewXoshiro256(3)
	for i := 0; i < 1<<19; i++ {
		tree.Access(rng.Intn(src, cfg.Rows))
	}
	before := len(tree.Leaves())
	tree.OnIntervalBoundary()
	if got := len(tree.Leaves()); got != before {
		t.Errorf("DRCAT interval changed leaf count %d -> %d", before, got)
	}
	for _, l := range tree.Leaves() {
		if l.Value != 0 {
			t.Errorf("leaf %d value %d, want 0 after interval", l.Counter, l.Value)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSCAEquivalenceViaFullPreSplit(t *testing.T) {
	// A CAT pre-split to λ = log2(M)+1 levels with a uniform ladder is
	// exactly SCA_M: M fixed groups of N/M rows, refresh at T.
	const rows, m, refresh = 1 << 10, 8, 50
	cfg := Config{
		Rows: rows, Counters: m, MaxLevels: 4, RefreshThreshold: refresh,
		PreSplit: 4, Ladder: UniformLadder(4, refresh),
	}
	tree := mustTree(t, cfg)
	if !tree.Full() {
		t.Fatal("fully pre-split tree must be full")
	}
	leaves := tree.Leaves()
	if len(leaves) != m {
		t.Fatalf("leaves = %d, want %d", len(leaves), m)
	}
	group := rows / m
	// Drive one row to T: the refresh must cover its whole group +-1.
	hot := 5*group + 3
	var lo, hi int
	var refresh2 bool
	for i := 0; i < refresh; i++ {
		lo, hi, refresh2 = tree.Access(hot)
	}
	if !refresh2 {
		t.Fatal("expected refresh at T accesses")
	}
	if lo != 5*group-1 || hi != 6*group {
		t.Errorf("refresh [%d,%d], want SCA group range [%d,%d]", lo, hi, 5*group-1, 6*group)
	}
}

func TestSRAMCostBounds(t *testing.T) {
	// Paper Table II: lookups take "from 2 to L - log(M/4)" SRAM accesses
	// for λ = log2(M). Drive the tree deep and check the bounds.
	cfg := defaultCfg() // M=64, L=11
	tree := mustTree(t, cfg)
	src := rng.NewXoshiro256(9)
	for i := 0; i < 1<<19; i++ {
		tree.Access(1024 + rng.Intn(src, 64)) // concentrated: grows deep
	}
	s := tree.Stats()
	if s.SRAMAccesses < 2*s.Accesses {
		t.Errorf("mean SRAM accesses %f < 2", float64(s.SRAMAccesses)/float64(s.Accesses))
	}
	maxPer := cfg.MaxLevels - 6 + 2 // L - log2(M) + 2 = L - log2(M/4)
	if got := tree.sramCost(s.MaxDepth); got > maxPer {
		t.Errorf("deepest lookup cost %d, want <= %d", got, maxPer)
	}
}

func TestAccessPanicsOnOutOfRangeRow(t *testing.T) {
	tree := mustTree(t, defaultCfg())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range row")
		}
	}()
	tree.Access(1 << 16)
}

func TestStatsAccounting(t *testing.T) {
	cfg := Config{Rows: 1 << 8, Counters: 4, MaxLevels: 4, RefreshThreshold: 16, PreSplit: 1}
	tree := mustTree(t, cfg)
	for i := 0; i < 100; i++ {
		tree.Access(i % cfg.Rows)
	}
	s := tree.Stats()
	if s.Accesses != 100 {
		t.Errorf("Accesses = %d, want 100", s.Accesses)
	}
	if s.SRAMAccesses < s.Accesses {
		t.Error("SRAM accesses must be at least one per access")
	}
}
