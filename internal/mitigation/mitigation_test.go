package mitigation

import (
	"math"
	"reflect"
	"testing"

	"catsim/internal/core"
	"catsim/internal/rng"
)

// Interface conformance.
var (
	_ Scheme = (*None)(nil)
	_ Scheme = (*SCA)(nil)
	_ Scheme = (*PRA)(nil)
	_ Scheme = (*CAT)(nil)
	_ Scheme = (*CounterCache)(nil)
)

func uniformStream(seed uint64, banks, rows, n int) [][2]int {
	src := rng.NewXoshiro256(seed)
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{rng.Intn(src, banks), rng.Intn(src, rows)}
	}
	return out
}

func hammerStream(banks, rows, n int, targets []int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{i % banks, targets[i%len(targets)]}
	}
	return out
}

func TestSCARefreshCoversGroupPlusNeighbours(t *testing.T) {
	s, err := NewSCA(1, 1024, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SCA_8" || s.Kind() != KindSCA || s.CountersPerBank() != 8 {
		t.Errorf("metadata wrong: %s %v %d", s.Name(), s.Kind(), s.CountersPerBank())
	}
	// Group size 128; row 300 is in group 2 (rows 256..383).
	var got []RefreshRange
	for i := 0; i < 10; i++ {
		got = s.OnActivate(0, 300)
	}
	if len(got) != 1 {
		t.Fatalf("expected refresh on 10th access, got %v", got)
	}
	if got[0].Lo != 255 || got[0].Hi != 384 {
		t.Errorf("range [%d,%d], want [255,384]", got[0].Lo, got[0].Hi)
	}
	c := s.Counts()
	if c.RefreshEvents != 1 || c.RowsRefreshed != 130 || c.Activations != 10 {
		t.Errorf("counts = %+v", c)
	}
	if c.SRAMAccesses != 20 {
		t.Errorf("SRAMAccesses = %d, want 2 per activation", c.SRAMAccesses)
	}
}

func TestSCAEdgeGroupsClamped(t *testing.T) {
	s, err := NewSCA(1, 1024, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []RefreshRange
	for i := 0; i < 3; i++ {
		got = s.OnActivate(0, 0)
	}
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 128 {
		t.Errorf("edge group range = %v, want [0,128]", got)
	}
}

func TestSCAIntervalResetsCounters(t *testing.T) {
	s, _ := NewSCA(2, 256, 4, 5)
	for i := 0; i < 4; i++ {
		s.OnActivate(1, 10)
	}
	s.OnIntervalBoundary()
	// Four more accesses must not trigger (counter restarted).
	for i := 0; i < 4; i++ {
		if got := s.OnActivate(1, 10); got != nil {
			t.Fatal("refresh fired despite interval reset")
		}
	}
}

func TestSCAValidation(t *testing.T) {
	cases := []struct {
		banks, rows, m int
		th             uint32
	}{
		{0, 256, 4, 5}, {1, 0, 4, 5}, {1, 256, 0, 5}, {1, 256, 3, 5},
		{1, 256, 512, 5}, {1, 256, 4, 0},
	}
	for i, c := range cases {
		if _, err := NewSCA(c.banks, c.rows, c.m, c.th); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPRARefreshRateMatchesProbability(t *testing.T) {
	const p = 0.01
	pr, err := NewPRA(1<<16, p, 77)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	for i := 0; i < n; i++ {
		pr.OnActivate(0, 5000)
	}
	c := pr.Counts()
	rate := float64(c.RefreshEvents) / n
	if math.Abs(rate-p) > p/5 {
		t.Errorf("refresh rate %v, want about %v", rate, p)
	}
	if c.PRNGBits != 9*n {
		t.Errorf("PRNGBits = %d, want %d", c.PRNGBits, 9*n)
	}
	// Two victims per refresh away from bank edges.
	if c.RowsRefreshed != 2*c.RefreshEvents {
		t.Errorf("RowsRefreshed = %d, want %d", c.RowsRefreshed, 2*c.RefreshEvents)
	}
}

func TestPRAEdgeRowRefreshesSingleVictim(t *testing.T) {
	pr, _ := NewPRA(128, 0.999, 1)
	got := pr.OnActivate(0, 0)
	if len(got) != 1 || got[0].Lo != 1 {
		t.Errorf("edge activation ranges = %v, want just row 1", got)
	}
	got = pr.OnActivate(0, 127)
	if len(got) != 1 || got[0].Lo != 126 {
		t.Errorf("edge activation ranges = %v, want just row 126", got)
	}
}

func TestPRANeverRefreshesAggressor(t *testing.T) {
	pr, _ := NewPRA(1024, 0.9, 2)
	for i := 0; i < 1000; i++ {
		for _, rr := range pr.OnActivate(0, 500) {
			if rr.Lo <= 500 && 500 <= rr.Hi {
				t.Fatal("PRA refreshed the aggressor row")
			}
		}
	}
}

func TestPRAProbabilityForThreshold(t *testing.T) {
	cases := map[uint32]float64{65536: 0.001, 32768: 0.002, 16384: 0.003, 8192: 0.005}
	for th, want := range cases {
		if got := PRAProbabilityForThreshold(th); got != want {
			t.Errorf("T=%d: p=%v, want %v", th, got, want)
		}
	}
}

func TestPRAValidation(t *testing.T) {
	if _, err := NewPRA(0, 0.01, 1); err == nil {
		t.Error("expected rows error")
	}
	if _, err := NewPRA(16, 0, 1); err == nil {
		t.Error("expected probability error")
	}
	if _, err := NewPRA(16, 1.5, 1); err == nil {
		t.Error("expected probability error")
	}
}

func newTestCAT(t *testing.T, banks int, policy core.Policy) *CAT {
	t.Helper()
	c, err := NewCAT(banks, core.Config{
		Rows: 1 << 10, Counters: 16, MaxLevels: 8,
		RefreshThreshold: 64, Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCATNamesAndKinds(t *testing.T) {
	pr := newTestCAT(t, 2, core.PRCAT)
	dr := newTestCAT(t, 2, core.DRCAT)
	if pr.Name() != "PRCAT_16" || pr.Kind() != KindPRCAT {
		t.Errorf("PRCAT metadata: %s %v", pr.Name(), pr.Kind())
	}
	if dr.Name() != "DRCAT_16" || dr.Kind() != KindDRCAT {
		t.Errorf("DRCAT metadata: %s %v", dr.Name(), dr.Kind())
	}
	if pr.CountersPerBank() != 16 {
		t.Errorf("CountersPerBank = %d", pr.CountersPerBank())
	}
}

func TestCATBanksAreIndependent(t *testing.T) {
	c := newTestCAT(t, 2, core.PRCAT)
	// Hammer bank 0 only; bank 1's tree must stay in pre-split shape.
	for i := 0; i < 4096; i++ {
		c.OnActivate(0, 5)
	}
	if c.trees[0].Stats().Accesses != 4096 {
		t.Error("bank 0 did not receive the traffic")
	}
	if c.trees[1].Stats().Accesses != 0 {
		t.Error("bank 1 received unexpected traffic")
	}
}

func TestDeterministicSchemesAreSound(t *testing.T) {
	// Every deterministic scheme must drive the oracle with zero
	// violations, under uniform traffic and under hammering.
	const banks, rows = 2, 1 << 10
	const threshold = 64
	build := func(name string) Scheme {
		switch name {
		case "sca":
			s, _ := NewSCA(banks, rows, 16, threshold)
			return s
		case "prcat":
			c, _ := NewCAT(banks, core.Config{Rows: rows, Counters: 16,
				MaxLevels: 8, RefreshThreshold: threshold, Policy: core.PRCAT})
			return c
		case "drcat":
			c, _ := NewCAT(banks, core.Config{Rows: rows, Counters: 16,
				MaxLevels: 8, RefreshThreshold: threshold, Policy: core.DRCAT})
			return c
		case "cc":
			cc, _ := NewCounterCache(banks, rows, threshold, 64, 4)
			return cc
		}
		return nil
	}
	streams := map[string][][2]int{
		"uniform":      uniformStream(9, banks, rows, 1<<15),
		"single":       hammerStream(banks, rows, 1<<15, []int{777}),
		"double-sided": hammerStream(banks, rows, 1<<15, []int{500, 502}),
		"quad":         hammerStream(banks, rows, 1<<15, []int{64, 300, 800, 1000}),
	}
	for _, name := range []string{"sca", "prcat", "drcat", "cc"} {
		for sname, stream := range streams {
			s := build(name)
			o := NewOracle(banks, rows, threshold)
			if v := o.Drive(s, stream, 1<<13); v != 0 {
				t.Errorf("%s under %s: %d protection violations", s.Name(), sname, v)
			}
		}
	}
}

// brokenSCA deliberately omits the adjacent-row refresh to prove the oracle
// catches unsound schemes (failure injection).
type brokenSCA struct{ *SCA }

func (b brokenSCA) OnActivate(bank, row int) []RefreshRange {
	ranges := b.SCA.OnActivate(bank, row)
	if len(ranges) == 1 {
		// Refresh the group only, not the neighbours: rows adjacent to the
		// group boundary stay exposed to aggressors inside the group.
		ranges[0].Lo++
		ranges[0].Hi--
	}
	return ranges
}

func TestOracleCatchesBrokenScheme(t *testing.T) {
	s, _ := NewSCA(1, 1024, 8, 16)
	o := NewOracle(1, 1024, 16)
	// Hammer the last row of group 2 (row 383): its victim 384 lives in
	// group 3 and is only protected by the neighbour refresh we broke.
	v := o.Drive(brokenSCA{s}, hammerStream(1, 1024, 1<<13, []int{383}), 0)
	if v == 0 {
		t.Fatal("oracle failed to flag the broken scheme")
	}
}

func TestCounterCacheExactVictims(t *testing.T) {
	cc, err := NewCounterCache(1, 1024, 8, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []RefreshRange
	for i := 0; i < 8; i++ {
		got = cc.OnActivate(0, 500)
	}
	if len(got) != 2 || got[0].Lo != 499 || got[1].Lo != 501 {
		t.Errorf("victims = %v, want rows 499 and 501", got)
	}
	c := cc.Counts()
	if c.RowsRefreshed != 2 {
		t.Errorf("RowsRefreshed = %d, want 2 (exact victims)", c.RowsRefreshed)
	}
	// First access missed (cold), the rest hit.
	if c.ExtraMemAcc != 1 {
		t.Errorf("ExtraMemAcc = %d, want 1 cold miss", c.ExtraMemAcc)
	}
}

func TestCounterCacheThrashingCostsMemoryTraffic(t *testing.T) {
	cc, _ := NewCounterCache(1, 1<<16, 1<<16, 64, 4)
	src := rng.NewXoshiro256(4)
	const n = 20000
	for i := 0; i < n; i++ {
		cc.OnActivate(0, rng.Intn(src, 1<<16))
	}
	c := cc.Counts()
	// With 64 entries against 64K rows, almost every access misses.
	if c.ExtraMemAcc < n/2 {
		t.Errorf("ExtraMemAcc = %d, want heavy thrashing (> %d)", c.ExtraMemAcc, n/2)
	}
}

func TestCounterCacheEvictionPreservesExactCounts(t *testing.T) {
	// Evicted counters must survive in the backing store: hammer a row,
	// evict it by touching many conflicting rows, then resume hammering —
	// the refresh must still fire after exactly T total activations.
	const threshold = 100
	cc, _ := NewCounterCache(1, 1<<12, threshold, 16, 1) // direct-mapped, 16 sets
	hot := 5
	for i := 0; i < 50; i++ {
		cc.OnActivate(0, hot)
	}
	// Conflict: same set (row % 16 == 5), different rows.
	for i := 1; i <= 4; i++ {
		cc.OnActivate(0, hot+16*i)
	}
	fired := false
	for i := 0; i < 50; i++ {
		if got := cc.OnActivate(0, hot); len(got) > 0 {
			fired = true
			if i != 49 {
				t.Errorf("refresh after %d resumed accesses, want 50 (exact count)", i+1)
			}
		}
	}
	if !fired {
		t.Error("refresh never fired; eviction lost the count")
	}
}

func TestCATEquivalentToSCAWhenFullyPreSplit(t *testing.T) {
	// A CAT pre-split to λ = log2(M)+1 levels with a uniform ladder is
	// exactly SCA_M; both must issue identical refreshes on any stream.
	const banks, rows, m, threshold = 2, 1 << 10, 8, 32
	cat, err := NewCAT(banks, core.Config{
		Rows: rows, Counters: m, MaxLevels: 4, PreSplit: 4,
		RefreshThreshold: threshold, Ladder: core.UniformLadder(4, threshold),
	})
	if err != nil {
		t.Fatal(err)
	}
	sca, err := NewSCA(banks, rows, m, threshold)
	if err != nil {
		t.Fatal(err)
	}
	stream := uniformStream(31, banks, rows, 1<<15)
	for _, br := range stream {
		a := cat.OnActivate(br[0], br[1])
		b := sca.OnActivate(br[0], br[1])
		if len(a) != len(b) {
			t.Fatalf("refresh decision diverged: CAT %v, SCA %v", a, b)
		}
		if len(a) == 1 && a[0] != b[0] {
			t.Fatalf("refresh ranges diverged: CAT %v, SCA %v", a[0], b[0])
		}
	}
	ca, cb := cat.Counts(), sca.Counts()
	if ca.RefreshEvents != cb.RefreshEvents || ca.RowsRefreshed != cb.RowsRefreshed {
		t.Errorf("counts diverged: CAT %+v, SCA %+v", ca, cb)
	}
}

func TestNoneSchemeCountsActivationsOnly(t *testing.T) {
	n := NewNone()
	for i := 0; i < 10; i++ {
		if got := n.OnActivate(0, i); got != nil {
			t.Fatal("None must never refresh")
		}
	}
	if c := n.Counts(); c.Activations != 10 || c.RowsRefreshed != 0 {
		t.Errorf("counts = %+v", c)
	}
}

// TestCountsSubCoversEveryField guards the hand-enumerated delta exactly
// like memctrl's Stats test: no Counts field may be missing from Sub.
func TestCountsSubCoversEveryField(t *testing.T) {
	var c Counts
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	if got := c.Sub(Counts{}); got != c {
		t.Errorf("Sub(zero) = %+v, want %+v — a field is missing from Sub", got, c)
	}
}
