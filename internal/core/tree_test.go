package core

import (
	"fmt"
	"testing"

	"catsim/internal/rng"
)

// The implicit-heap Tree must be observationally indistinguishable from
// refTree, the pointer-linked transcription of Fig. 5 in reftree_test.go:
// same Access return values on every call, same statistics, same
// occupancy, same DRCAT reconfiguration decisions and the same leaves in
// row order. These differential tests drive both implementations with
// identical traces — uniform random rows, hammering storms that force
// refresh/reconfigure churn, and interval boundaries — and fail on the
// first divergence.

// diffConfigs spans the shapes that exercise every code path: tiny trees,
// the paper's defaults, saturated trees (M == leaves at presplit), deep
// ladders, and wide weight registers.
func diffConfigs() []Config {
	return []Config{
		{Rows: 1024, Counters: 16, MaxLevels: 8, RefreshThreshold: 64, Policy: PRCAT},
		{Rows: 1024, Counters: 16, MaxLevels: 8, RefreshThreshold: 64, Policy: DRCAT},
		{Rows: 4096, Counters: 64, MaxLevels: 11, RefreshThreshold: 512, Policy: DRCAT},
		{Rows: 4096, Counters: 64, MaxLevels: 11, RefreshThreshold: 512, Policy: PRCAT},
		{Rows: 512, Counters: 4, MaxLevels: 10, RefreshThreshold: 32, Policy: DRCAT, WeightBits: 3},
		{Rows: 256, Counters: 8, MaxLevels: 9, RefreshThreshold: 16, Policy: DRCAT, PreSplit: 1},
		{Rows: 256, Counters: 1, MaxLevels: 5, RefreshThreshold: 16, Policy: DRCAT},
		{Rows: 2048, Counters: 2048, MaxLevels: 12, RefreshThreshold: 128, Policy: DRCAT},
	}
}

// comparePair asserts both trees agree on one access and on all summary
// state. step identifies the failing access in the trace.
func comparePair(t *testing.T, ref *refTree, tree *Tree, row, step int) {
	t.Helper()
	rl, rh, rr := ref.Access(row)
	tl, th, tr := tree.Access(row)
	if rl != tl || rh != th || rr != tr {
		t.Fatalf("step %d row %d: reference (%d,%d,%v) != tree (%d,%d,%v)",
			step, row, rl, rh, rr, tl, th, tr)
	}
	if ref.stats != tree.Stats() {
		t.Fatalf("step %d: stats diverge\nreference %+v\ntree      %+v", step, ref.stats, tree.Stats())
	}
	if ref.nCtrs != tree.ActiveCounters() || ref.full != tree.Full() {
		t.Fatalf("step %d: occupancy diverges: reference %d/%v, tree %d/%v",
			step, ref.nCtrs, ref.full, tree.ActiveCounters(), tree.Full())
	}
}

// compareLeaves checks both trees have the same leaves in row order:
// range, depth, value and weight register. Leaf.Counter is ignored — it
// is a counter-array index in the reference and a heap slot in Tree.
func compareLeaves(t *testing.T, ref *refTree, tree *Tree, step int) {
	t.Helper()
	want, got := ref.Leaves(), tree.Leaves()
	if len(want) != len(got) {
		t.Fatalf("step %d: %d reference leaves, %d tree leaves", step, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		w.Counter, g.Counter = 0, 0
		if w != g {
			t.Fatalf("step %d: leaf %d diverges\nreference %+v\ntree      %+v", step, i, w, g)
		}
	}
}

func newPair(t *testing.T, cfg Config) (*refTree, *Tree) {
	t.Helper()
	ref, err := newRefTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref, mustTree(t, cfg)
}

// TestFlatMatchesPointerRandomTrace drives both trees with uniform random
// rows plus periodic interval boundaries.
func TestFlatMatchesPointerRandomTrace(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s_M%d_R%d", cfg.Policy, cfg.Counters, cfg.Rows), func(t *testing.T) {
			ref, tree := newPair(t, cfg)
			src := rng.NewXoshiro256(42)
			for step := 0; step < 60000; step++ {
				row := int(rng.Float64(src) * float64(cfg.Rows))
				comparePair(t, ref, tree, row, step)
				if step%7919 == 7918 {
					compareLeaves(t, ref, tree, step)
					ref.OnIntervalBoundary()
					tree.OnIntervalBoundary()
					compareLeaves(t, ref, tree, step)
				}
			}
			compareLeaves(t, ref, tree, -1)
		})
	}
}

// TestFlatMatchesPointerReconfigStorm hammers a small, periodically
// shifting set of rows so counters hit the refresh threshold constantly —
// the regime where DRCAT merges and splits on nearly every refresh and
// any divergence in merge-candidate choice shows up immediately.
func TestFlatMatchesPointerReconfigStorm(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s_M%d_R%d", cfg.Policy, cfg.Counters, cfg.Rows), func(t *testing.T) {
			ref, tree := newPair(t, cfg)
			src := rng.NewXoshiro256(7)
			base := 0
			for step := 0; step < 80000; step++ {
				if step%4096 == 4095 {
					// Shift the hammered neighbourhood so the hot region
					// moves, forcing merges of the now-cold subtree.
					base = int(rng.Float64(src) * float64(cfg.Rows))
				}
				// Double-sided hammering around the moving base with an
				// occasional far row to keep cold leaves populated.
				var row int
				switch step % 8 {
				case 7:
					row = int(rng.Float64(src) * float64(cfg.Rows))
				case 3:
					row = (base + 2) % cfg.Rows
				default:
					row = base % cfg.Rows
				}
				comparePair(t, ref, tree, row, step)
				if step%17389 == 17388 {
					compareLeaves(t, ref, tree, step)
					ref.OnIntervalBoundary()
					tree.OnIntervalBoundary()
					compareLeaves(t, ref, tree, step)
				}
			}
			st := tree.Stats()
			if cfg.Policy == DRCAT && cfg.Counters >= 4 && cfg.Counters < cfg.Rows && st.Reconfigs == 0 {
				t.Errorf("storm produced no reconfigs (refreshes %d) — test not exercising DRCAT surgery", st.RefreshEvents)
			}
			compareLeaves(t, ref, tree, -1)
		})
	}
}

// TestFlatProtectionInvariant spot-checks the tree's own guarantee
// independently of the reference: between refreshes of a row's
// neighbourhood, no row accumulates more than RefreshThreshold
// activations without Access reporting a refresh range covering it.
func TestFlatProtectionInvariant(t *testing.T) {
	cfg := Config{Rows: 512, Counters: 16, MaxLevels: 9, RefreshThreshold: 32, Policy: DRCAT}
	tree := mustTree(t, cfg)
	acts := make([]uint32, cfg.Rows)
	src := rng.NewXoshiro256(99)
	hot := 100
	for step := 0; step < 200000; step++ {
		var row int
		if rng.Float64(src) < 0.7 {
			row = hot + step%3
		} else {
			row = int(rng.Float64(src) * float64(cfg.Rows))
		}
		acts[row]++
		if acts[row] > cfg.RefreshThreshold {
			t.Fatalf("step %d: row %d reached %d activations without refresh", step, row, acts[row])
		}
		lo, hi, refresh := tree.Access(row)
		if refresh {
			for r := lo; r <= hi; r++ {
				acts[r] = 0
			}
		}
		if step%5000 == 4999 {
			tree.OnIntervalBoundary()
			for i := range acts {
				acts[i] = 0
			}
			hot = int(rng.Float64(src) * float64(cfg.Rows-8))
		}
	}
}
