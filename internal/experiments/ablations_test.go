package experiments

import "testing"

func TestAblationLadders(t *testing.T) {
	points, _, err := ablationLaddersReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	published, geometric, uniform := points[0], points[1], points[2]
	// The adaptive ladders must refresh far fewer rows than the uniform
	// (SCA-shaped) ladder on a biased stream — the paper's core argument.
	if published.RowsRefreshed >= uniform.RowsRefreshed {
		t.Errorf("published ladder refreshed %d rows, uniform %d; adaptivity should win",
			published.RowsRefreshed, uniform.RowsRefreshed)
	}
	if geometric.RowsRefreshed >= uniform.RowsRefreshed {
		t.Errorf("geometric ladder refreshed %d rows, uniform %d",
			geometric.RowsRefreshed, uniform.RowsRefreshed)
	}
	// Deeper trees cost more SRAM traffic per access.
	if published.SRAMPerAccess <= 2.0 {
		t.Errorf("SRAM/access = %v, expected above the 2-access floor", published.SRAMPerAccess)
	}
}

func TestAblationWeightBits(t *testing.T) {
	points, _, err := ablationWeightBitsReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Narrow registers reconfigure at least as often as wide ones (they
	// saturate faster).
	if points[0].Reconfigs < points[3].Reconfigs {
		t.Errorf("1-bit reconfigs %d < 4-bit %d", points[0].Reconfigs, points[3].Reconfigs)
	}
}

func TestAblationPreSplit(t *testing.T) {
	points, _, err := ablationPreSplitReport(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// λ=1 (build from the root) pays the most SRAM accesses per lookup;
	// λ=7 (a complete 64-leaf tree) pays the least.
	if points[0].SRAMPerAccess <= points[3].SRAMPerAccess {
		t.Errorf("λ=1 SRAM/access %.2f should exceed λ=7's %.2f",
			points[0].SRAMPerAccess, points[3].SRAMPerAccess)
	}
}

func TestAblationCounterCache(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"black"}
	cells, _, err := ablationCounterCacheReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	drcat, cc := cells[0], cells[1]
	// Exact per-row counters refresh the fewest rows...
	if cc.Counts.RowsRefreshed >= drcat.Counts.RowsRefreshed {
		t.Errorf("counter cache refreshed %d rows, DRCAT %d; exact counting should refresh fewer",
			cc.Counts.RowsRefreshed, drcat.Counts.RowsRefreshed)
	}
	// ...but pays extra DRAM traffic for misses, which DRCAT never does.
	if cc.Counts.ExtraMemAcc == 0 {
		t.Error("counter cache reported no miss traffic")
	}
	if drcat.Counts.ExtraMemAcc != 0 {
		t.Error("DRCAT must not generate extra DRAM traffic")
	}
}
