package dram

import "testing"

func TestDefaultGeometryMatchesTableI(t *testing.T) {
	g := Default2Channel()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.TotalBanks(); got != 16 {
		t.Errorf("TotalBanks = %d, want 16", got)
	}
	if got := g.TotalBytes(); got != 16<<30 {
		t.Errorf("TotalBytes = %d, want 16 GiB", got)
	}
	if g.RowsPerBank != 64*1024 {
		t.Errorf("RowsPerBank = %d, want 64K", g.RowsPerBank)
	}
	if g.LinesPerRow() != 256 {
		t.Errorf("LinesPerRow = %d, want 256", g.LinesPerRow())
	}
}

func TestFourChannelQuadruplesBanks(t *testing.T) {
	g := Default4Channel()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.TotalBanks(); got != 64 {
		t.Errorf("TotalBanks = %d, want 64 (paper: 16 -> 64)", got)
	}
}

func TestQuadCoreGeometryDoublesRows(t *testing.T) {
	if g := QuadCore2Channel(); g.RowsPerBank != 128*1024 {
		t.Errorf("RowsPerBank = %d, want 128K", g.RowsPerBank)
	}
	if g := QuadCore4Channel(); g.RowsPerBank != 128*1024 || g.TotalBanks() != 64 {
		t.Errorf("quad-core 4ch: got %d rows, %d banks", g.RowsPerBank, g.TotalBanks())
	}
}

func TestGeometryValidateRejectsBadDimensions(t *testing.T) {
	g := Default2Channel()
	g.Channels = 3
	if err := g.Validate(); err == nil {
		t.Error("expected error for non-power-of-two channels")
	}
	g = Default2Channel()
	g.RowsPerBank = 0
	if err := g.Validate(); err == nil {
		t.Error("expected error for zero rows")
	}
	g = Default2Channel()
	g.LineBytes = g.ColBytes * 2
	if err := g.Validate(); err == nil {
		t.Error("expected error for line larger than row")
	}
}

func TestFlatUnflatRoundTrip(t *testing.T) {
	g := Default4Channel()
	seen := make(map[int]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerCh; rk++ {
			for bk := 0; bk < g.BanksPerRk; bk++ {
				id := BankID{ch, rk, bk}
				f := g.Flat(id)
				if f < 0 || f >= g.TotalBanks() {
					t.Fatalf("Flat(%v) = %d out of range", id, f)
				}
				if seen[f] {
					t.Fatalf("Flat(%v) = %d collides", id, f)
				}
				seen[f] = true
				if back := g.Unflat(f); back != id {
					t.Fatalf("Unflat(Flat(%v)) = %v", id, back)
				}
			}
		}
	}
}

func TestTimingDefaultsValid(t *testing.T) {
	tm := DDR3_1600()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.CycleNS() != 1.25 {
		t.Errorf("CycleNS = %v, want 1.25", tm.CycleNS())
	}
	if tm.TRC != tm.TRAS+tm.TRP {
		t.Errorf("TRC = %d, want TRAS+TRP = %d", tm.TRC, tm.TRAS+tm.TRP)
	}
}

func TestTimingValidateCatchesInconsistency(t *testing.T) {
	tm := DDR3_1600()
	tm.TRC = tm.TRAS // < TRAS+TRP
	if err := tm.Validate(); err == nil {
		t.Error("expected TRC consistency error")
	}
	tm = DDR3_1600()
	tm.TREFI = 0
	if err := tm.Validate(); err == nil {
		t.Error("expected positivity error")
	}
}

func TestRegularRefreshEnergy(t *testing.T) {
	// 2.5 mW over 64 ms = 160 uJ = 1.6e5 nJ.
	if got := RegularRefreshEnergyNJ(); got != 160000 {
		t.Errorf("RegularRefreshEnergyNJ = %v, want 160000", got)
	}
}
