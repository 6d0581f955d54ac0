package core

import (
	"testing"
	"testing/quick"
)

func TestNewLadderMatchesPublishedCanonicalValues(t *testing.T) {
	// Paper §IV-D: "when applied to the tree with M = 64 counters and
	// L = 10 levels, the values of the thresholds computed by the model
	// are: T5 = 5155, T6 = 10309, T7 = 12886, T8 = 16384, and T9 = T = 32768."
	ladder := NewLadder(64, 10, 32768)
	want := map[int]uint32{5: 5155, 6: 10309, 7: 12886, 8: 16384, 9: 32768}
	for level, v := range want {
		if ladder[level] != v {
			t.Errorf("T%d = %d, want %d", level, ladder[level], v)
		}
	}
	if err := ValidateLadder(ladder, 10, 32768); err != nil {
		t.Error(err)
	}
}

func TestNewLadderScalesWithThreshold(t *testing.T) {
	// The T=16K experiments scale the ladder proportionally.
	ladder := NewLadder(64, 10, 16384)
	if ladder[8] != 8192 {
		t.Errorf("T8 = %d, want T/2 = 8192", ladder[8])
	}
	if ladder[9] != 16384 {
		t.Errorf("T9 = %d, want T = 16384", ladder[9])
	}
	// Bottom rung keeps the canonical fraction 28/178 of T.
	if ladder[5] < 2570 || ladder[5] > 2584 {
		t.Errorf("T5 = %d, want about 16384*28/178 = 2577", ladder[5])
	}
}

func TestGeometricLadderMatchesWorkedExample(t *testing.T) {
	// Paper §IV-D worked example (M=4, L=4): T2 = T/2, T1 = T/4, T3 = T.
	const refresh = 32768
	ladder := GeometricLadder(4, refresh)
	if ladder[1] != refresh/4 || ladder[2] != refresh/2 || ladder[3] != refresh {
		t.Errorf("ladder = %v, want [.., %d, %d, %d]", ladder, refresh/4, refresh/2, refresh)
	}
	if err := ValidateLadder(ladder, 4, refresh); err != nil {
		t.Error(err)
	}
}

func TestSplitThresholdRatioMatchesPaper(t *testing.T) {
	// §IV-D: "if T2 is set to be 2T1, then C3 will reach T2 before C1
	// reaches T1 when x > 3w". The worked-example ladder encodes it.
	ladder := GeometricLadder(4, 32768)
	if ladder[2] != 2*ladder[1] {
		t.Errorf("ladder %v does not encode T2 = 2*T1", ladder)
	}
}

func TestUniformLadderAllRungsAtT(t *testing.T) {
	ladder := UniformLadder(7, 999)
	for i, v := range ladder {
		if v != 999 {
			t.Errorf("rung %d = %d, want 999", i, v)
		}
	}
}

func TestLaddersAlwaysValid(t *testing.T) {
	// Every (M, L, T) combination used in the paper's sweeps must yield a
	// valid ladder: Fig. 10 uses M = 32..512 and L = 6..14.
	for _, m := range []int{1, 2, 4, 32, 64, 128, 256, 512} {
		for l := 1; l <= 16; l++ {
			for _, refresh := range []uint32{8192, 16384, 32768, 65536} {
				ladder := NewLadder(m, l, refresh)
				if err := ValidateLadder(ladder, l, refresh); err != nil {
					t.Errorf("NewLadder(%d,%d,%d): %v", m, l, refresh, err)
				}
				geo := GeometricLadder(l, refresh)
				if err := ValidateLadder(geo, l, refresh); err != nil {
					t.Errorf("GeometricLadder(%d,%d): %v", l, refresh, err)
				}
			}
		}
	}
}

func TestLadderQuickProperties(t *testing.T) {
	f := func(mExp, l uint8, refresh uint32) bool {
		m := 1 << (mExp % 10)
		levels := int(l%14) + 1
		if refresh == 0 {
			refresh = 1
		}
		ladder := NewLadder(m, levels, refresh)
		return ValidateLadder(ladder, levels, refresh) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateLadderRejections(t *testing.T) {
	cases := []struct {
		name   string
		ladder []uint32
		l      int
		tt     uint32
	}{
		{"wrong length", []uint32{1, 2}, 3, 2},
		{"zero rung", []uint32{0, 2}, 2, 2},
		{"not monotone", []uint32{5, 3, 8}, 3, 8},
		{"exceeds T", []uint32{5, 9, 8}, 3, 8},
		{"last not T", []uint32{1, 2, 4}, 3, 8},
	}
	for _, c := range cases {
		if err := ValidateLadder(c.ladder, c.l, c.tt); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
