package dram

import (
	"testing"
	"testing/quick"
)

func TestScramblersAreBijective(t *testing.T) {
	const rows = 1 << 10
	xor, err := NewXORScrambler(rows, 0x155)
	if err != nil {
		t.Fatal(err)
	}
	stride, err := NewStrideScrambler(rows, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scrambler{xor, stride} {
		seen := make(map[int]bool, rows)
		for l := 0; l < rows; l++ {
			p := s.ToPhysical(l)
			if p < 0 || p >= rows {
				t.Fatalf("%s: physical %d out of range", s.Name(), p)
			}
			if seen[p] {
				t.Fatalf("%s: physical %d hit twice", s.Name(), p)
			}
			seen[p] = true
			if back := s.ToLogical(p); back != l {
				t.Fatalf("%s: round trip %d -> %d -> %d", s.Name(), l, p, back)
			}
		}
	}
}

func TestStrideScramblerBreaksAllAdjacency(t *testing.T) {
	// The point of the substrate: with a stride interleave, no logical
	// neighbours remain physical neighbours, so adjacency-based
	// mitigation must translate.
	s, err := NewStrideScrambler(1<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 1<<10-1; l++ {
		d := s.ToPhysical(l) - s.ToPhysical(l+1)
		if d == 1 || d == -1 {
			t.Fatalf("rows %d and %d stayed adjacent (physical %d, %d)",
				l, l+1, s.ToPhysical(l), s.ToPhysical(l+1))
		}
	}
}

func TestXORScramblerMostlyPreservesAdjacency(t *testing.T) {
	// Documented property: folded (XOR) layouts only break adjacency at
	// carry boundaries, so a controller ignoring them is *mostly* safe —
	// which is why the misconfiguration study uses the stride layout.
	xor, _ := NewXORScrambler(1<<10, 0x155)
	broken := 0
	for l := 0; l < 1<<10-1; l++ {
		d := xor.ToPhysical(l) - xor.ToPhysical(l+1)
		if d != 1 && d != -1 {
			broken++
		}
	}
	if broken > (1<<10)/2 {
		t.Errorf("XOR broke adjacency for %d of 1023 pairs; expected a minority", broken)
	}
}

func TestScramblerValidation(t *testing.T) {
	if _, err := NewXORScrambler(1000, 1); err == nil {
		t.Error("expected rows error")
	}
	if _, err := NewXORScrambler(1024, 4096); err == nil {
		t.Error("expected mask error")
	}
	if _, err := NewStrideScrambler(1024, 4); err == nil {
		t.Error("expected odd-stride error")
	}
	if _, err := NewStrideScrambler(1024, 2048); err == nil {
		t.Error("expected stride-too-large error")
	}
	if _, err := NewStrideScrambler(1000, 5); err == nil {
		t.Error("expected rows error")
	}
}

func TestStrideQuickRoundTrip(t *testing.T) {
	s, err := NewStrideScrambler(1<<12, 37)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		l := int(raw) & (1<<12 - 1)
		return s.ToLogical(s.ToPhysical(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
