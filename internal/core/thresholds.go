package core

import (
	"fmt"
	"math"
	"math/bits"
)

// Split-threshold ladders (paper §IV-D).
//
// The ladder T_0 <= T_1 <= ... <= T_{L-1} = T decides when a counter at
// level l splits. The paper derives the values from a cost model that
// equates the refresh cost of the balanced and unbalanced tree evolutions at
// the critical access bias; the generalized model lives in a technical
// report that is not public, but the paper publishes both the worked
// 4-counter example (T1 = T/4, T2 = T/2, T3 = T) and the full ladder for
// the canonical configuration M = 64, L = 10, T = 32768:
//
//	T5 = 5155, T6 = 10309, T7 = 12886, T8 = 16384, T9 = T = 32768
//
// Those five values are exactly T * {28, 56, 70, 89, 178}/178 (to rounding),
// which this package adopts as the canonical profile. Ladders for other
// (M, L) pairs resample the profile with monotone piecewise-linear
// interpolation over the growth levels λ-1 .. L-1 (λ = log2 M, the paper's
// pre-split depth); ladders for other T scale proportionally, mirroring the
// paper's note that "a modified version of Table II is used ... when the
// maximum tree depth changes". A strictly geometric ladder matching the
// worked example (T_l = T / 2^(L-1-l)) is also provided for ablations.

// canonicalProfile is the published M=64/L=10 ladder as fractions of T.
var canonicalProfile = [5]float64{28.0 / 178, 56.0 / 178, 70.0 / 178, 89.0 / 178, 1}

// NewLadder returns the default split-threshold ladder for a tree with M
// counters, L levels and refresh threshold T: the canonical published
// profile resampled onto the growth levels. Entries below the pre-split
// depth are never consulted during growth and are set to the first growth
// value. The returned slice has length L and ends in T.
func NewLadder(m, l int, t uint32) []uint32 {
	lambda := preSplitLevels(m, l)
	k := l - (lambda - 1) // number of growth levels: λ-1 .. L-1
	ladder := make([]uint32, l)
	for j := 0; j < k; j++ {
		var pos float64
		if k > 1 {
			pos = float64(j) / float64(k-1)
		} else {
			pos = 1
		}
		f := sampleProfile(pos)
		v := uint32(math.Round(f * float64(t)))
		if v < 1 {
			v = 1
		}
		ladder[lambda-1+j] = v
	}
	// Levels below the pre-split depth are only exercised when a tree is
	// built from shallower than the paper's default λ. Clamping them flat
	// would make freshly cloned children sit exactly at their own rung and
	// cascade-split indiscriminately, so ramp them geometrically instead
	// (halving per level, the worked example's shape).
	for i := lambda - 2; i >= 0; i-- {
		v := ladder[i+1] / 2
		if v < 1 {
			v = 1
		}
		ladder[i] = v
	}
	ladder[l-1] = t
	enforceMonotone(ladder, t)
	return ladder
}

// GeometricLadder returns the ladder T_l = T / 2^(L-1-l), the direct
// generalization of the paper's worked 4-counter example (T1 = T/4,
// T2 = T/2, T3 = T). Values are floored at 1.
func GeometricLadder(l int, t uint32) []uint32 {
	ladder := make([]uint32, l)
	for i := 0; i < l; i++ {
		shift := uint(l - 1 - i)
		v := uint32(1)
		if shift < 32 {
			v = t >> shift
		}
		if v < 1 {
			v = 1
		}
		ladder[i] = v
	}
	ladder[l-1] = t
	enforceMonotone(ladder, t)
	return ladder
}

// UniformLadder returns a ladder with every rung equal to T. A tree with
// this ladder never splits adaptively beyond its pre-split shape, making it
// behave exactly like SCA with 2^(λ-1) counters; it anchors the equivalence
// tests and the SCA-versus-CAT ablations.
func UniformLadder(l int, t uint32) []uint32 {
	ladder := make([]uint32, l)
	for i := range ladder {
		ladder[i] = t
	}
	return ladder
}

// sampleProfile evaluates the canonical profile at normalized position
// pos in [0, 1] with piecewise-linear interpolation.
func sampleProfile(pos float64) float64 {
	if pos <= 0 {
		return canonicalProfile[0]
	}
	if pos >= 1 {
		return canonicalProfile[len(canonicalProfile)-1]
	}
	scaled := pos * float64(len(canonicalProfile)-1)
	i := int(scaled)
	frac := scaled - float64(i)
	return canonicalProfile[i] + frac*(canonicalProfile[i+1]-canonicalProfile[i])
}

// preSplitLevels returns the paper's default pre-split depth λ = log2(M),
// clamped to [1, L].
func preSplitLevels(m, l int) int {
	lambda := bits.TrailingZeros(uint(m))
	if lambda == 0 {
		lambda = 1
	}
	if lambda > l {
		lambda = l
	}
	return lambda
}

// enforceMonotone raises later rungs to at least their predecessors and
// caps everything at t.
func enforceMonotone(ladder []uint32, t uint32) {
	for i := 1; i < len(ladder); i++ {
		if ladder[i] < ladder[i-1] {
			ladder[i] = ladder[i-1]
		}
	}
	for i := range ladder {
		if ladder[i] > t {
			ladder[i] = t
		}
	}
}

// ValidateLadder checks that ladder has length l, is positive and
// non-decreasing, and ends at exactly t.
func ValidateLadder(ladder []uint32, l int, t uint32) error {
	if len(ladder) != l {
		return fmt.Errorf("core: ladder length %d, want %d", len(ladder), l)
	}
	for i, v := range ladder {
		if v < 1 {
			return fmt.Errorf("core: ladder[%d] = %d must be positive", i, v)
		}
		if i > 0 && v < ladder[i-1] {
			return fmt.Errorf("core: ladder not monotone at %d (%d < %d)", i, v, ladder[i-1])
		}
		if v > t {
			return fmt.Errorf("core: ladder[%d] = %d exceeds refresh threshold %d", i, v, t)
		}
	}
	if ladder[l-1] != t {
		return fmt.Errorf("core: ladder must end at T=%d, got %d", t, ladder[l-1])
	}
	return nil
}
