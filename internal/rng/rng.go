// Package rng provides the deterministic random-number sources used by the
// simulator and by the PRA (Probabilistic Row Activation) mitigation scheme.
//
// Two families are provided:
//
//   - High-quality generators (SplitMix64, Xoshiro256**) that stand in for
//     the "true" hardware PRNG of Srinivasan et al. [25] assumed by PRA's
//     reliability analysis (paper §III-A, Fig. 1).
//
//   - Fibonacci LFSRs (FibLFSR, any width up to 32 bits and any feedback
//     polynomial), the cheap hardware alternative whose insufficient
//     randomness the paper's Monte-Carlo study shows to destroy PRA's
//     survivability guarantees.
//
// All sources are seeded explicitly and never touch global state, so every
// simulation in this repository is reproducible bit for bit.
package rng

import "math"

// Source is a deterministic stream of random 64-bit values. It is a
// deliberately small interface so that mitigation schemes can swap hardware
// PRNG models without caring about the implementation.
type Source interface {
	// Uint64 returns the next value in the stream.
	Uint64() uint64
}

// Bits returns the low n bits of the next value from src. PRA draws 9 bits
// per row activation (paper Table II); reliability studies draw other widths.
func Bits(src Source, n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n >= 64 {
		return src.Uint64()
	}
	return src.Uint64() & ((1 << n) - 1)
}

// Float64 returns a uniform value in [0, 1) using 53 bits from src.
func Float64(src Source) float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(src.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1 using the polar Box-Muller transform. Workload hot spots and
// the kernel-attack target-row selection (paper §VIII-D, Gaussian
// distribution of target rows) are built on it.
func NormFloat64(src Source) float64 {
	for {
		u := 2*Float64(src) - 1
		v := 2*Float64(src) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
