// Package sketch provides the approximate-counting substrate behind the
// modern (post-2018) crosstalk/rowhammer trackers in internal/mitigation:
//
//   - CountMin: a count-min sketch with conservative update — the
//     row-activation tracker of CoMeT (Bostancı et al., HPCA 2024).
//     Estimates never undercount, which is what makes a sketch-backed
//     mitigation scheme sound.
//   - MisraGries: a Misra-Gries frequent-items summary with a spillover
//     floor — the shared activation counters of ABACuS (Olgun et al.,
//     USENIX Security 2024). Tracked counts never undercount and every
//     untracked key is bounded by the spillover counter.
//   - MinTable: a small exact table with evict-minimum replacement — the
//     recent-aggressor table fronting CoMeT's sketch.
//   - Stochastic: a stochastic-approximate counter table à la DSAC (Hong
//     et al., 2023) — probabilistic replacement of the minimum entry,
//     cheap but (by design) without a deterministic guarantee.
//
// All structures are deterministic given their seeds and are sized in
// counters, so the energy model can cost them like the paper's SRAM
// counter arrays. None are safe for concurrent use.
package sketch

import (
	"fmt"

	"catsim/internal/rng"
)

// CountMin is a count-min sketch over int64 keys: depth hash rows of width
// counters each. Update uses the conservative-update (Estan-Varghese)
// rule, which preserves the one-sided error bound — the estimate Update(k)
// returns is always at least the number of Update(k) calls since the last
// Reset — while inflating shared counters far less than plain increment.
type CountMin struct {
	width, depth int
	counters     []uint32 // depth rows of width, row-major
	seeds        []uint64
	idx          []int // scratch: per-depth index of the last key hashed
}

// NewCountMin builds a sketch with the given geometry. Distinct seeds give
// distinct (deterministic) hash functions.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("sketch: count-min geometry %dx%d invalid", width, depth)
	}
	c := &CountMin{
		width:    width,
		depth:    depth,
		counters: make([]uint32, width*depth),
		seeds:    make([]uint64, depth),
		idx:      make([]int, depth),
	}
	c.Reseed(seed)
	return c, nil
}

// Counters returns the total counter count (width × depth), the quantity
// the energy model costs.
func (c *CountMin) Counters() int { return c.width * c.depth }

// hashMin fills c.idx with the per-depth counter indices for key and
// returns the minimum of the indexed counters. The hash is rng.SplitMix64
// of the key xor a per-depth seed: cheap, bijective, and independent
// enough across depths for a count-min sketch. Hashing, index formation
// and the min reduction run in one pass so each counter row is touched
// exactly once, and the min accumulates branchlessly (the compare outcome
// is data-dependent, so a conditional move beats a mispredicting branch).
func (c *CountMin) hashMin(key int64) uint32 {
	m := ^uint32(0)
	for d := 0; d < c.depth; d++ {
		i := d*c.width + int(rng.SplitMix64(uint64(key)^c.seeds[d])%uint64(c.width))
		c.idx[d] = i
		m = min(m, c.counters[i])
	}
	return m
}

// Update counts one occurrence of key with the conservative-update rule
// (only counters equal to the current minimum are incremented) and returns
// the new estimate.
func (c *CountMin) Update(key int64) uint32 {
	m := c.hashMin(key)
	for _, i := range c.idx {
		// Unconditional read-modify-write with a branch-free increment:
		// counters above the minimum are rewritten unchanged.
		v := c.counters[i]
		if v == m {
			v++
		}
		c.counters[i] = v
	}
	return m + 1
}

// Reset zeroes every counter (a new counting window).
func (c *CountMin) Reset() {
	for i := range c.counters {
		c.counters[i] = 0
	}
}

// Reseed zeroes every counter and derives the per-depth hash seeds from
// seed, without allocating: NewCountMin ends in it, and run contexts use
// it to rewind a sketch for a run with a new seed.
func (c *CountMin) Reseed(seed uint64) {
	c.Reset()
	s := seed
	for d := range c.seeds {
		s = rng.SplitMix64(s)
		c.seeds[d] = s
	}
}
