package trace

import (
	"fmt"
	"math"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/rng"
)

// AttackMode selects the blend of malicious and benign accesses (§VIII-D).
type AttackMode int

// Attack modes: "Heavy (75% target rows + 25% benign access rows), Medium
// (50% + 50%) and Light (25% + 75%)".
const (
	Heavy AttackMode = iota
	Medium
	Light
)

// String returns the paper's mode label.
func (m AttackMode) String() string {
	switch m {
	case Heavy:
		return "Heavy"
	case Medium:
		return "Medium"
	case Light:
		return "Light"
	}
	return fmt.Sprintf("AttackMode(%d)", int(m))
}

// TargetFraction returns the fraction of accesses aimed at target rows.
func (m AttackMode) TargetFraction() float64 {
	switch m {
	case Heavy:
		return 0.75
	case Medium:
		return 0.50
	default:
		return 0.25
	}
}

// Pattern selects the spatial/temporal structure of an attack's target
// accesses. The paper's kernels (§VIII-D) hammer Gaussian-distributed
// rows; the adversarial patterns go beyond them with the aggressor
// geometries the modern tracker literature (CoMeT, ABACuS, DSAC) defends
// against.
type Pattern int

// Attack patterns.
const (
	// PatternGaussian is the paper's kernel: random accesses over
	// Gaussian-distributed target rows.
	PatternGaussian Pattern = iota
	// PatternDoubleSided hammers aggressor pairs v-1/v+1 around each
	// victim row, alternating within a pair so both sides accumulate.
	PatternDoubleSided
	// PatternManySided cycles a cluster of aggressors spaced two apart,
	// round-robin across banks (every bank advances in lockstep).
	PatternManySided
	// PatternBankSweep hammers the same aggressor pair at one row index
	// in every bank in turn — the all-bank pattern ABACuS's shared
	// counters are built for.
	PatternBankSweep
)

// String returns the pattern label used in tables and cache keys.
func (p Pattern) String() string {
	switch p {
	case PatternGaussian:
		return "gauss"
	case PatternDoubleSided:
		return "double"
	case PatternManySided:
		return "many"
	case PatternBankSweep:
		return "sweep"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Attack models kernel attacks: each kernel selects target rows per its
// Pattern and accesses them "more frequently than other rows in DRAM",
// blended with a benign memory-intensive workload. Twelve kernels are
// twelve seeds.
type Attack struct {
	name    string
	mode    AttackMode
	pattern Pattern
	targets []int64    // encoded line addresses of aggressor rows
	pairs   [][2]int64 // double-sided aggressor pairs
	cursor  int        // deterministic walk for many/sweep
	pending int64      // second half of a double-sided pair (-1 = none)
	src     *rng.Xoshiro256
	src0    rng.Xoshiro256 // post-construction RNG state, for Reset
	benign  Generator
}

// TargetsPerBank is the paper's target-row count per bank (Gaussian
// pattern); the adversarial patterns derive their aggressor counts from
// it (double-sided: TargetsPerBank/2 victims, many-sided:
// 2*TargetsPerBank aggressors per bank).
const TargetsPerBank = 4

// NewAttackPattern builds kernel attack number kernel (0..11 in the
// paper's setup) over the given geometry and mapping policy, aiming at
// targets laid out by pattern and blending with the benign generator
// according to mode. Attacks are deterministic per (kernel, pattern) pair:
// the same arguments always produce the same target set and emission order.
func NewAttackPattern(kernel int, mode AttackMode, pattern Pattern, g dram.Geometry, policy addrmap.Policy, benign Generator) (*Attack, error) {
	if benign == nil {
		return nil, fmt.Errorf("trace: attack needs a benign workload to blend with")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Each pattern needs room for its aggressor layout; fail loudly
	// rather than silently folding rows on undersized geometries.
	minRows := 1
	switch pattern {
	case PatternDoubleSided, PatternBankSweep:
		minRows = 3 // a victim with both neighbours in range
	case PatternManySided:
		minRows = 4*TargetsPerBank + 1 // 2*TargetsPerBank aggressors spaced two apart
	}
	if g.RowsPerBank < minRows {
		return nil, fmt.Errorf("trace: %s pattern needs at least %d rows per bank, got %d",
			pattern, minRows, g.RowsPerBank)
	}
	// The Gaussian pattern keeps the original kernel seeds, so the
	// paper-reproduction figures (Fig. 13's twelve kernels) are unchanged;
	// the adversarial patterns get their own seed space.
	seed := 0xA77AC4<<8 | uint64(kernel)
	if pattern != PatternGaussian {
		seed = 0xA77AC4<<16 | uint64(kernel)<<8 | uint64(pattern)
	}
	src := rng.NewXoshiro256(seed)
	a := &Attack{
		name:    fmt.Sprintf("attack%02d-%s-%s+%s", kernel, pattern, mode, benign.Name()),
		mode:    mode,
		pattern: pattern,
		pending: -1,
		src:     src,
		benign:  benign,
	}
	encode := func(ch, rk, bk, row int) int64 {
		return policy.Encode(addrmap.Coord{
			Bank: dram.BankID{Channel: ch, Rank: rk, Bank: bk},
			Row:  row,
			Col:  rng.Intn(src, g.LinesPerRow()),
		})
	}
	eachBank := func(f func(ch, rk, bk int)) {
		for ch := 0; ch < g.Channels; ch++ {
			for rk := 0; rk < g.RanksPerCh; rk++ {
				for bk := 0; bk < g.BanksPerRk; bk++ {
					f(ch, rk, bk)
				}
			}
		}
	}
	switch pattern {
	case PatternGaussian:
		// Gaussian-distributed target rows: centred mid-bank with sigma an
		// eighth of the bank, folded into range.
		eachBank(func(ch, rk, bk int) {
			for i := 0; i < TargetsPerBank; i++ {
				a.targets = append(a.targets, encode(ch, rk, bk, gaussianRow(src, g.RowsPerBank)))
			}
		})
	case PatternDoubleSided:
		// Per bank, TargetsPerBank/2 victims with their aggressor pairs.
		eachBank(func(ch, rk, bk int) {
			for i := 0; i < TargetsPerBank/2; i++ {
				v := clampRow(gaussianRow(src, g.RowsPerBank), 1, g.RowsPerBank-2)
				lo, hi := encode(ch, rk, bk, v-1), encode(ch, rk, bk, v+1)
				a.pairs = append(a.pairs, [2]int64{lo, hi})
				a.targets = append(a.targets, lo, hi)
			}
		})
	case PatternManySided:
		// One cluster of 2*TargetsPerBank aggressors spaced two apart per
		// bank; the emission list interleaves banks (aggressor-major) so
		// the walk round-robins across banks.
		n := 2 * TargetsPerBank
		type site struct{ ch, rk, bk, base int }
		var sites []site
		eachBank(func(ch, rk, bk int) {
			base := clampRow(gaussianRow(src, g.RowsPerBank), 1, g.RowsPerBank-2*n)
			sites = append(sites, site{ch, rk, bk, base})
		})
		for i := 0; i < n; i++ {
			for _, s := range sites {
				a.targets = append(a.targets, encode(s.ch, s.rk, s.bk, s.base+2*i))
			}
		}
	case PatternBankSweep:
		// The same aggressor pair at one row index, swept bank by bank.
		v := clampRow(gaussianRow(src, g.RowsPerBank), 1, g.RowsPerBank-2)
		eachBank(func(ch, rk, bk int) {
			a.targets = append(a.targets, encode(ch, rk, bk, v-1), encode(ch, rk, bk, v+1))
		})
	default:
		return nil, fmt.Errorf("trace: unknown attack pattern %v", pattern)
	}
	// Target selection above consumed draws; capture the stream here so
	// Reset can rewind emission without repeating construction.
	a.src0 = *src
	return a, nil
}

// Reset rewinds the attack's emission state — the blend RNG, the
// deterministic walk cursor and any pending pair half — to just after
// construction. Target sets depend only on (kernel, pattern, geometry),
// never on the run seed, so a reset attack replays identically; the
// wrapped benign generator is reset separately by its owner.
func (a *Attack) Reset() {
	*a.src = a.src0
	a.cursor = 0
	a.pending = -1
}

func clampRow(r, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

func gaussianRow(src rng.Source, rows int) int {
	center, sigma := float64(rows)/2, float64(rows)/8
	for {
		r := int(math.Round(center + sigma*rng.NormFloat64(src)))
		if r >= 0 && r < rows {
			return r
		}
	}
}

// Name implements Generator.
func (a *Attack) Name() string { return a.name }

// hammerGap is the attack request gap: hammer loops are tight, a
// CLFLUSH + load pair.
const hammerGap = 8

// Next implements Generator: with the mode's probability emit the
// pattern's next target access (tight hammering gap), otherwise pass the
// benign request through.
func (a *Attack) Next() Request {
	if rng.Float64(a.src) >= a.mode.TargetFraction() {
		return a.benign.Next()
	}
	var addr int64
	switch a.pattern {
	case PatternDoubleSided:
		// Alternate the two sides of a randomly chosen pair: the second
		// aggressor is emitted on the next attack draw.
		if a.pending >= 0 {
			addr, a.pending = a.pending, -1
		} else {
			p := a.pairs[rng.Intn(a.src, len(a.pairs))]
			addr, a.pending = p[0], p[1]
		}
	case PatternManySided, PatternBankSweep:
		// Deterministic walk over the target list (interleaved across
		// banks for many-sided, bank-major for the sweep).
		addr = a.targets[a.cursor]
		a.cursor = (a.cursor + 1) % len(a.targets)
	default:
		addr = a.targets[rng.Intn(a.src, len(a.targets))]
	}
	return Request{Addr: addr, Gap: hammerGap}
}
