package mitigation

import (
	"fmt"

	"catsim/internal/rng"
)

// PRA implements Probabilistic Row Activation (paper §II, §III-A): on every
// row activation the memory controller draws from a PRNG and, with
// probability p, refreshes the two rows adjacent to the accessed row ("PRA
// refreshes two victim rows but not the aggressor row"). One PRNG serves
// all banks; the paper's Table II charges it 9 random bits per activation.
type PRA struct {
	name       string
	rows       int
	p          float64
	prng       rng.Xoshiro256
	bitsPerAct int64
	counts     Counts
	scratch    []RefreshRange
}

// NewPRA builds a PRA instance with refresh probability p whose hardware
// PRNG model is a xoshiro256** stream seeded with seed.
func NewPRA(rowsPerBank int, p float64, seed uint64) (*PRA, error) {
	if rowsPerBank < 1 {
		return nil, fmt.Errorf("mitigation: need at least one row")
	}
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("mitigation: PRA probability %v out of (0,1)", p)
	}
	pr := &PRA{
		name:       fmt.Sprintf("PRA_%g", p),
		rows:       rowsPerBank,
		p:          p,
		bitsPerAct: 9,
		scratch:    make([]RefreshRange, 0, 2),
	}
	pr.ResetRun(seed)
	return pr, nil
}

// Name implements Scheme.
func (pr *PRA) Name() string { return pr.name }

// Kind implements Scheme.
func (pr *PRA) Kind() Kind { return KindPRA }

// CountersPerBank implements Scheme.
func (pr *PRA) CountersPerBank() int { return 0 }

// OnActivate implements Scheme.
func (pr *PRA) OnActivate(bank, row int) []RefreshRange {
	pr.counts.Activations++
	pr.counts.PRNGBits += pr.bitsPerAct
	if rng.Float64(&pr.prng) >= pr.p {
		return nil
	}
	pr.scratch = appendVictims(pr.scratch[:0], row, pr.rows, &pr.counts)
	return pr.scratch
}

// OnIntervalBoundary implements Scheme (PRA keeps no state).
func (pr *PRA) OnIntervalBoundary() {}

// Counts implements Scheme.
func (pr *PRA) Counts() Counts { return pr.counts }

// ResetRun implements Scheme: the PRNG stream restarts from seed.
func (pr *PRA) ResetRun(seed uint64) {
	pr.prng.Seed(seed)
	pr.counts = Counts{}
}

// PRAProbabilityForThreshold returns the probability the paper pairs with
// each refresh threshold so that 5-year unsurvivability stays below the
// Chipkill reference of 1e-4 (Fig. 12): T=64K -> 0.001, 32K -> 0.002,
// 16K -> 0.003, 8K -> 0.005.
func PRAProbabilityForThreshold(t uint32) float64 {
	switch {
	case t >= 64*1024:
		return 0.001
	case t >= 32*1024:
		return 0.002
	case t >= 16*1024:
		return 0.003
	default:
		return 0.005
	}
}

var praBuilder = Builder{
	Name: "PRA",
	Params: []ParamDef{
		{Name: "p", Doc: "refresh probability per activation (default: the paper's value for the threshold)"},
		{Name: "seed", Doc: "PRNG seed (default 1)"},
	},
	// The figure label carries p, not a counter budget; an unset p
	// resolves to the paper's value for the spec's threshold.
	Label: func(spec SchemeSpec) string {
		p, err := spec.Params.Float("p", 0)
		if err != nil || p == 0 {
			p = PRAProbabilityForThreshold(spec.Threshold)
		}
		return fmt.Sprintf("PRA_%g", p)
	},
	Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
		p, err := spec.Params.Float("p", 0)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			p = PRAProbabilityForThreshold(spec.Threshold)
		}
		seed, err := spec.Params.Uint64("seed", 1)
		if err != nil {
			return nil, err
		}
		return NewPRA(rowsPerBank, p, seed)
	},
}
