package mitigation

import (
	"fmt"

	"catsim/internal/rng"
	"catsim/internal/sketch"
)

// StochasticDrawBits is the random bits consumed per replacement decision
// (a 16-bit compare against 1/(min+1), DSAC's in-DRAM RNG width).
const StochasticDrawBits = 16

// Stochastic models a DSAC-style in-DRAM tracker (Hong et al., 2023): a
// small per-bank table of exact counters where a missing row replaces the
// minimum entry only with probability 1/(min+1), inheriting min+1. Victim
// rows are refreshed when a tracked counter reaches T.
//
// Unlike the deterministic trackers there is no protection guarantee: an
// aggressor can stay untracked through an unlucky draw sequence, which is
// why the protection harness (sim's oracle-backed missed-victim metric)
// pairs this scheme with the adversarial patterns. Each draw is charged as
// PRNG bits so the energy model prices the randomness like PRA's.
type Stochastic struct {
	name      string
	banks     int
	rows      int
	threshold uint32
	tables    []*sketch.Stochastic
	prng      rng.Xoshiro256 // the shared stream behind every table
	counts    Counts
	scratch   []RefreshRange
}

// NewStochastic builds the tracker with m counters per bank; one
// xoshiro256** stream seeded with seed drives every bank's replacement
// decisions.
func NewStochastic(banks, rowsPerBank, m int, threshold uint32, seed uint64) (*Stochastic, error) {
	if banks < 1 || rowsPerBank < 1 {
		return nil, fmt.Errorf("mitigation: need at least one bank and row")
	}
	if threshold < 1 {
		return nil, fmt.Errorf("mitigation: threshold must be positive")
	}
	s := &Stochastic{
		name:      fmt.Sprintf("DSAC_%d", m),
		banks:     banks,
		rows:      rowsPerBank,
		threshold: threshold,
		tables:    make([]*sketch.Stochastic, banks),
		scratch:   make([]RefreshRange, 0, 2),
	}
	for b := 0; b < banks; b++ {
		var err error
		if s.tables[b], err = sketch.NewStochastic(m, &s.prng); err != nil {
			return nil, err
		}
	}
	s.ResetRun(seed)
	return s, nil
}

// Name implements Scheme.
func (s *Stochastic) Name() string { return s.name }

// Kind implements Scheme.
func (s *Stochastic) Kind() Kind { return KindStochastic }

// CountersPerBank implements Scheme.
func (s *Stochastic) CountersPerBank() int { return s.tables[0].Cap() }

// OnActivate implements Scheme.
func (s *Stochastic) OnActivate(bank, row int) []RefreshRange {
	s.counts.Activations++
	s.counts.SRAMAccesses += 2
	tbl := s.tables[bank]
	before := tbl.Draws()
	idx, cnt := tbl.Observe(int64(row))
	s.counts.PRNGBits += (tbl.Draws() - before) * StochasticDrawBits
	if idx < 0 || cnt < s.threshold {
		return nil
	}
	tbl.SetCount(idx, 0)
	s.scratch = appendVictims(s.scratch[:0], row, s.rows, &s.counts)
	return s.scratch
}

// OnIntervalBoundary implements Scheme.
func (s *Stochastic) OnIntervalBoundary() {
	for _, t := range s.tables {
		t.Reset()
	}
}

// Counts implements Scheme.
func (s *Stochastic) Counts() Counts { return s.counts }

// ResetRun implements Scheme: the shared replacement stream restarts
// from seed and every bank's table empties. Table draw totals are
// cumulative, but PRNG-bit accounting is delta-based, so the preserved
// totals cannot leak between runs.
func (s *Stochastic) ResetRun(seed uint64) {
	s.prng.Seed(seed)
	s.OnIntervalBoundary()
	s.counts = Counts{}
}

// Snapshot implements Snapshotter: occupied tracker entries across banks.
func (s *Stochastic) Snapshot() Snapshot {
	snap := Snapshot{Cap: s.banks * s.tables[0].Cap()}
	for _, t := range s.tables {
		snap.Live += t.Live()
	}
	return snap
}

var stochasticBuilder = Builder{
	Name: "Stochastic",
	Params: []ParamDef{
		{Name: "counters", Doc: "exact counters per bank"},
		{Name: "seed", Doc: "replace-minimum PRNG seed (default 1)"},
	},
	Short: "DSAC",
	Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
		m, err := spec.Params.Int("counters", 0)
		if err != nil {
			return nil, err
		}
		seed, err := spec.Params.Uint64("seed", 1)
		if err != nil {
			return nil, err
		}
		return NewStochastic(banks, rowsPerBank, m, spec.Threshold, seed)
	},
}
