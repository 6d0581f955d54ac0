package mitigation

import "fmt"

// SCA implements Static Counter Assignment (paper §III-B): the N rows of
// each bank are divided into M fixed groups of N/M rows, each governed by
// one counter. When a group counter reaches the refresh threshold T, it is
// reset and the N/M rows of the group plus the two rows adjacent to the
// group are refreshed, "which guarantees the refresh of any row in or
// adjacent to the group subjected to the crosstalk".
type SCA struct {
	name      string
	banks     int
	rows      int
	m         int
	groupSize int
	threshold uint32
	counters  [][]uint32
	counts    Counts
	scratch   []RefreshRange
}

// NewSCA builds an SCA instance with m counters per bank.
func NewSCA(banks, rowsPerBank, m int, threshold uint32) (*SCA, error) {
	if banks < 1 || rowsPerBank < 1 {
		return nil, fmt.Errorf("mitigation: need at least one bank and row")
	}
	if m < 1 || m > rowsPerBank || rowsPerBank%m != 0 {
		return nil, fmt.Errorf("mitigation: SCA counters %d must evenly divide %d rows", m, rowsPerBank)
	}
	if threshold < 1 {
		return nil, fmt.Errorf("mitigation: threshold must be positive")
	}
	s := &SCA{
		name:      fmt.Sprintf("SCA_%d", m),
		banks:     banks,
		rows:      rowsPerBank,
		m:         m,
		groupSize: rowsPerBank / m,
		threshold: threshold,
		counters:  make([][]uint32, banks),
		scratch:   make([]RefreshRange, 0, 1),
	}
	for b := range s.counters {
		s.counters[b] = make([]uint32, m)
	}
	return s, nil
}

// Name implements Scheme.
func (s *SCA) Name() string { return s.name }

// Kind implements Scheme.
func (s *SCA) Kind() Kind { return KindSCA }

// CountersPerBank implements Scheme.
func (s *SCA) CountersPerBank() int { return s.m }

// OnActivate implements Scheme.
func (s *SCA) OnActivate(bank, row int) []RefreshRange {
	s.counts.Activations++
	// "SRAM is accessed only twice to read and write the counters."
	s.counts.SRAMAccesses += 2
	c := &s.counters[bank][row/s.groupSize]
	*c++
	if *c < s.threshold {
		return nil
	}
	*c = 0
	g := row / s.groupSize
	rr := clampRange(g*s.groupSize-1, (g+1)*s.groupSize, s.rows)
	s.counts.RefreshEvents++
	s.counts.RowsRefreshed += int64(rr.Rows())
	s.scratch = s.scratch[:0]
	s.scratch = append(s.scratch, rr)
	return s.scratch
}

// OnIntervalBoundary implements Scheme: counters reset with the regular
// refresh of all rows.
func (s *SCA) OnIntervalBoundary() {
	for b := range s.counters {
		for i := range s.counters[b] {
			s.counters[b][i] = 0
		}
	}
}

// Counts implements Scheme.
func (s *SCA) Counts() Counts { return s.counts }

// ResetRun implements Scheme: zeroed group counters are the full
// starting state (SCA draws no randomness).
func (s *SCA) ResetRun(uint64) {
	s.OnIntervalBoundary()
	s.counts = Counts{}
}

// Snapshot implements Snapshotter: nonzero group counters across banks —
// how much of the static assignment the traffic actually touches.
func (s *SCA) Snapshot() Snapshot {
	snap := Snapshot{Cap: s.banks * s.m}
	for b := range s.counters {
		for _, c := range s.counters[b] {
			if c != 0 {
				snap.Live++
			}
		}
	}
	return snap
}

var scaBuilder = Builder{
	Name:      "SCA",
	Params:    []ParamDef{{Name: "counters", Doc: "group counters per bank M"}},
	ShardSafe: true, // per-bank counter groups, no shared state
	Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
		m, err := spec.Params.Int("counters", 0)
		if err != nil {
			return nil, err
		}
		return NewSCA(banks, rowsPerBank, m, spec.Threshold)
	},
}
