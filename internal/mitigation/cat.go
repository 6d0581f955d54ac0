package mitigation

import (
	"fmt"

	"catsim/internal/core"
)

// CAT adapts internal/core's adaptive counter trees (one core.Tree per
// bank) to the Scheme interface. Policy PRCAT rebuilds each tree every
// interval; DRCAT keeps the learned shape and reconfigures dynamically
// (paper §V).
type CAT struct {
	name    string
	kind    Kind
	trees   []*core.Tree
	scratch []RefreshRange
}

// NewCAT builds one tree per bank from cfg. The per-bank config must carry
// the rows of one bank in cfg.Rows.
func NewCAT(banks int, cfg core.Config) (*CAT, error) {
	if banks < 1 {
		return nil, fmt.Errorf("mitigation: need at least one bank")
	}
	kind := KindPRCAT
	if cfg.Policy == core.DRCAT {
		kind = KindDRCAT
	}
	c := &CAT{
		name:    fmt.Sprintf("%s_%d", cfg.Policy, cfg.Counters),
		kind:    kind,
		trees:   make([]*core.Tree, banks),
		scratch: make([]RefreshRange, 0, 1),
	}
	for b := range c.trees {
		t, err := core.NewTree(cfg)
		if err != nil {
			return nil, err
		}
		c.trees[b] = t
	}
	return c, nil
}

// Name implements Scheme.
func (c *CAT) Name() string { return c.name }

// Kind implements Scheme.
func (c *CAT) Kind() Kind { return c.kind }

// CountersPerBank implements Scheme.
func (c *CAT) CountersPerBank() int { return c.trees[0].Config().Counters }

// OnActivate implements Scheme.
func (c *CAT) OnActivate(bank, row int) []RefreshRange {
	lo, hi, refresh := c.trees[bank].Access(row)
	if !refresh {
		return nil
	}
	c.scratch = c.scratch[:0]
	c.scratch = append(c.scratch, RefreshRange{Lo: lo, Hi: hi})
	return c.scratch
}

// OnIntervalBoundary implements Scheme.
func (c *CAT) OnIntervalBoundary() {
	for _, t := range c.trees {
		t.OnIntervalBoundary()
	}
}

// Counts implements Scheme.
func (c *CAT) Counts() Counts {
	var total Counts
	for _, t := range c.trees {
		s := t.Stats()
		total.Activations += s.Accesses
		total.RefreshEvents += s.RefreshEvents
		total.RowsRefreshed += s.RowsRefreshed
		total.SRAMAccesses += s.SRAMAccesses
	}
	return total
}

// ResetRun implements Scheme: every bank's tree returns to the uniform
// pre-split shape with zeroed statistics (CAT draws no randomness; Counts
// derive from the tree stats, so nothing else resets).
func (c *CAT) ResetRun(uint64) {
	for _, t := range c.trees {
		t.Reset()
	}
}

// Snapshot implements Snapshotter: active counters and the deepest leaf
// across every bank's tree, plus DRCAT's cumulative reconfigurations —
// the occupancy trajectory the figt time-series study plots.
func (c *CAT) Snapshot() Snapshot {
	s := Snapshot{Cap: len(c.trees) * c.trees[0].Config().Counters}
	for _, t := range c.trees {
		s.Live += t.ActiveCounters()
		st := t.Stats()
		s.Reconfigs += st.Reconfigs
		if st.MaxDepth > s.Depth {
			s.Depth = st.MaxDepth
		}
	}
	return s
}

// catBuilder adapts NewCAT to the family table for one tree policy.
func catBuilder(name string, policy core.Policy) Builder {
	return Builder{
		Name:      name,
		ShardSafe: true, // one tree per bank, no shared state
		Params: []ParamDef{
			{Name: "counters", Doc: "tree counters per bank M"},
			{Name: "levels", Doc: "maximum tree levels L (default 11)"},
			{Name: "weightbits", Doc: "DRCAT weight-register width (default 2)"},
			{Name: "presplit", Doc: "pre-split depth lambda (default log2 M)"},
		},
		Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
			m, err := spec.Params.Int("counters", 0)
			if err != nil {
				return nil, err
			}
			levels, err := spec.Params.Int("levels", 11)
			if err != nil {
				return nil, err
			}
			weightBits, err := spec.Params.Int("weightbits", 0)
			if err != nil {
				return nil, err
			}
			preSplit, err := spec.Params.Int("presplit", 0)
			if err != nil {
				return nil, err
			}
			return NewCAT(banks, core.Config{
				Rows:             rowsPerBank,
				Counters:         m,
				MaxLevels:        levels,
				RefreshThreshold: spec.Threshold,
				Policy:           policy,
				WeightBits:       weightBits,
				PreSplit:         preSplit,
			})
		},
	}
}

var (
	prcatBuilder = catBuilder("PRCAT", core.PRCAT)
	drcatBuilder = catBuilder("DRCAT", core.DRCAT)
)
