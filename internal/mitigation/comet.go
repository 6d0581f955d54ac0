package mitigation

import (
	"fmt"

	"catsim/internal/sketch"
)

// CoMeTRATEntries is the recent-aggressor-table size per bank (the paper's
// CoMeT uses a small CAM in front of the sketch; 32 entries cover every
// realistic aggressor set per refresh window).
const CoMeTRATEntries = 32

// CoMeT models count-min-sketch row tracking (Bostancı et al., HPCA 2024)
// behind the common Scheme interface: each bank tracks row activations in
// a conservative-update count-min sketch; a row whose estimate crosses the
// early threshold (T/2) graduates into a small exact recent-aggressor
// table (RAT) carrying its estimate, and its victims are refreshed when
// the exact count reaches T.
//
// Soundness: the sketch never undercounts, a graduating row carries an
// over-estimate into the RAT, and a row evicted from a full RAT has its
// victims refreshed on the way out — so no row's true activation count
// can cross T without a victim refresh. The cost of approximation shows
// up as extra refreshes (sketch collisions inflate estimates), never as
// missed victims.
type CoMeT struct {
	name      string
	banks     int
	rows      int
	threshold uint32
	insertAt  uint32
	depth     int
	cms       []*sketch.CountMin // per bank
	rat       []*sketch.MinTable // per bank
	counts    Counts
	scratch   []RefreshRange
}

// NewCoMeT builds the tracker with the given total sketch counters per
// bank spread over depth hash rows (counters must divide evenly). The
// seed derives the per-bank hash functions.
func NewCoMeT(banks, rowsPerBank int, threshold uint32, counters, depth int, seed uint64) (*CoMeT, error) {
	if banks < 1 || rowsPerBank < 1 {
		return nil, fmt.Errorf("mitigation: need at least one bank and row")
	}
	if threshold < 2 {
		return nil, fmt.Errorf("mitigation: CoMeT threshold %d too small", threshold)
	}
	if depth < 1 || counters < depth || counters%depth != 0 {
		return nil, fmt.Errorf("mitigation: CoMeT counters %d not divisible into depth %d", counters, depth)
	}
	c := &CoMeT{
		name:      fmt.Sprintf("CoMeT_%d", counters),
		banks:     banks,
		rows:      rowsPerBank,
		threshold: threshold,
		insertAt:  max32(threshold/2, 1),
		depth:     depth,
		cms:       make([]*sketch.CountMin, banks),
		rat:       make([]*sketch.MinTable, banks),
		scratch:   make([]RefreshRange, 0, 4),
	}
	for b := 0; b < banks; b++ {
		var err error
		if c.cms[b], err = sketch.NewCountMin(counters/depth, depth, 0); err != nil {
			return nil, err
		}
		if c.rat[b], err = sketch.NewMinTable(CoMeTRATEntries); err != nil {
			return nil, err
		}
	}
	c.ResetRun(seed)
	return c, nil
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// Name implements Scheme.
func (c *CoMeT) Name() string { return c.name }

// Kind implements Scheme.
func (c *CoMeT) Kind() Kind { return KindCoMeT }

// CountersPerBank reports the sketch counters plus the RAT entries.
func (c *CoMeT) CountersPerBank() int { return c.cms[0].Counters() + CoMeTRATEntries }

// victims appends the single-row refresh ranges for row's two neighbours
// and accounts one refresh event.
func (c *CoMeT) victims(row int) {
	c.scratch = appendVictims(c.scratch, row, c.rows, &c.counts)
}

// OnActivate implements Scheme.
func (c *CoMeT) OnActivate(bank, row int) []RefreshRange {
	c.counts.Activations++
	// RAT CAM probe (2) plus, on a sketch access, depth reads + writes.
	c.counts.SRAMAccesses += 2
	c.scratch = c.scratch[:0]
	rat := c.rat[bank]
	if idx := rat.Find(int64(row)); idx >= 0 {
		if rat.Add(idx, 1) >= c.threshold {
			rat.SetCount(idx, 0)
			c.victims(row)
		}
		return c.scratch
	}
	c.counts.SRAMAccesses += int64(2 * c.depth)
	est := c.cms[bank].Update(int64(row))
	if est < c.insertAt {
		return c.scratch
	}
	// Graduate into the RAT, carrying the (over-)estimate. The evicted
	// row's victims are refreshed so its exact count may restart from the
	// (inflated) sketch estimate without losing protection.
	if evicted, _, ok := rat.Insert(int64(row), est); ok {
		c.victims(int(evicted))
	}
	if est >= c.threshold {
		rat.SetCount(rat.Find(int64(row)), 0)
		c.victims(row)
	}
	return c.scratch
}

// OnIntervalBoundary implements Scheme: every row was auto-refreshed, so
// both the sketches and the aggressor tables restart.
func (c *CoMeT) OnIntervalBoundary() {
	for b := 0; b < c.banks; b++ {
		c.cms[b].Reset()
		c.rat[b].Reset()
	}
}

// Counts implements Scheme.
func (c *CoMeT) Counts() Counts { return c.counts }

// ResetRun implements Scheme: every bank's sketch derives its hash seeds
// from (seed, bank) and the aggressor tables empty.
func (c *CoMeT) ResetRun(seed uint64) {
	for b := 0; b < c.banks; b++ {
		c.cms[b].Reseed(seed + uint64(b)*0x9e3779b9)
		c.rat[b].Reset()
	}
	c.counts = Counts{}
}

// Snapshot implements Snapshotter: occupied recent-aggressor-table
// entries across banks (the sketch itself is always fully allocated; the
// RAT population is the behavioural signal).
func (c *CoMeT) Snapshot() Snapshot {
	s := Snapshot{Cap: c.banks * CoMeTRATEntries}
	for _, rat := range c.rat {
		s.Live += rat.Live()
	}
	return s
}

var cometBuilder = Builder{
	Name: "CoMeT",
	// Per-bank CMS + RAT; hash seeds derive from (seed, bank) alone and
	// no randomness is drawn at runtime, so state decomposes by bank.
	ShardSafe: true,
	Params: []ParamDef{
		{Name: "counters", Doc: "sketch counters per bank"},
		{Name: "depth", Doc: "sketch hash rows (default 4)"},
		{Name: "seed", Doc: "per-bank hash seed (default 1)"},
	},
	Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
		counters, err := spec.Params.Int("counters", 0)
		if err != nil {
			return nil, err
		}
		depth, err := spec.Params.Int("depth", 4)
		if err != nil {
			return nil, err
		}
		seed, err := spec.Params.Uint64("seed", 1)
		if err != nil {
			return nil, err
		}
		return NewCoMeT(banks, rowsPerBank, spec.Threshold, counters, depth, seed)
	},
}
