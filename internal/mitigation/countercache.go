package mitigation

import "fmt"

// CounterCache models the leading deterministic baseline the paper improves
// on (Kim, Nair & Qureshi, "Architectural support for mitigating row
// hammering in DRAM memories", CAL 2015, the paper's [26]): one exact
// activation counter per DRAM row, stored in a reserved region of main
// memory, fronted by an on-chip set-associative counter cache per bank.
//
// Exact per-row counters refresh only the two true victim rows, but every
// counter-cache miss costs an extra DRAM access (fetch, plus write-back of
// the victim entry), which the simulator charges as memory traffic and the
// energy model charges per Table II's counter-cache curves.
type CounterCache struct {
	name      string
	banks     int
	rows      int
	threshold uint32
	sets      int
	ways      int
	// cache[bank][set*ways+way]
	tags    [][]int32 // row tagged in the slot, -1 when empty
	vals    [][]uint32
	lru     [][]int64 // last-use tick for LRU replacement
	backing [][]uint32
	tick    int64
	counts  Counts
	scratch []RefreshRange
}

// NewCounterCache builds the baseline with the given per-bank cache entry
// count (entries = sets*ways) and associativity.
func NewCounterCache(banks, rowsPerBank int, threshold uint32, entries, ways int) (*CounterCache, error) {
	if banks < 1 || rowsPerBank < 1 {
		return nil, fmt.Errorf("mitigation: need at least one bank and row")
	}
	if threshold < 1 {
		return nil, fmt.Errorf("mitigation: threshold must be positive")
	}
	if ways < 1 || entries < ways || entries%ways != 0 {
		return nil, fmt.Errorf("mitigation: %d entries not divisible into %d ways", entries, ways)
	}
	cc := &CounterCache{
		name:      fmt.Sprintf("CC_%d", entries),
		banks:     banks,
		rows:      rowsPerBank,
		threshold: threshold,
		sets:      entries / ways,
		ways:      ways,
		tags:      make([][]int32, banks),
		vals:      make([][]uint32, banks),
		lru:       make([][]int64, banks),
		backing:   make([][]uint32, banks),
		scratch:   make([]RefreshRange, 0, 2),
	}
	for b := 0; b < banks; b++ {
		cc.tags[b] = make([]int32, entries)
		cc.vals[b] = make([]uint32, entries)
		cc.lru[b] = make([]int64, entries)
		cc.backing[b] = make([]uint32, rowsPerBank)
	}
	cc.ResetRun(0)
	return cc, nil
}

// Name implements Scheme.
func (cc *CounterCache) Name() string { return cc.name }

// Kind implements Scheme.
func (cc *CounterCache) Kind() Kind { return KindCounterCache }

// CountersPerBank reports the cached entries per bank (the on-chip cost).
func (cc *CounterCache) CountersPerBank() int { return cc.sets * cc.ways }

// OnActivate implements Scheme.
func (cc *CounterCache) OnActivate(bank, row int) []RefreshRange {
	cc.counts.Activations++
	cc.counts.SRAMAccesses += 2 // tag probe + data update
	cc.tick++
	set := row % cc.sets
	base := set * cc.ways
	tags := cc.tags[bank]
	slot := -1
	for w := 0; w < cc.ways; w++ {
		if tags[base+w] == int32(row) {
			slot = base + w
			break
		}
	}
	if slot < 0 {
		// Miss: write back the LRU victim and fetch this row's counter
		// from the reserved DRAM region (one extra memory access each way;
		// the paper's "misses to the cache counter can be expensive").
		cc.counts.ExtraMemAcc++
		victim := base
		for w := 1; w < cc.ways; w++ {
			if cc.lru[bank][base+w] < cc.lru[bank][victim] {
				victim = base + w
			}
		}
		if tags[victim] >= 0 {
			cc.backing[bank][tags[victim]] = cc.vals[bank][victim]
			cc.counts.ExtraMemAcc++
		}
		tags[victim] = int32(row)
		cc.vals[bank][victim] = cc.backing[bank][row]
		slot = victim
	}
	cc.lru[bank][slot] = cc.tick
	cc.vals[bank][slot]++
	if cc.vals[bank][slot] < cc.threshold {
		return nil
	}
	cc.vals[bank][slot] = 0
	cc.backing[bank][row] = 0
	// Exact per-row counting refreshes only the two true victims.
	cc.scratch = appendVictims(cc.scratch[:0], row, cc.rows, &cc.counts)
	return cc.scratch
}

// OnIntervalBoundary implements Scheme: all counters reset with the regular
// refresh sweep.
func (cc *CounterCache) OnIntervalBoundary() {
	for b := 0; b < cc.banks; b++ {
		clear(cc.vals[b])
		clear(cc.backing[b])
	}
}

// Counts implements Scheme.
func (cc *CounterCache) Counts() Counts { return cc.counts }

// ResetRun implements Scheme: empty tags, zeroed counters and LRU state,
// and a rewound tick are the full starting state (the counter cache draws
// no randomness).
func (cc *CounterCache) ResetRun(uint64) {
	for b := 0; b < cc.banks; b++ {
		for i := range cc.tags[b] {
			cc.tags[b][i] = -1
		}
		clear(cc.lru[b])
	}
	cc.OnIntervalBoundary()
	cc.tick = 0
	cc.counts = Counts{}
}

// Snapshot implements Snapshotter: valid cache tags across banks.
func (cc *CounterCache) Snapshot() Snapshot {
	s := Snapshot{Cap: cc.banks * cc.sets * cc.ways}
	for b := 0; b < cc.banks; b++ {
		for _, tag := range cc.tags[b] {
			if tag >= 0 {
				s.Live++
			}
		}
	}
	return s
}

var counterCacheBuilder = Builder{
	Name: "CounterCache",
	Params: []ParamDef{
		{Name: "counters", Doc: "on-chip cache entries per bank"},
		{Name: "ways", Doc: "cache associativity (default 8)"},
	},
	Short:     "CC",
	ShardSafe: true, // tags, values and LRU state all indexed by bank
	Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
		entries, err := spec.Params.Int("counters", 0)
		if err != nil {
			return nil, err
		}
		ways, err := spec.Params.Int("ways", 8)
		if err != nil {
			return nil, err
		}
		return NewCounterCache(banks, rowsPerBank, spec.Threshold, entries, ways)
	},
}
