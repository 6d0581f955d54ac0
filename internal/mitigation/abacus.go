package mitigation

import (
	"fmt"

	"catsim/internal/sketch"
)

// ABACuS models all-bank activation counters (Olgun et al., USENIX
// Security 2024): one Misra-Gries summary of row IDs shared across every
// bank, exploiting the observation that workloads (and attacks) touch the
// same row IDs in many banks. Each entry holds a row activation count
// (RAC) and a sibling activation vector (SAV) of one bit per bank; the RAC
// increments only when a bank re-activates a row whose SAV bit is already
// set, so it tracks the *maximum* per-bank activation count instead of the
// sum. When an entry's RAC reaches T-1 the row's neighbours are refreshed
// in every bank at once (the cross-bank ranges surface through the
// CrossBank interface).
//
// Soundness: for every bank b, the count of row r in b since the window
// start is at most RAC(r)+1 while tracked and at most the spillover floor
// while untracked; triggering at RAC = T-1 therefore refreshes victims
// before any single-bank exposure can exceed T. If the spillover floor
// itself climbs to T-1 (a deliberately undersized summary), every bank is
// refreshed wholesale and the window restarts — expensive, loud, and never
// silent.
type ABACuS struct {
	name      string
	banks     int
	rows      int
	threshold uint32
	mg        *sketch.MisraGries
	sav       [][]uint64 // per entry: bank bitset, len = ceil(banks/64)
	savWords  int
	counts    Counts
	scratch   []RefreshRange
	pending   []BankRefresh
}

// NewABACuS builds the shared tracker with the given total entry count
// (shared across all banks; the per-bank SRAM share is entries/banks).
func NewABACuS(banks, rowsPerBank, entries int, threshold uint32) (*ABACuS, error) {
	if banks < 1 || rowsPerBank < 1 {
		return nil, fmt.Errorf("mitigation: need at least one bank and row")
	}
	if threshold < 2 {
		return nil, fmt.Errorf("mitigation: ABACuS threshold %d too small", threshold)
	}
	mg, err := sketch.NewMisraGries(entries)
	if err != nil {
		return nil, err
	}
	a := &ABACuS{
		name:      fmt.Sprintf("ABACuS_%d", entries),
		banks:     banks,
		rows:      rowsPerBank,
		threshold: threshold,
		mg:        mg,
		sav:       make([][]uint64, entries),
		savWords:  (banks + 63) / 64,
		scratch:   make([]RefreshRange, 0, 2),
		pending:   make([]BankRefresh, 0, 2*banks),
	}
	for i := range a.sav {
		a.sav[i] = make([]uint64, a.savWords)
	}
	return a, nil
}

// Name implements Scheme.
func (a *ABACuS) Name() string { return a.name }

// Kind implements Scheme.
func (a *ABACuS) Kind() Kind { return KindABACuS }

// CountersPerBank reports each bank's share of the shared entry storage
// (at least 1, so the energy model has a positive counter count).
func (a *ABACuS) CountersPerBank() int {
	per := a.mg.Cap() / a.banks
	if per < 1 {
		per = 1
	}
	return per
}

func (a *ABACuS) savBit(idx, bank int) bool {
	return a.sav[idx][bank/64]&(1<<(bank%64)) != 0
}

func (a *ABACuS) clearSAV(idx int) {
	for w := range a.sav[idx] {
		a.sav[idx][w] = 0
	}
}

// refreshRow queues victim refreshes for row in every bank: the activating
// bank's ranges go to scratch (returned by OnActivate), the rest to the
// cross-bank pending list.
func (a *ABACuS) refreshRow(activatingBank, row int) {
	start := len(a.scratch)
	a.scratch = appendVictims(a.scratch, row, a.rows, &a.counts)
	for _, rr := range a.scratch[start:] {
		for b := 0; b < a.banks; b++ {
			if b == activatingBank {
				continue
			}
			a.pending = append(a.pending, BankRefresh{Bank: b, Range: rr})
			a.counts.RowsRefreshed++
		}
	}
}

// refreshAllBanks is the spillover escape hatch: refresh every row of
// every bank and restart the window.
func (a *ABACuS) refreshAllBanks(activatingBank int) {
	a.counts.RefreshEvents++
	all := RefreshRange{Lo: 0, Hi: a.rows - 1}
	a.scratch = append(a.scratch, all)
	for b := 0; b < a.banks; b++ {
		if b != activatingBank {
			a.pending = append(a.pending, BankRefresh{Bank: b, Range: all})
		}
	}
	a.counts.RowsRefreshed += int64(a.banks) * int64(a.rows)
	a.reset()
}

// OnActivate implements Scheme.
func (a *ABACuS) OnActivate(bank, row int) []RefreshRange {
	a.counts.Activations++
	a.counts.SRAMAccesses += 2 // CAM probe + RAC/SAV update
	a.scratch = a.scratch[:0]
	a.pending = a.pending[:0]

	idx := a.mg.Find(int64(row))
	if idx < 0 {
		var ok bool
		idx, _, ok = a.mg.Insert(int64(row))
		if ok {
			a.clearSAV(idx)
			a.sav[idx][bank/64] |= 1 << (bank % 64)
		} else if a.mg.Spillover() >= a.threshold-1 {
			// Untracked rows are only bounded by the floor; once the floor
			// nears T nothing below it is provably safe.
			a.refreshAllBanks(bank)
			return a.scratch
		}
	} else {
		if a.savBit(idx, bank) {
			a.mg.Add(idx, 1)
			a.clearSAV(idx)
		}
		a.sav[idx][bank/64] |= 1 << (bank % 64)
	}
	if idx >= 0 && a.mg.Count(idx) >= a.threshold-1 {
		a.refreshRow(bank, row)
		a.mg.SetCount(idx, a.mg.Spillover())
		a.clearSAV(idx)
	}
	return a.scratch
}

// PendingCrossBank implements CrossBank.
func (a *ABACuS) PendingCrossBank() []BankRefresh { return a.pending }

func (a *ABACuS) reset() {
	a.mg.Reset()
	for i := range a.sav {
		a.clearSAV(i)
	}
}

// OnIntervalBoundary implements Scheme.
func (a *ABACuS) OnIntervalBoundary() {
	a.reset()
}

// Counts implements Scheme.
func (a *ABACuS) Counts() Counts { return a.counts }

// ResetRun implements Scheme: the shared summary and every SAV empty
// (ABACuS draws no randomness).
func (a *ABACuS) ResetRun(uint64) {
	a.reset()
	a.scratch = a.scratch[:0]
	a.pending = a.pending[:0]
	a.counts = Counts{}
}

// Snapshot implements Snapshotter: occupied entries of the shared
// Misra-Gries summary.
func (a *ABACuS) Snapshot() Snapshot {
	return Snapshot{Live: a.mg.Live(), Cap: a.mg.Cap()}
}

var abacusBuilder = Builder{
	Name:   "ABACuS",
	Params: []ParamDef{{Name: "counters", Doc: "shared Misra-Gries entries across all banks"}},
	Build: func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
		entries, err := spec.Params.Int("counters", 0)
		if err != nil {
			return nil, err
		}
		return NewABACuS(banks, rowsPerBank, entries, spec.Threshold)
	},
}
