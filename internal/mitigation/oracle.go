package mitigation

import "math/bits"

// Oracle is the ground-truth crosstalk checker behind every protection run
// (sim.Config.CheckProtection: the figx and figt studies, cmd/catsim's
// -oracle flag, catsim-server's "oracle" field and the tests). It tracks,
// for every victim row, the exposure accumulated from each adjacent
// aggressor since the victim's last refresh; a deterministic scheme is
// sound when no exposure ever exceeds the refresh threshold T.
// Probabilistic schemes (PRA, DSAC) violate it with small probability by
// design; the missed-victim accounting below and the reliability model
// quantify that.
//
// A run touches a small share of the geometry, so each bank records which
// 64-row blocks it exposed since the last Reset: RefreshAll and Reset clear
// only those, and VisitExposed walks only them, in (bank, row) order.
type Oracle struct {
	rows      int
	threshold uint32
	banks     []oracleBank

	violations int64
	exposedN   int64
	missedN    int64
}

// oracleBank is one bank's tables. Row v lives in block v>>6: 64 rows,
// which is one exposed or missed flag word and 512 B of exposure. Bit b of
// word i of the dirty bitmap stands for block i<<6|b.
type oracleBank struct {
	// exposure[v][0] counts activations of v-1 since v's refresh;
	// exposure[v][1] counts activations of v+1.
	exposure [][2]uint32
	// Ever-flags for the missed-victim rate, one bit per row: a victim row
	// is "exposed" once any adjacent aggressor activates, and "missed" once
	// its exposure exceeds T without an intervening refresh. Refreshes do
	// not clear these — they summarise the whole run.
	exposed, missed []uint64
	// dirty marks the blocks with a row exposed since the last Reset, that
	// is the non-zero exposed words (missed implies exposed). Only a row
	// exposed since then can hold exposure, so it also names every block
	// RefreshAll must clear.
	dirty []uint64
}

// NewOracle builds an oracle for the given geometry. Each bank's exposure
// slab is its own allocation (one whole-geometry slab raised a seed
// sweep's peak RSS); the banks' bitmaps share one.
func NewOracle(banks, rowsPerBank int, threshold uint32) *Oracle {
	o := &Oracle{rows: rowsPerBank, threshold: threshold, banks: make([]oracleBank, banks)}
	words := (rowsPerBank + 63) >> 6
	maps := (words + 63) >> 6
	backing := make([]uint64, banks*(2*words+maps))
	take := func(n int) []uint64 {
		s := backing[:n:n]
		backing = backing[n:]
		return s
	}
	for b := range o.banks {
		o.banks[b] = oracleBank{
			exposure: make([][2]uint32, rowsPerBank),
			exposed:  take(words),
			missed:   take(words),
			dirty:    take(maps),
		}
	}
	return o
}

// Activate records an aggressor activation and reports whether any victim's
// exposure exceeded T (a protection violation).
func (o *Oracle) Activate(bank, a int) bool {
	bk := &o.banks[bank]
	bad := false
	if v := a + 1; v < o.rows {
		e := &bk.exposure[v]
		e[0]++
		o.noteExposed(bk, v)
		if e[0] > o.threshold {
			bad = true
			o.noteMissed(bk, v)
		}
	}
	if v := a - 1; v >= 0 {
		e := &bk.exposure[v]
		e[1]++
		o.noteExposed(bk, v)
		if e[1] > o.threshold {
			bad = true
			o.noteMissed(bk, v)
		}
	}
	if bad {
		o.violations++
	}
	return bad
}

// noteExposed marks victim v exposed and, on its first exposure, its
// block dirty.
func (o *Oracle) noteExposed(bk *oracleBank, v int) {
	if w, bit := v>>6, uint64(1)<<(v&63); bk.exposed[w]&bit == 0 {
		bk.exposed[w] |= bit
		bk.dirty[w>>6] |= 1 << (w & 63)
		o.exposedN++
	}
}

func (o *Oracle) noteMissed(bk *oracleBank, v int) {
	if w, bit := v>>6, uint64(1)<<(v&63); bk.missed[w]&bit == 0 {
		bk.missed[w] |= bit
		o.missedN++
	}
}

// Refresh resets the exposure of every victim in the range.
func (o *Oracle) Refresh(bank int, rr RefreshRange) {
	if lo, hi := max(rr.Lo, 0), min(rr.Hi, o.rows-1); lo <= hi {
		clear(o.banks[bank].exposure[lo : hi+1])
	}
}

// RefreshAll models the burst auto-refresh of every row (interval boundary).
// Each run of consecutive dirty blocks is cleared with one clear, so a bank
// whose every block is dirty costs what a dense clear does. The blocks stay
// dirty: their rows stay exposed until Reset.
func (o *Oracle) RefreshAll() {
	for b := range o.banks {
		bk := &o.banks[b]
		for i, w := range bk.dirty {
			for w != 0 {
				lo := bits.TrailingZeros64(w)
				n := bits.TrailingZeros64(^(w >> lo))
				first := (i<<6 + lo) << 6
				last := min((i<<6+lo+n)<<6, len(bk.exposure))
				clear(bk.exposure[first:last])
				w &^= (1<<n - 1) << lo
			}
		}
	}
}

// Reset clears every exposure, ever-flag and counter, returning the
// oracle to its just-built state so a run context can reuse it across
// runs over the same geometry and threshold.
func (o *Oracle) Reset() {
	o.RefreshAll()
	for b := range o.banks {
		bk := &o.banks[b]
		for i, dw := range bk.dirty {
			for ; dw != 0; dw &= dw - 1 {
				w := i<<6 | bits.TrailingZeros64(dw)
				bk.exposed[w], bk.missed[w] = 0, 0
			}
			bk.dirty[i] = 0
		}
	}
	o.violations = 0
	o.exposedN = 0
	o.missedN = 0
}

// Violations returns the number of violations recorded so far.
func (o *Oracle) Violations() int64 { return o.violations }

// ExposedVictimRows returns how many distinct (bank, row) victims saw any
// aggressor exposure over the run.
func (o *Oracle) ExposedVictimRows() int64 { return o.exposedN }

// MissedVictimRows returns how many distinct (bank, row) victims had their
// exposure cross T without a refresh — the rows an attack flipped.
func (o *Oracle) MissedVictimRows() int64 { return o.missedN }

// VisitExposed calls fn for every distinct (bank, row) victim that saw any
// aggressor exposure over the run, in (bank, row) order, with missed
// reporting whether its exposure ever crossed the threshold unrefreshed.
// Per-tenant attribution folds the oracle's verdict over row ownership
// with this.
func (o *Oracle) VisitExposed(fn func(bank, row int, missed bool)) {
	for b := range o.banks {
		bk := &o.banks[b]
		for i, dw := range bk.dirty {
			for ; dw != 0; dw &= dw - 1 {
				w := i<<6 | bits.TrailingZeros64(dw)
				for ex := bk.exposed[w]; ex != 0; ex &= ex - 1 {
					r := bits.TrailingZeros64(ex)
					fn(b, w<<6|r, bk.missed[w]&(1<<r) != 0)
				}
			}
		}
	}
}

// Drive runs a scheme against the oracle for a prepared stream of (bank,
// row) activations, wiring refreshes (including cross-bank ones) back into
// the oracle. It returns the violation count (zero for sound deterministic
// schemes).
func (o *Oracle) Drive(s Scheme, stream [][2]int, intervalEvery int) int64 {
	cb, hasCB := s.(CrossBank)
	for i, br := range stream {
		ranges := s.OnActivate(br[0], br[1])
		o.Activate(br[0], br[1])
		for _, rr := range ranges {
			o.Refresh(br[0], rr)
		}
		if hasCB {
			for _, bf := range cb.PendingCrossBank() {
				o.Refresh(bf.Bank, bf.Range)
			}
		}
		if intervalEvery > 0 && (i+1)%intervalEvery == 0 {
			s.OnIntervalBoundary()
			o.RefreshAll()
		}
	}
	return o.violations
}
