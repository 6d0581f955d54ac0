package mitigation

// refOracle is the differential reference for Oracle: the dense oracle
// that tracked every row with its own exposure pair and two bool flags,
// clearing the whole geometry on every RefreshAll and Reset. It is kept
// verbatim apart from its name; Drive, which reads only the methods
// below, stays on Oracle alone.
// FuzzOracleMatchesRef and the tests in oracle_test.go require the two to
// agree on every verdict, counter and visited victim.
type refOracle struct {
	rows      int
	threshold uint32
	// exposure[bank][v][0] counts activations of v-1 since v's refresh;
	// exposure[bank][v][1] counts activations of v+1.
	exposure   [][][2]uint32
	violations int64
	// Ever-flags for the missed-victim rate: a victim row is "exposed"
	// once any adjacent aggressor activates, and "missed" once its
	// exposure exceeds T without an intervening refresh. Refreshes do not
	// clear these — they summarise the whole run.
	exposed  [][]bool
	missed   [][]bool
	exposedN int64
	missedN  int64
}

// newRefOracle builds a reference oracle for the given geometry.
func newRefOracle(banks, rowsPerBank int, threshold uint32) *refOracle {
	o := &refOracle{rows: rowsPerBank, threshold: threshold,
		exposure: make([][][2]uint32, banks),
		exposed:  make([][]bool, banks),
		missed:   make([][]bool, banks)}
	for b := range o.exposure {
		o.exposure[b] = make([][2]uint32, rowsPerBank)
		o.exposed[b] = make([]bool, rowsPerBank)
		o.missed[b] = make([]bool, rowsPerBank)
	}
	return o
}

// Activate records an aggressor activation and reports whether any victim's
// exposure exceeded T (a protection violation).
func (o *refOracle) Activate(bank, a int) bool {
	e := o.exposure[bank]
	bad := false
	if v := a + 1; v < o.rows {
		e[v][0]++
		o.noteExposed(bank, v)
		if e[v][0] > o.threshold {
			bad = true
			o.noteMissed(bank, v)
		}
	}
	if v := a - 1; v >= 0 {
		e[v][1]++
		o.noteExposed(bank, v)
		if e[v][1] > o.threshold {
			bad = true
			o.noteMissed(bank, v)
		}
	}
	if bad {
		o.violations++
	}
	return bad
}

func (o *refOracle) noteExposed(bank, v int) {
	if !o.exposed[bank][v] {
		o.exposed[bank][v] = true
		o.exposedN++
	}
}

func (o *refOracle) noteMissed(bank, v int) {
	if !o.missed[bank][v] {
		o.missed[bank][v] = true
		o.missedN++
	}
}

// Refresh resets the exposure of every victim in the range.
func (o *refOracle) Refresh(bank int, rr RefreshRange) {
	e := o.exposure[bank]
	for v := rr.Lo; v <= rr.Hi && v < o.rows; v++ {
		if v >= 0 {
			e[v] = [2]uint32{}
		}
	}
}

// RefreshAll models the burst auto-refresh of every row (interval boundary).
func (o *refOracle) RefreshAll() {
	for b := range o.exposure {
		for v := range o.exposure[b] {
			o.exposure[b][v] = [2]uint32{}
		}
	}
}

// Reset clears every exposure, ever-flag and counter, returning the
// oracle to its just-built state so a run context can reuse it across
// runs over the same geometry and threshold.
func (o *refOracle) Reset() {
	for b := range o.exposure {
		e := o.exposure[b]
		for v := range e {
			e[v] = [2]uint32{}
		}
		ex := o.exposed[b]
		for v := range ex {
			ex[v] = false
		}
		ms := o.missed[b]
		for v := range ms {
			ms[v] = false
		}
	}
	o.violations = 0
	o.exposedN = 0
	o.missedN = 0
}

// Violations returns the number of violations recorded so far.
func (o *refOracle) Violations() int64 { return o.violations }

// ExposedVictimRows returns how many distinct (bank, row) victims saw any
// aggressor exposure over the run.
func (o *refOracle) ExposedVictimRows() int64 { return o.exposedN }

// MissedVictimRows returns how many distinct (bank, row) victims had their
// exposure cross T without a refresh — the rows an attack flipped.
func (o *refOracle) MissedVictimRows() int64 { return o.missedN }

// VisitExposed calls fn for every distinct (bank, row) victim that saw any
// aggressor exposure over the run, with missed reporting whether its
// exposure ever crossed the threshold unrefreshed. Per-tenant attribution
// folds the oracle's verdict over row ownership with this.
func (o *refOracle) VisitExposed(fn func(bank, row int, missed bool)) {
	for b := range o.exposed {
		for r, ex := range o.exposed[b] {
			if ex {
				fn(b, r, o.missed[b][r])
			}
		}
	}
}
