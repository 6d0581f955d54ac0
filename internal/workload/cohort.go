package workload

import (
	"fmt"
	"math"
	"strings"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/rng"
	"catsim/internal/trace"
)

// Seed-stream separators: every RNG stream a cohort owns derives from the
// run seed xor a distinct constant, so tenants, the tenant selector and
// the arrival processes never share state (and adding one never perturbs
// another — the partitioning SNIPPETS-style multi-instance subsystems use).
const (
	tenantSeedMix  = 0x7E4A47BA5E0D1C93
	pickSeedMix    = 0x5ECB0A57C0FF8E11
	arrivalSeedMix = 0xA881A77C3D5B9F21
)

// AttackerSpec embeds one attacker tenant in a cohort: a fraction of all
// arrivals is issued by it, and those requests run the trace package's
// kernel-attack generator (hammer rows blended with cover traffic drawn
// from the attacker's own footprint, per the attack mode).
type AttackerSpec struct {
	// Fraction of all arrivals issued by the attacker, in [0, 1).
	Fraction float64
	// Kernel, Mode and Pattern configure trace.NewAttackPattern. The zero
	// Mode is Heavy, the zero Pattern the paper's Gaussian kernels.
	Kernel  int
	Mode    trace.AttackMode
	Pattern trace.Pattern
}

// CohortSpec describes a multi-tenant population sharing the DRAM.
type CohortSpec struct {
	// Tenants is the number of benign tenants (the attacker, when present,
	// is one more on top).
	Tenants int
	// ZipfS is the Zipf exponent skewing both footprint sizes and tenant
	// popularity (0 selects 1.1).
	ZipfS float64
	// FootprintFrac is the fraction of each bank's rows the cohort
	// occupies, centered in the row space (0 selects 0.5).
	FootprintFrac float64
	// WriteFrac is the write fraction of benign requests (0 selects 0.3).
	WriteFrac float64
	// RowSkew is the intra-tenant row-reuse exponent: each tenant draws
	// row u^RowSkew into its span, so larger values concentrate traffic on
	// the span's first rows (0 selects 3).
	RowSkew float64
	// Attacker, when non-nil, adds an attacker tenant.
	Attacker *AttackerSpec
}

func (s *CohortSpec) fill() {
	if s.ZipfS == 0 {
		s.ZipfS = 1.1
	}
	if s.FootprintFrac == 0 {
		s.FootprintFrac = 0.5
	}
	if s.WriteFrac == 0 {
		s.WriteFrac = 0.3
	}
	if s.RowSkew == 0 {
		s.RowSkew = 3
	}
}

func (s CohortSpec) validate() error {
	if s.Tenants < 1 {
		return fmt.Errorf("workload: cohort needs at least one tenant, got %d", s.Tenants)
	}
	if s.ZipfS < 0 {
		return fmt.Errorf("workload: negative Zipf exponent %g", s.ZipfS)
	}
	if s.FootprintFrac <= 0 || s.FootprintFrac > 1 {
		return fmt.Errorf("workload: footprint fraction %g out of (0, 1]", s.FootprintFrac)
	}
	if s.WriteFrac < 0 || s.WriteFrac >= 1 {
		return fmt.Errorf("workload: write fraction %g out of [0, 1)", s.WriteFrac)
	}
	if s.RowSkew < 1 {
		return fmt.Errorf("workload: row skew %g must be at least 1", s.RowSkew)
	}
	if a := s.Attacker; a != nil {
		if a.Fraction <= 0 || a.Fraction >= 1 {
			return fmt.Errorf("workload: attacker fraction %g out of (0, 1)", a.Fraction)
		}
	}
	return nil
}

// String is the canonical cache-key form; it spells the attacker out by
// value so no pointer identity leaks into sim.CacheKey.
func (s CohortSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenants=%d,zipf=%g,foot=%g,write=%g,rowskew=%g",
		s.Tenants, s.ZipfS, s.FootprintFrac, s.WriteFrac, s.RowSkew)
	if s.Attacker != nil {
		fmt.Fprintf(&b, ",attacker=%g/k%d/%s/%s",
			s.Attacker.Fraction, s.Attacker.Kernel, s.Attacker.Mode, s.Attacker.Pattern)
	}
	return b.String()
}

// equal reports whether s and o have the same String form (see
// Config.Equal).
func (s CohortSpec) equal(o CohortSpec) bool {
	if s.Tenants != o.Tenants || !sameBits(s.ZipfS, o.ZipfS) || !sameBits(s.FootprintFrac, o.FootprintFrac) ||
		!sameBits(s.WriteFrac, o.WriteFrac) || !sameBits(s.RowSkew, o.RowSkew) ||
		(s.Attacker == nil) != (o.Attacker == nil) {
		return false
	}
	a, b := s.Attacker, o.Attacker
	return a == nil || sameBits(a.Fraction, b.Fraction) && a.Kernel == b.Kernel &&
		a.Mode == b.Mode && a.Pattern == b.Pattern
}

// TenantStat is one tenant's share of a run, attributed by row ownership:
// each tenant owns a contiguous span of row indices (the same span in
// every bank, since both mapping policies place row bits most
// significant), so any (bank, row) event maps to exactly one owner. The
// attribution is region-centric on purpose — it depends only on the
// activation/refresh event stream, so a replayed capture reproduces it
// byte-identically without re-running the generators.
type TenantStat struct {
	// ID is the tenant index; the attacker, when present, is the last ID.
	ID       int  `json:"id"`
	Attacker bool `json:"attacker,omitempty"`
	// Rows is the tenant's footprint in rows per bank.
	Rows int `json:"rows"`
	// Acts counts activations that landed in the tenant's rows, which is
	// not the requests the tenant issued: a row-buffer hit activates
	// nothing, attacker hammer rows may land in a victim tenant's span
	// (the interference signal), and drawAddr's column, scaled to bytes
	// where the address map wants a line index, can move a benign request
	// to another row or bank before it is decoded.
	Acts int64 `json:"acts"`
	// RowsRefreshed counts victim-refresh rows inside the tenant's span —
	// whose rows the mitigation scheme had to touch.
	RowsRefreshed int64 `json:"rows_refreshed"`
	// ExposedRows and MissedRows are the oracle's per-tenant protection
	// verdict (protection runs only): distinct owned victim rows with any
	// crosstalk exposure, and those whose exposure crossed the threshold
	// unrefreshed.
	ExposedRows int64 `json:"exposed_rows,omitempty"`
	MissedRows  int64 `json:"missed_rows,omitempty"`
}

// Cohort is a built tenant population: the span table, the per-tenant and
// selector RNG streams, the attacker generator, and the attribution
// counters the engine's hooks feed. It implements engine.Attributor.
type Cohort struct {
	spec   CohortSpec
	geom   dram.Geometry
	policy addrmap.Policy

	baseRow   int // first cohort row in every bank
	footprint int // cohort rows per bank, from baseRow on
	// spanLo/spanHi bound each party's rows (half-open, absolute row
	// indices); parties = Tenants, plus the attacker last when configured.
	spanLo, spanHi []int32
	// owner[b] is the first party whose span reaches into the
	// 2^ownerShift-row bucket b of the footprint (see ownerOf).
	owner      []int32
	ownerShift uint
	// cum[mixIndex] is the cumulative tenant-selection distribution for
	// each mix profile (base, flat, peak); guide[mixIndex] indexes it
	// (see pickTenant).
	cum   [3][]float64
	guide [3][]int32
	mix   int

	// Per-draw constants of drawAddr: the bank of each flat index and the
	// cache lines per row.
	banks       []dram.BankID
	linesPerRow int

	pick    rng.Xoshiro256   // tenant selection, write coin, attacker coin
	streams []rng.Xoshiro256 // per-party address streams
	attack  trace.Generator  // nil without an attacker

	acts      []int64 // per party, owned-row activations
	refreshed []int64 // per party, owned victim-refresh rows
	otherActs int64   // activations outside every span (attacker spill)
	otherRef  int64
}

// tenantGen adapts one party's address stream to trace.Generator — the
// cover-traffic source the attacker's blend draws between hammer bursts.
type tenantGen struct {
	c *Cohort
	t int
}

func (g tenantGen) Name() string { return fmt.Sprintf("tenant-%d", g.t) }

func (g tenantGen) Next() trace.Request {
	return trace.Request{Addr: g.c.drawAddr(g.t), Gap: 1}
}

// NewCohort builds the tenant population for a geometry and mapping
// policy and ends in Reset(seed). Construction is deterministic in (spec,
// seed): span layout is arithmetic, and the RNG streams are seeded but
// not drawn from, so a replay run rebuilding the cohort for attribution
// sees the identical ownership table.
func NewCohort(spec CohortSpec, geom dram.Geometry, policy addrmap.Policy, seed uint64) (*Cohort, error) {
	spec.fill()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	parties := spec.Tenants
	if spec.Attacker != nil {
		parties++
	}
	rows := int(spec.FootprintFrac * float64(geom.RowsPerBank))
	if rows < parties {
		return nil, fmt.Errorf("workload: footprint of %d rows cannot hold %d tenants", rows, parties)
	}
	c := &Cohort{
		spec:        spec,
		geom:        geom,
		policy:      policy,
		baseRow:     (geom.RowsPerBank - rows) / 2,
		footprint:   rows,
		spanLo:      make([]int32, parties),
		spanHi:      make([]int32, parties),
		banks:       make([]dram.BankID, geom.TotalBanks()),
		linesPerRow: geom.LinesPerRow(),
		streams:     make([]rng.Xoshiro256, parties),
		acts:        make([]int64, parties),
		refreshed:   make([]int64, parties),
	}
	for i := range c.banks {
		c.banks[i] = geom.Unflat(i)
	}

	// Zipf-sized spans: tenant k's footprint is proportional to
	// (k+1)^-s, floored at one row, laid out contiguously from baseRow.
	// The attacker takes the last (smallest) rank — it hides among the
	// long tail. Leftover rows from flooring pad the largest tenant.
	weights := make([]float64, parties)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -spec.ZipfS)
		sum += weights[k]
	}
	sizes := make([]int, parties)
	assigned := 0
	for k := range sizes {
		sizes[k] = int(float64(rows) * weights[k] / sum)
		if sizes[k] < 1 {
			sizes[k] = 1
		}
		assigned += sizes[k]
	}
	// Flooring under- or over-assigns by at most a few rows per party;
	// settle the difference against the largest span, which can absorb it.
	sizes[0] += rows - assigned
	if sizes[0] < 1 {
		return nil, fmt.Errorf("workload: footprint of %d rows too small for %d tenants at zipf=%g", rows, parties, spec.ZipfS)
	}
	at := c.baseRow
	for k, sz := range sizes {
		c.spanLo[k] = int32(at)
		c.spanHi[k] = int32(at + sz)
		at += sz
	}
	c.buildOwners()

	// Selection tables per mix profile. The attacker never wins the
	// benign selection (its traffic volume is AttackerSpec.Fraction, drawn
	// by a separate coin), so the tables cover benign tenants only.
	for mi, exp := range []float64{spec.ZipfS, 0, 2 * spec.ZipfS} {
		cum := make([]float64, spec.Tenants)
		var total float64
		for k := range cum {
			total += math.Pow(float64(k+1), -exp)
			cum[k] = total
		}
		for k := range cum {
			cum[k] /= total
		}
		c.cum[mi] = cum
		c.guide[mi] = guideTable(cum)
	}

	if a := spec.Attacker; a != nil {
		cover := tenantGen{c: c, t: parties - 1}
		attack, err := trace.NewAttackPattern(a.Kernel, a.Mode, a.Pattern, geom, policy, cover)
		if err != nil {
			return nil, err
		}
		c.attack = attack
	}
	c.Reset(seed)
	return c, nil
}

// buildOwners fills the owner bucket table. The shift is the smallest
// that keeps the footprint within 4 buckets per party, so the table is
// O(parties) at any geometry and a bucket starts about one span on
// average.
func (c *Cohort) buildOwners() {
	for (c.footprint-1)>>c.ownerShift >= 4*len(c.spanLo) {
		c.ownerShift++
	}
	c.owner = make([]int32, (c.footprint-1)>>c.ownerShift+1)
	t := 0
	for b := range c.owner {
		start := c.baseRow + b<<c.ownerShift
		for int(c.spanHi[t]) <= start {
			t++
		}
		c.owner[b] = int32(t)
	}
}

// guideTable builds the indexed-search table over a cumulative
// distribution (Chen and Asau, 1974): m is the power of two at or above
// len(cum), and entry k is the first index whose cum reaches k/m (the
// last index if none does). pickTenant starts its scan there.
func guideTable(cum []float64) []int32 {
	m := 1
	for m < len(cum) {
		m <<= 1
	}
	guide := make([]int32, m)
	i := 0
	for k := range guide {
		for i < len(cum)-1 && cum[i] < float64(k)/float64(m) {
			i++
		}
		guide[k] = int32(i)
	}
	return guide
}

// Reset seeds the cohort for a run, without allocating: the span layout,
// the selection tables and their lookup tables are seed-independent
// arithmetic and stand; the selector and per-party streams seed from
// seed; the attacker's emission state rewinds; and the attribution
// counters zero. NewCohort ends in it, and run contexts use it to reuse
// cohorts across seed-sweep runs.
func (c *Cohort) Reset(seed uint64) {
	c.pick.Seed(seed ^ pickSeedMix)
	for k := range c.streams {
		c.streams[k].Seed(seed ^ tenantSeedMix ^ (uint64(k)+1)*0x9E3779B97F4A7C15)
	}
	if a, ok := c.attack.(*trace.Attack); ok {
		a.Reset()
	}
	c.mix = 0
	clear(c.acts)
	clear(c.refreshed)
	c.otherActs = 0
	c.otherRef = 0
}

// Parties returns the number of tenants including the attacker.
func (c *Cohort) Parties() int { return len(c.spanLo) }

// setMix switches the tenant-popularity profile (diurnal phases).
func (c *Cohort) setMix(mix int) { c.mix = mix }

// drawAddr draws one address from party t's footprint: a row skewed
// toward the span start, a uniform bank and a uniform line within the
// row. The line is scaled to bytes, though addrmap.Coord.Col is a line
// index, so Encode ORs its high bits into the channel, bank or low row
// bits, depending on the map. Every open-loop output so far was made that
// way; the fix, an unscaled line, changes them all and waits for a
// benchmark that can be rebaselined.
func (c *Cohort) drawAddr(t int) int64 {
	src := &c.streams[t]
	lo, hi := int(c.spanLo[t]), int(c.spanHi[t])
	u := rng.Float64(src)
	var frac float64
	if c.spec.RowSkew == 3 {
		frac = u * u * u // the default skew without a Pow in the hot path
	} else {
		frac = math.Pow(u, c.spec.RowSkew)
	}
	row := lo + int(frac*float64(hi-lo))
	bank := c.banks[rng.Intn(src, len(c.banks))]
	col := rng.Intn(src, c.linesPerRow) * c.geom.LineBytes
	return c.policy.Encode(addrmap.Coord{Bank: bank, Row: row, Col: col})
}

// Draw issues one request: the attacker coin first, then the mix-weighted
// tenant pick, then that tenant's address stream. Gap carries 1 (unused
// by the open-loop path, which times requests by arrival instead).
func (c *Cohort) Draw() trace.Request {
	if c.attack != nil && rng.Float64(&c.pick) < c.spec.Attacker.Fraction {
		r := c.attack.Next()
		r.Gap = 1
		return r
	}
	t := c.pickTenant(c.mix, rng.Float64(&c.pick))
	return trace.Request{
		Addr:  c.drawAddr(t),
		Write: rng.Float64(&c.pick) < c.spec.WriteFrac,
		Gap:   1,
	}
}

// pickTenant returns the first tenant whose cumulative share under mix
// reaches u in [0, 1), or the last tenant if none does. The guide entry
// for u's 1/m slice of [0, 1) is a lower bound on that tenant, and the
// scan forward from it is about two steps on average, since m is at
// least the tenant count.
func (c *Cohort) pickTenant(mix int, u float64) int {
	cum, guide := c.cum[mix], c.guide[mix]
	// m is a power of two, so u*m is exact and truncates to u's slice.
	i := int(guide[int(u*float64(len(guide)))])
	for i < len(cum)-1 && cum[i] < u {
		i++
	}
	return i
}

// ownerOf returns the party owning a row index, or -1 outside every span.
// Spans tile the footprint, so the row's bucket names the first candidate
// and the owner is at most the spans starting inside that bucket away.
func (c *Cohort) ownerOf(row int) int {
	off := row - c.baseRow
	if off < 0 || off >= c.footprint {
		return -1
	}
	t := int(c.owner[off>>c.ownerShift])
	for int(c.spanHi[t]) <= row {
		t++
	}
	return t
}

// OnActivate implements engine.Attributor: credit the activation to the
// row's owner. Allocation-free — it runs on the engine's request path.
func (c *Cohort) OnActivate(bank, row int) {
	if t := c.ownerOf(row); t >= 0 {
		c.acts[t]++
	} else {
		c.otherActs++
	}
}

// OnRefresh implements engine.Attributor: split an inclusive victim-row
// range across the owners it overlaps. Rows outside the footprint count
// once each toward the unowned total, in one step per side.
func (c *Cohort) OnRefresh(bank, lo, hi int) {
	if lo > hi {
		return
	}
	if first := c.baseRow; lo < first {
		c.otherRef += int64(min(hi, first-1) - lo + 1)
		lo = first
	}
	if end := c.baseRow + c.footprint; hi >= end {
		c.otherRef += int64(hi - max(lo, end) + 1)
		hi = end - 1
	}
	if lo > hi {
		return
	}
	// Spans tile the footprint, so the range's owners are consecutive.
	for t, row := c.ownerOf(lo), lo; row <= hi; t++ {
		end := min(int(c.spanHi[t])-1, hi)
		c.refreshed[t] += int64(end - row + 1)
		row = end + 1
	}
}

// exposureVisitor is the subset of the oracle the per-tenant attribution
// consumes; mitigation.Oracle implements it.
type exposureVisitor interface {
	VisitExposed(fn func(bank, row int, missed bool))
}

// Stats snapshots the attribution counters into per-tenant rows, folding
// in the oracle's exposure map when a protection oracle ran.
func (c *Cohort) Stats(oracle exposureVisitor) []TenantStat {
	out := make([]TenantStat, len(c.spanLo))
	for t := range out {
		out[t] = TenantStat{
			ID:            t,
			Attacker:      c.attack != nil && t == len(out)-1,
			Rows:          int(c.spanHi[t] - c.spanLo[t]),
			Acts:          c.acts[t],
			RowsRefreshed: c.refreshed[t],
		}
	}
	if oracle != nil {
		oracle.VisitExposed(func(bank, row int, missed bool) {
			if t := c.ownerOf(row); t >= 0 {
				out[t].ExposedRows++
				if missed {
					out[t].MissedRows++
				}
			}
		})
	}
	return out
}

// UnownedActs reports activations (and refresh rows) that landed outside
// every tenant span — attacker hammer targets beyond the cohort region.
func (c *Cohort) UnownedActs() (acts, refreshRows int64) { return c.otherActs, c.otherRef }
