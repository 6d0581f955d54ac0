package workload

import (
	"math"
	"testing"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/rng"
	"catsim/internal/trace"
)

// refOwnerOf is the reference for ownerOf: a binary search of the span
// starts.
func refOwnerOf(c *Cohort, row int) int {
	r := int32(row)
	if len(c.spanLo) == 0 || r < c.spanLo[0] || r >= c.spanHi[len(c.spanHi)-1] {
		return -1
	}
	lo, hi := 0, len(c.spanLo)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.spanLo[mid] <= r {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if r < c.spanHi[lo] {
		return lo
	}
	return -1
}

// refPickTenant is the reference for pickTenant: a binary search of the
// cumulative table for the first entry reaching u.
func refPickTenant(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refOnRefresh is the reference for OnRefresh: it credits the range row
// by row through refOwnerOf.
func refOnRefresh(c *Cohort, refreshed []int64, other *int64, lo, hi int) {
	for row := lo; row <= hi; row++ {
		if t := refOwnerOf(c, row); t >= 0 {
			refreshed[t]++
		} else {
			*other++
		}
	}
}

// lookupCase is one cohort the lookup tables are checked on.
type lookupCase struct {
	name   string
	geom   dram.Geometry
	spec   CohortSpec
	single bool // every span is exactly one row
}

// lookupCases covers the span layouts the bucket and guide tables must
// handle: the server's 2,000-tenant cohort, a wider geometry, 1-row spans
// (a footprint as large as the party count), a near-flat and a steep
// Zipf skew, and an attacker span at the end.
func lookupCases() []lookupCase {
	twoCh := dram.Default2Channel()
	return []lookupCase{
		{name: "2ch/2000", geom: twoCh, spec: CohortSpec{Tenants: 2000}},
		{name: "ddr5/2000", geom: dram.DDR5_8Channel(), spec: CohortSpec{Tenants: 2000}},
		{name: "2ch/1-row-spans", geom: twoCh, single: true, spec: CohortSpec{
			Tenants: 2047, ZipfS: 0.1, FootprintFrac: 2048 / float64(twoCh.RowsPerBank),
			Attacker: &AttackerSpec{Fraction: 0.1},
		}},
		{name: "2ch/zipf0.1", geom: twoCh, spec: CohortSpec{Tenants: 2000, ZipfS: 0.1}},
		{name: "2ch/zipf3", geom: twoCh, spec: CohortSpec{Tenants: 2000, ZipfS: 3}},
		{name: "2ch/attacker", geom: twoCh, spec: CohortSpec{Tenants: 2000, Attacker: &AttackerSpec{
			Fraction: 0.25, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided,
		}}},
	}
}

func (tc lookupCase) build(t *testing.T) *Cohort {
	t.Helper()
	policy, err := addrmap.NewRowInterleaved(tc.geom)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCohort(tc.spec, tc.geom, policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tc.single {
		for k := range c.spanLo {
			if c.spanHi[k]-c.spanLo[k] != 1 {
				t.Fatalf("span %d holds %d rows, want 1", k, c.spanHi[k]-c.spanLo[k])
			}
		}
	}
	return c
}

func TestOwnerOfMatchesBinarySearch(t *testing.T) {
	for _, tc := range lookupCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			for row := 0; row < tc.geom.RowsPerBank; row++ {
				if got, want := c.ownerOf(row), refOwnerOf(c, row); got != want {
					t.Fatalf("ownerOf(%d) = %d, want %d", row, got, want)
				}
			}
		})
	}
}

// pickProbes returns the u values checked against the reference for a
// guide table of m entries: 0, every slice start k/m, the largest float
// below each, the largest float below 1, and n uniform draws.
func pickProbes(m, n int) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	for k := 1; k < m; k++ {
		u := float64(k) / float64(m)
		us = append(us, u, math.Nextafter(u, 0))
	}
	src := rng.NewXoshiro256(3)
	for i := 0; i < n; i++ {
		us = append(us, rng.Float64(src))
	}
	return us
}

func TestPickTenantMatchesBinarySearch(t *testing.T) {
	for _, tc := range lookupCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			for mix := range c.cum {
				cum := c.cum[mix]
				for _, u := range pickProbes(len(c.guide[mix]), 1_000_000) {
					if got, want := c.pickTenant(mix, u), refPickTenant(cum, u); got != want {
						t.Fatalf("mix %d: pickTenant(%v) = %d, want %d", mix, u, got, want)
					}
				}
			}
		})
	}
}

// refreshRanges returns inclusive victim ranges around the footprint's
// edges, inside it across span edges, wholly outside it, and empty.
func refreshRanges(c *Cohort, rowsPerBank int) [][2]int {
	first, end := c.baseRow, c.baseRow+c.footprint
	out := [][2]int{
		{first - 5, first + 5}, {first - 1, first}, {first, first},
		{end - 5, end + 5}, {end - 1, end}, {end, end},
		{first - 3, end + 3}, {0, rowsPerBank - 1},
		{0, first - 1}, {end, rowsPerBank - 1}, {-2, 1},
		{first + 10, first + 9}, // empty
	}
	for k := 0; k < len(c.spanLo); k += 97 {
		lo, hi := int(c.spanLo[k]), int(c.spanHi[k])
		out = append(out, [2]int{lo - 1, lo + 1}, [2]int{hi - 2, hi + 40}, [2]int{lo, hi - 1})
	}
	src := rng.NewXoshiro256(5)
	for i := 0; i < 200; i++ {
		lo := first - 64 + rng.Intn(src, c.footprint+128)
		out = append(out, [2]int{lo, lo + rng.Intn(src, 64)})
	}
	return out
}

func TestOnRefreshMatchesRowByRow(t *testing.T) {
	for _, tc := range lookupCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			want := make([]int64, c.Parties())
			var wantOther int64
			for _, r := range refreshRanges(c, tc.geom.RowsPerBank) {
				c.OnRefresh(0, r[0], r[1])
				refOnRefresh(c, want, &wantOther, r[0], r[1])
				for p := range want {
					if c.refreshed[p] != want[p] {
						t.Fatalf("after range %v: party %d refreshed %d rows, want %d", r, p, c.refreshed[p], want[p])
					}
				}
				if _, other := c.UnownedActs(); other != wantOther {
					t.Fatalf("after range %v: %d unowned refresh rows, want %d", r, other, wantOther)
				}
			}
		})
	}
}

// TestLookupTablesStayPerParty builds a cohort on the tallest bank the
// server admits (1 bank of 2^26 rows): its lookup tables must stay a small
// multiple of the party count, and ownerOf must still agree with the
// reference around every span edge.
func TestLookupTablesStayPerParty(t *testing.T) {
	geom := dram.Geometry{Channels: 1, RanksPerCh: 1, BanksPerRk: 1,
		RowsPerBank: 1 << 26, ColBytes: 8192, LineBytes: 64}
	tc := lookupCase{geom: geom, spec: CohortSpec{Tenants: 2000, Attacker: &AttackerSpec{Fraction: 0.1}}}
	c := tc.build(t)
	parties := c.Parties()
	if n := len(c.owner); n > 4*parties {
		t.Errorf("owner table has %d buckets, want at most 4 per party (%d)", n, 4*parties)
	}
	for mix, g := range c.guide {
		if n := len(g); n >= 2*c.spec.Tenants {
			t.Errorf("mix %d guide table has %d entries, want under 2 per tenant (%d)", mix, n, 2*c.spec.Tenants)
		}
	}
	for k := range c.spanLo {
		for _, row := range []int{int(c.spanLo[k]) - 1, int(c.spanLo[k]), int(c.spanHi[k]) - 1, int(c.spanHi[k])} {
			if got, want := c.ownerOf(row), refOwnerOf(c, row); got != want {
				t.Fatalf("ownerOf(%d) = %d, want %d", row, got, want)
			}
		}
	}
}
