package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/trace"
)

func testGeomPolicy(t *testing.T) (dram.Geometry, addrmap.Policy) {
	t.Helper()
	geom := dram.Default2Channel()
	policy, err := addrmap.NewRowInterleaved(geom)
	if err != nil {
		t.Fatal(err)
	}
	return geom, policy
}

// arrivalRoundTrips are canonical specs: each parses and prints back
// verbatim. They also seed FuzzParseArrival.
var arrivalRoundTrips = []string{
	"poisson:rate=2.8e+08",
	"bursty:rate=1e+08,on=0.25,burst=50000",
	"diurnal:phases=4.2e+08x400000:peak/2.8e+08x800000/7e+07x400000:flat",
}

// arrivalErrors must each fail to parse. They also seed FuzzParseArrival.
var arrivalErrors = []string{
	"steady:rate=1e8",              // unknown kind
	"poisson",                      // missing params
	"poisson:rate",                 // not key=value
	"poisson:rate=0",               // rate must be positive
	"poisson:pace=1e8",             // unknown key
	"bursty:rate=1e8,on=1.5",       // duty out of range
	"diurnal:phases=1e8x0",         // zero-length phase
	"diurnal:phases=0x1000",        // no phase with a positive rate
	"diurnal:phases=1e8x1000:warm", // unknown mix
	"diurnal:phases=1e8",           // malformed phase
	// Non-finite values.
	"poisson:rate=NaN",
	"poisson:rate=Inf",
	"bursty:rate=1e6,on=NaN",
	"bursty:rate=1e6,burst=Inf",
	"diurnal:phases=1e6xInf",
	"diurnal:phases=NaNx1000/1e6x1000",
	// Parameters the kind does not use (String would drop them).
	"poisson:rate=1e6,on=0.5",
	"poisson:rate=1e6,phases=1e6x1000",
	"diurnal:phases=1e6x1000,rate=5",
}

func TestParseArrivalRoundTrip(t *testing.T) {
	for _, in := range arrivalRoundTrips {
		spec, err := ParseArrival(in)
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", in, err)
		}
		if got := spec.String(); got != in {
			t.Errorf("ParseArrival(%q).String() = %q", in, got)
		}
		again, err := ParseArrival(spec.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", spec.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("round trip changed spec: %+v vs %+v", spec, again)
		}
	}
}

func TestParseArrivalErrors(t *testing.T) {
	for _, in := range arrivalErrors {
		if _, err := ParseArrival(in); err == nil {
			t.Errorf("ParseArrival(%q) succeeded, want error", in)
		}
	}
}

// FuzzParseArrival guards the arrival grammar, which reaches the program
// from outside through workload specs: it must never panic, and every
// accepted spec must parse back from its String form to a DeepEqual spec.
// The extra seed spells out the base mix that String omits.
func FuzzParseArrival(f *testing.F) {
	for _, s := range append(append([]string{"diurnal:phases=1e6x1000:base"}, arrivalRoundTrips...), arrivalErrors...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseArrival(in)
		if err != nil {
			return
		}
		again, err := ParseArrival(spec.String())
		if err != nil {
			t.Fatalf("ParseArrival(%q) accepted, but its String %q fails: %v", in, spec.String(), err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("ParseArrival(%q): round trip via %q gives %+v, want %+v", in, spec.String(), again, spec)
		}
	})
}

// drainProcess draws n arrivals and returns the times.
func drainProcess(p *process, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i], _ = p.next()
	}
	return out
}

func TestProcessMonotoneAndDeterministic(t *testing.T) {
	specs := []ArrivalSpec{
		{Kind: Poisson, RateRPS: 2e8},
		{Kind: Bursty, RateRPS: 2e8, OnFrac: 0.25, MeanBurstNS: 20_000},
		{Kind: Diurnal, Phases: []Phase{
			{RateRPS: 3e8, DurationNS: 10_000, Mix: MixPeak},
			{RateRPS: 1e8, DurationNS: 20_000},
		}},
	}
	for _, spec := range specs {
		a := drainProcess(newProcess(spec, 3.2, 7), 5000)
		b := drainProcess(newProcess(spec, 3.2, 7), 5000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different arrivals", spec.Kind)
		}
		c := drainProcess(newProcess(spec, 3.2, 8), 5000)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical arrivals", spec.Kind)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("%s: arrivals not monotone at %d: %d < %d", spec.Kind, i, a[i], a[i-1])
			}
		}
	}
}

func TestProcessMeanRates(t *testing.T) {
	const cyclesPerNS = 3.2
	// Short burst/phase periods pack hundreds of on/off and schedule
	// cycles into the measurement window, so the long-run mean converges;
	// the bursty tolerance is wider because duty-cycle variance decays
	// only with the number of bursts.
	for _, tc := range []struct {
		spec ArrivalSpec
		tol  float64
	}{
		{ArrivalSpec{Kind: Poisson, RateRPS: 2e8}, 0.05},
		{ArrivalSpec{Kind: Bursty, RateRPS: 2e8, OnFrac: 0.25, MeanBurstNS: 2_000}, 0.10},
		{ArrivalSpec{Kind: Diurnal, Phases: []Phase{
			{RateRPS: 3e8, DurationNS: 25_000},
			{RateRPS: 1e8, DurationNS: 25_000},
		}}, 0.05},
	} {
		const n = 400_000
		at := drainProcess(newProcess(tc.spec, cyclesPerNS, 42), n)
		durNS := float64(at[n-1]) / cyclesPerNS
		got := float64(n) / (durNS * 1e-9)
		want := tc.spec.MeanRateRPS()
		if math.Abs(got-want)/want > tc.tol {
			t.Errorf("%s: measured %.3g RPS, want %.3g within %g%%",
				tc.spec.Kind, got, want, tc.tol*100)
		}
	}
}

func TestBurstyHasGaps(t *testing.T) {
	// A 25% duty cycle must show interarrival gaps far beyond the
	// on-state mean — the silent periods a Poisson stream never produces.
	spec := ArrivalSpec{Kind: Bursty, RateRPS: 1e8, OnFrac: 0.25, MeanBurstNS: 10_000}
	at := drainProcess(newProcess(spec, 3.2, 1), 50_000)
	onMeanCycles := 1e9 * 3.2 / (1e8 / 0.25)
	long := 0
	for i := 1; i < len(at); i++ {
		if float64(at[i]-at[i-1]) > 20*onMeanCycles {
			long++
		}
	}
	if long == 0 {
		t.Error("bursty stream produced no long silent gaps")
	}
}

func TestDiurnalMixFollowsPhases(t *testing.T) {
	spec := ArrivalSpec{Kind: Diurnal, Phases: []Phase{
		{RateRPS: 2e8, DurationNS: 10_000, Mix: MixPeak},
		{RateRPS: 2e8, DurationNS: 10_000, Mix: MixFlat},
	}}
	p := newProcess(spec, 3.2, 5)
	seen := map[string]bool{}
	for i := 0; i < 20_000; i++ {
		_, mix := p.next()
		seen[mix] = true
	}
	if !seen[MixPeak] || !seen[MixFlat] {
		t.Errorf("diurnal phases did not surface both mixes: %v", seen)
	}
}

func TestCohortSpansPartitionFootprint(t *testing.T) {
	geom, policy := testGeomPolicy(t)
	spec := CohortSpec{Tenants: 1000, Attacker: &AttackerSpec{Fraction: 0.1}}
	c, err := NewCohort(spec, geom, policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Parties(), 1001; got != want {
		t.Fatalf("parties = %d, want %d", got, want)
	}
	rows := int(0.5 * float64(geom.RowsPerBank))
	if got := int(c.spanHi[len(c.spanHi)-1] - c.spanLo[0]); got != rows {
		t.Errorf("spans cover %d rows, want %d", got, rows)
	}
	for k := 1; k < c.Parties(); k++ {
		if c.spanLo[k] != c.spanHi[k-1] {
			t.Fatalf("gap or overlap between spans %d and %d", k-1, k)
		}
		if c.spanHi[k] <= c.spanLo[k] {
			t.Fatalf("empty span %d", k)
		}
	}
	// Zipf sizing: tenant 0 largest, sizes non-increasing (modulo the
	// 1-row floor at the tail).
	if c.spanHi[0]-c.spanLo[0] < c.spanHi[1]-c.spanLo[1] {
		t.Error("tenant 0 smaller than tenant 1 under Zipf sizing")
	}
	// Ownership agrees with the spans, boundaries included.
	for k := 0; k < c.Parties(); k += 100 {
		if got := c.ownerOf(int(c.spanLo[k])); got != k {
			t.Errorf("ownerOf(spanLo[%d]) = %d", k, got)
		}
		if got := c.ownerOf(int(c.spanHi[k]) - 1); got != k {
			t.Errorf("ownerOf(spanHi[%d]-1) = %d", k, got)
		}
	}
	if c.ownerOf(int(c.spanLo[0])-1) != -1 || c.ownerOf(int(c.spanHi[c.Parties()-1])) != -1 {
		t.Error("rows outside the footprint found an owner")
	}
}

func TestCohortDrawStaysInFootprintAndIsDeterministic(t *testing.T) {
	geom, policy := testGeomPolicy(t)
	spec := CohortSpec{Tenants: 64}
	a, err := NewCohort(spec, geom, policy, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewCohort(spec, geom, policy, 9)
	writes := 0
	for i := 0; i < 20_000; i++ {
		ra, rb := a.Draw(), b.Draw()
		if ra != rb {
			t.Fatalf("draw %d differs between identical cohorts: %+v vs %+v", i, ra, rb)
		}
		coord := policy.Decode(ra.Addr)
		if own := a.ownerOf(coord.Row); own < 0 {
			t.Fatalf("draw %d row %d outside every span", i, coord.Row)
		}
		if ra.Write {
			writes++
		}
	}
	// WriteFrac defaults to 0.3.
	if frac := float64(writes) / 20_000; math.Abs(frac-0.3) > 0.02 {
		t.Errorf("write fraction %.3f, want ~0.3", frac)
	}
}

func TestCohortAttribution(t *testing.T) {
	geom, policy := testGeomPolicy(t)
	c, err := NewCohort(CohortSpec{Tenants: 4, FootprintFrac: 0.25}, geom, policy, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo0, hi0 := int(c.spanLo[0]), int(c.spanHi[0])
	c.OnActivate(0, lo0)
	c.OnActivate(1, hi0-1)
	c.OnActivate(0, lo0-1) // outside every span
	// A refresh range straddling tenants 0 and 1.
	c.OnRefresh(0, hi0-2, hi0+1)
	stats := c.Stats(nil)
	if stats[0].Acts != 2 || stats[1].Acts != 0 {
		t.Errorf("acts = %d/%d, want 2/0", stats[0].Acts, stats[1].Acts)
	}
	if stats[0].RowsRefreshed != 2 || stats[1].RowsRefreshed != 2 {
		t.Errorf("rows refreshed = %d/%d, want 2/2", stats[0].RowsRefreshed, stats[1].RowsRefreshed)
	}
	if acts, _ := c.UnownedActs(); acts != 1 {
		t.Errorf("unowned acts = %d, want 1", acts)
	}
}

// fakeOracle drives Stats' exposure attribution without a real run.
type fakeOracle struct{ events [][3]int } // bank, row, missed(0/1)

func (f fakeOracle) VisitExposed(fn func(bank, row int, missed bool)) {
	for _, e := range f.events {
		fn(e[0], e[1], e[2] == 1)
	}
}

func TestCohortStatsFoldOracleExposure(t *testing.T) {
	geom, policy := testGeomPolicy(t)
	c, err := NewCohort(CohortSpec{Tenants: 2, FootprintFrac: 0.25}, geom, policy, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo1 := int(c.spanLo[1])
	stats := c.Stats(fakeOracle{events: [][3]int{
		{0, lo1, 1},
		{0, lo1 + 1, 0},
		{0, 0, 1}, // outside the footprint: dropped
	}})
	if stats[1].ExposedRows != 2 || stats[1].MissedRows != 1 {
		t.Errorf("tenant 1 exposure = %d/%d, want 2 exposed / 1 missed",
			stats[1].ExposedRows, stats[1].MissedRows)
	}
	if stats[0].ExposedRows != 0 {
		t.Errorf("tenant 0 exposure = %d, want 0", stats[0].ExposedRows)
	}
}

func TestCohortAttackerDrawsHammerRows(t *testing.T) {
	geom, policy := testGeomPolicy(t)
	spec := CohortSpec{Tenants: 8, Attacker: &AttackerSpec{
		Fraction: 0.5, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided,
	}}
	c, err := NewCohort(spec, geom, policy, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The benign selection tables never pick the attacker party, so any
	// draw landing in its span came through the attacker path (Heavy mode
	// routes 25% of attacker traffic to its own cover footprint). With a
	// 50% attacker fraction that is ~2500 of 20000 draws.
	attacker := c.Parties() - 1
	inAttackerSpan := 0
	for i := 0; i < 20_000; i++ {
		coord := policy.Decode(c.Draw().Addr)
		if c.ownerOf(coord.Row) == attacker {
			inAttackerSpan++
		}
	}
	if inAttackerSpan < 1000 {
		t.Errorf("only %d draws in the attacker span, want the Heavy cover share (~2500)", inAttackerSpan)
	}
	// And the same spec without an attacker never touches that span.
	benign, err := NewCohort(CohortSpec{Tenants: 8}, geom, policy, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5_000; i++ {
		coord := policy.Decode(benign.Draw().Addr)
		if t2 := benign.ownerOf(coord.Row); t2 < 0 {
			t.Fatalf("benign draw %d landed outside every span", i)
		}
	}
}

func TestConfigStringCanonicalAndPure(t *testing.T) {
	cfg := Config{Name: "ol-bursty", Requests: 100,
		Arrival: ArrivalSpec{Kind: Bursty, RateRPS: 1e8},
		Cohort:  CohortSpec{Tenants: 10, Attacker: &AttackerSpec{Fraction: 0.1}},
	}
	s1 := cfg.String()
	if cfg.Sources != 0 || cfg.Cohort.ZipfS != 0 {
		t.Fatal("String mutated the config in place")
	}
	if s1 != cfg.String() {
		t.Error("String is not stable")
	}
	if strings.Contains(s1, "0x") {
		t.Errorf("String leaks a pointer: %q", s1)
	}
	other := cfg
	other.Cohort.Attacker = &AttackerSpec{Fraction: 0.2}
	if other.String() == s1 {
		t.Error("attacker change did not change the canonical form")
	}
}

// TestConfigEqualMatchesString checks Equal against the canonical form it
// stands in for: two configs are Equal exactly when their String forms
// match. Each pair differs in one field, with defaults spelled out on one
// side and left implicit on the other, or in a field String ignores.
func TestConfigEqualMatchesString(t *testing.T) {
	bursty := Config{Name: "ol-bursty", Requests: 100,
		Arrival: ArrivalSpec{Kind: Bursty, RateRPS: 1e8},
		Cohort:  CohortSpec{Tenants: 10, Attacker: &AttackerSpec{Fraction: 0.1}},
	}
	diurnal := Config{Requests: 100,
		Arrival: ArrivalSpec{Kind: Diurnal, Phases: []Phase{
			{RateRPS: 2e8, DurationNS: 1000, Mix: MixPeak},
			{RateRPS: 0, DurationNS: 500},
		}},
		Cohort: CohortSpec{Tenants: 10},
	}
	poisson := Config{Requests: 100, Arrival: ArrivalSpec{Kind: Poisson, RateRPS: 1e8}, Cohort: CohortSpec{Tenants: 10}}
	edit := func(c Config, f func(*Config)) Config {
		c.Arrival.Phases = append([]Phase(nil), c.Arrival.Phases...)
		if c.Cohort.Attacker != nil {
			a := *c.Cohort.Attacker
			c.Cohort.Attacker = &a
		}
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		a    Config
		edit func(*Config)
		want bool
	}{
		{"copy", bursty, func(c *Config) {}, true},
		{"sources default", bursty, func(c *Config) { c.Sources = 1 }, true},
		{"sources", bursty, func(c *Config) { c.Sources = 2 }, false},
		{"name", bursty, func(c *Config) { c.Name = "" }, false},
		{"requests", bursty, func(c *Config) { c.Requests = 101 }, false},
		{"kind", bursty, func(c *Config) { c.Arrival.Kind = Poisson }, false},
		{"rate", bursty, func(c *Config) { c.Arrival.RateRPS = 2e8 }, false},
		{"duty default", bursty, func(c *Config) { c.Arrival.OnFrac = 0.25 }, true},
		{"duty", bursty, func(c *Config) { c.Arrival.OnFrac = 0.5 }, false},
		{"burst default", bursty, func(c *Config) { c.Arrival.MeanBurstNS = 50_000 }, true},
		{"burst", bursty, func(c *Config) { c.Arrival.MeanBurstNS = 60_000 }, false},
		{"poisson ignores duty", poisson, func(c *Config) { c.Arrival.OnFrac = 0.5 }, true},
		{"poisson ignores phases", poisson, func(c *Config) { c.Arrival.Phases = diurnal.Arrival.Phases }, true},
		{"tenants", bursty, func(c *Config) { c.Cohort.Tenants = 11 }, false},
		{"zipf default", bursty, func(c *Config) { c.Cohort.ZipfS = 1.1 }, true},
		{"zipf", bursty, func(c *Config) { c.Cohort.ZipfS = 1.2 }, false},
		{"footprint default", bursty, func(c *Config) { c.Cohort.FootprintFrac = 0.5 }, true},
		{"footprint", bursty, func(c *Config) { c.Cohort.FootprintFrac = 0.25 }, false},
		{"write default", bursty, func(c *Config) { c.Cohort.WriteFrac = 0.3 }, true},
		{"write", bursty, func(c *Config) { c.Cohort.WriteFrac = 0.4 }, false},
		{"row skew default", bursty, func(c *Config) { c.Cohort.RowSkew = 3 }, true},
		{"row skew", bursty, func(c *Config) { c.Cohort.RowSkew = 2 }, false},
		{"no attacker", bursty, func(c *Config) { c.Cohort.Attacker = nil }, false},
		{"attacker fraction", bursty, func(c *Config) { c.Cohort.Attacker.Fraction = 0.2 }, false},
		{"attacker kernel", bursty, func(c *Config) { c.Cohort.Attacker.Kernel = 2 }, false},
		{"attacker mode", bursty, func(c *Config) { c.Cohort.Attacker.Mode = trace.Light }, false},
		{"attacker pattern", bursty, func(c *Config) { c.Cohort.Attacker.Pattern = trace.PatternManySided }, false},
		{"phases copy", diurnal, func(c *Config) {}, true},
		{"base mix spelled out", diurnal, func(c *Config) { c.Arrival.Phases[1].Mix = MixBase }, true},
		{"phase mix", diurnal, func(c *Config) { c.Arrival.Phases[1].Mix = MixFlat }, false},
		{"phase rate", diurnal, func(c *Config) { c.Arrival.Phases[0].RateRPS = 3e8 }, false},
		{"phase rate sign", diurnal, func(c *Config) { c.Arrival.Phases[1].RateRPS = math.Copysign(0, -1) }, false},
		{"phase duration", diurnal, func(c *Config) { c.Arrival.Phases[1].DurationNS = 600 }, false},
		{"phase count", diurnal, func(c *Config) { c.Arrival.Phases = c.Arrival.Phases[:1] }, false},
	} {
		b := edit(tc.a, tc.edit)
		sameString := tc.a.String() == b.String()
		if sameString != tc.want {
			t.Fatalf("%s: String forms %q and %q: equal = %v, want %v", tc.name, tc.a, b, sameString, tc.want)
		}
		if got := tc.a.Equal(b); got != tc.want {
			t.Errorf("%s: Equal = %v, want %v (String forms %q and %q)", tc.name, got, tc.want, tc.a, b)
		}
		if got := b.Equal(tc.a); got != tc.want {
			t.Errorf("%s: Equal is not symmetric", tc.name)
		}
	}
}

func TestBuildSplitsBudgetAndRate(t *testing.T) {
	geom, policy := testGeomPolicy(t)
	cfg := Config{Sources: 3, Requests: 10,
		Arrival: ArrivalSpec{Kind: Poisson, RateRPS: 3e8},
		Cohort:  CohortSpec{Tenants: 16},
	}
	rt, err := cfg.Build(geom, policy, 3.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.Counts, []int{4, 3, 3}) {
		t.Errorf("budgets = %v, want [4 3 3]", rt.Counts)
	}
	if got := rt.Sources[0].proc.spec.RateRPS; got != 1e8 {
		t.Errorf("per-source rate = %g, want 1e8", got)
	}
	// Sources advance independently but share the cohort.
	r0, at0 := rt.Sources[0].Next()
	if at0 < 0 || r0.Addr < 0 {
		t.Errorf("bad first arrival: %+v at %d", r0, at0)
	}
	if rt.Sources[0].cohort != rt.Sources[1].cohort {
		t.Error("sources do not share the cohort")
	}
}

func TestLookupAndValidate(t *testing.T) {
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "ol-bursty") {
		t.Errorf("Lookup error should list presets, got %v", err)
	}
	for _, name := range Names() {
		cfg, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Requests != 0 {
			t.Errorf("%s: presets leave Requests to the caller", name)
		}
		cfg.Requests = 1
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := Config{Requests: 1, Arrival: ArrivalSpec{Kind: Poisson, RateRPS: 1e8},
		Cohort: CohortSpec{Tenants: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-tenant cohort validated")
	}
}
