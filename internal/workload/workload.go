package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/trace"
)

// Config is one open-loop workload: an arrival process fanned out over
// one or more sources, all drawing requests from a shared tenant cohort.
// It is the unit sim.Config.OpenLoop attaches and the unit the presets
// name.
type Config struct {
	// Name labels the workload in reports ("" for ad-hoc configs).
	Name string
	// Sources is the number of parallel arrival streams; the configured
	// rate is split evenly across them (0 selects 1). Each source gets its
	// own arrival RNG stream but all share the cohort, so tenant selection
	// is globally consistent.
	Sources int
	// Requests is the total request budget across all sources.
	Requests int

	Arrival ArrivalSpec
	Cohort  CohortSpec
}

// withDefaults returns a copy with zero fields resolved, leaving the
// receiver untouched (Configs are shared by pointer from sim.Config, so
// canonicalisation must not mutate in place).
func (c Config) withDefaults() Config {
	if c.Sources == 0 {
		c.Sources = 1
	}
	c.Arrival.fill()
	c.Cohort.fill()
	return c
}

// Validate checks the config without building it.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Sources < 1 {
		return fmt.Errorf("workload: need at least one source, got %d", c.Sources)
	}
	if c.Requests < 1 {
		return fmt.Errorf("workload: need at least one request, got %d", c.Requests)
	}
	if err := c.Arrival.validate(); err != nil {
		return err
	}
	return c.Cohort.validate()
}

// String is the canonical form sim.CacheKey embeds: defaults resolved,
// fields in a fixed order, no pointer identities.
func (c Config) String() string {
	c = c.withDefaults()
	var b strings.Builder
	if c.Name != "" {
		fmt.Fprintf(&b, "%s|", c.Name)
	}
	fmt.Fprintf(&b, "src=%d,req=%d|%s|%s", c.Sources, c.Requests, c.Arrival, c.Cohort)
	return b.String()
}

// Equal reports whether c and d have the same String form, without
// formatting either: defaults resolved, floats compared by bits, the
// attacker by value and diurnal phases element by element. As in String,
// an arrival field the spec's kind does not use is ignored. Run contexts
// use it to decide whether a built runtime serves the next run.
func (c Config) Equal(d Config) bool {
	c, d = c.withDefaults(), d.withDefaults()
	return c.Name == d.Name && c.Sources == d.Sources && c.Requests == d.Requests &&
		c.Arrival.equal(d.Arrival) && c.Cohort.equal(d.Cohort)
}

// sameBits reports whether two floats print alike under %g: equal bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Source couples one arrival process with the shared cohort; it is the
// engine-facing open-loop stream (engine.OpenSource).
type Source struct {
	name   string
	proc   *process
	cohort *Cohort
}

// Name implements the engine's open-source interface.
func (s *Source) Name() string { return s.name }

// Next returns the next request and its arrival time in CPU cycles.
// Arrival times are non-decreasing; the request is drawn from the cohort
// under the arrival phase's tenant-mix profile.
func (s *Source) Next() (trace.Request, int64) {
	at, mix := s.proc.next()
	s.cohort.setMix(mixIndex(mix))
	return s.cohort.Draw(), at
}

// Runtime is a built open-loop workload: the shared cohort plus one
// Source and request budget per configured arrival stream.
type Runtime struct {
	Cohort  *Cohort
	Sources []*Source
	// Counts[i] is Sources[i]'s request budget; the budgets sum to
	// Config.Requests with the remainder spread over the first sources.
	Counts []int
}

// Reset rewinds a built runtime to the state Build would produce for the
// same config, geometry and policy with the given seed, without
// allocating: the cohort and every source's arrival process re-seed in
// place with the formulas Build uses. Request budgets (Counts) are
// config-determined and stand. Run contexts use it to reuse open-loop
// runtimes across seed-sweep runs.
func (rt *Runtime) Reset(seed uint64) {
	rt.Cohort.Reset(seed)
	for i, s := range rt.Sources {
		s.proc.reset(arrivalSeed(seed, i))
	}
}

// arrivalSeed is source i's arrival-process seed for a run seed.
func arrivalSeed(seed uint64, i int) uint64 {
	return seed ^ arrivalSeedMix ^ (uint64(i)+1)*0x2545F4914F6CDD1D
}

// Build instantiates the workload for a geometry and mapping policy.
// cyclesPerNS converts the spec's nanosecond rates into the engine's CPU
// cycles. Building draws no randomness, so a replay run can rebuild the
// cohort for attribution and see the identical ownership table.
func (c Config) Build(geom dram.Geometry, policy addrmap.Policy, cyclesPerNS float64, seed uint64) (*Runtime, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cohort, err := NewCohort(c.Cohort, geom, policy, seed)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Cohort: cohort}
	per := c.Arrival.split(c.Sources)
	for i := 0; i < c.Sources; i++ {
		proc := newProcess(per, cyclesPerNS, arrivalSeed(seed, i))
		n := c.Requests / c.Sources
		if i < c.Requests%c.Sources {
			n++
		}
		rt.Sources = append(rt.Sources, &Source{
			name:   fmt.Sprintf("%s#%d", c.label(), i),
			proc:   proc,
			cohort: cohort,
		})
		rt.Counts = append(rt.Counts, n)
	}
	return rt, nil
}

func (c Config) label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Arrival.Kind.String()
}

// split scales the spec's rates down to one of n parallel sources.
func (s ArrivalSpec) split(n int) ArrivalSpec {
	if n <= 1 {
		return s
	}
	s.RateRPS /= float64(n)
	if len(s.Phases) > 0 {
		phases := make([]Phase, len(s.Phases))
		copy(phases, s.Phases)
		for i := range phases {
			phases[i].RateRPS /= float64(n)
		}
		s.Phases = phases
	}
	return s
}

// Presets returns the named open-loop workloads. Rates are sized so the
// default 2-channel system runs at roughly the closed-loop model's
// memory-intensive throughput (~1.4e8 requests/s per core-equivalent);
// Requests is zero — callers size the budget to their run length.
func Presets() []Config {
	diurnalPhases := []Phase{
		{RateRPS: 4.2e8, DurationNS: 400_000, Mix: MixPeak},
		{RateRPS: 2.8e8, DurationNS: 800_000, Mix: MixBase},
		{RateRPS: 0.7e8, DurationNS: 400_000, Mix: MixFlat},
	}
	return []Config{
		{
			Name:    "ol-poisson",
			Sources: 2,
			Arrival: ArrivalSpec{Kind: Poisson, RateRPS: 2.8e8},
			Cohort:  CohortSpec{Tenants: 2000},
		},
		{
			Name:    "ol-bursty",
			Sources: 2,
			Arrival: ArrivalSpec{Kind: Bursty, RateRPS: 2.8e8, OnFrac: 0.25, MeanBurstNS: 50_000},
			Cohort:  CohortSpec{Tenants: 2000},
		},
		{
			Name:    "ol-diurnal",
			Sources: 2,
			Arrival: ArrivalSpec{Kind: Diurnal, Phases: diurnalPhases},
			Cohort:  CohortSpec{Tenants: 2000},
		},
		{
			Name:    "ol-mixed-attack",
			Sources: 2,
			Arrival: ArrivalSpec{Kind: Bursty, RateRPS: 2.8e8, OnFrac: 0.25, MeanBurstNS: 50_000},
			Cohort: CohortSpec{Tenants: 2000, Attacker: &AttackerSpec{
				Fraction: 0.1, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided,
			}},
		},
	}
}

// Names lists the preset names, sorted.
func Names() []string {
	var out []string
	for _, c := range Presets() {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a preset by name.
func Lookup(name string) (Config, error) {
	for _, c := range Presets() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("workload: unknown open-loop workload %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}
