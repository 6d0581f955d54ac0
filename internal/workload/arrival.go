// Package workload layers production-shaped traffic on top of the
// closed-loop per-core streams in internal/trace: open-loop arrival
// processes (Poisson, bursty on/off, diurnal multi-phase) that stamp each
// request with an absolute arrival time instead of a retire-driven gap,
// and multi-tenant cohorts — thousands of tenants with Zipf-skewed row
// footprints drawn from partitioned per-tenant RNG streams, optionally
// hiding one attacker tenant that drives the trace package's kernel
// attack patterns. The engine consumes the combined stream through its
// open-slot scheduler; per-tenant attribution (activations, refreshed
// rows, oracle exposure) flows back into sim.Result.Tenants.
//
// Everything here is deterministic under a seed: a Config has a canonical
// String form that sim.CacheKey embeds, and a captured trace replays to a
// byte-identical Result because attribution is region-centric (ownership
// of the rows an event touched), never issuer-centric.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"catsim/internal/rng"
)

// ArrivalKind names an open-loop arrival process family.
type ArrivalKind int

// Arrival process families.
const (
	// Poisson arrivals: exponential interarrival times at a fixed rate.
	Poisson ArrivalKind = iota
	// Bursty arrivals: an on/off Markov process — exponential bursts at an
	// elevated rate separated by silent gaps, with a configured duty cycle
	// so the long-run mean rate matches RateRPS.
	Bursty
	// Diurnal arrivals: a repeating schedule of phases, each with its own
	// rate and tenant-mix profile (the load curve a service sees over a
	// day, compressed to simulation scale).
	Diurnal
)

func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// Mix profiles select how a phase skews tenant popularity: MixBase keeps
// the cohort's configured Zipf exponent, MixFlat spreads load uniformly
// (e.g. an overnight batch window) and MixPeak doubles the exponent
// (business-hours traffic concentrating on the hot tenants).
const (
	MixBase = "base"
	MixFlat = "flat"
	MixPeak = "peak"
)

// Phase is one segment of a diurnal schedule.
type Phase struct {
	// RateRPS is the arrival rate during the phase, in requests/second of
	// simulated time. A zero rate is a silent trough.
	RateRPS float64
	// DurationNS is the phase length in simulated nanoseconds.
	DurationNS float64
	// Mix selects the tenant-popularity profile for the phase ("" = base).
	Mix string
}

// ArrivalSpec describes an open-loop arrival process.
type ArrivalSpec struct {
	Kind ArrivalKind
	// RateRPS is the mean arrival rate in requests/second (Poisson and
	// Bursty; for Bursty it is the long-run mean across on and off states).
	RateRPS float64
	// OnFrac is the Bursty duty cycle: the long-run fraction of time spent
	// in the on state (0 selects 0.25). The on-state rate is RateRPS/OnFrac.
	OnFrac float64
	// MeanBurstNS is the mean on-state duration in simulated nanoseconds
	// (0 selects 50_000 ns).
	MeanBurstNS float64
	// Phases is the repeating diurnal schedule (Diurnal only).
	Phases []Phase
}

func (s *ArrivalSpec) fill() {
	if s.Kind == Bursty {
		if s.OnFrac == 0 {
			s.OnFrac = 0.25
		}
		if s.MeanBurstNS == 0 {
			s.MeanBurstNS = 50_000
		}
	}
}

// positive reports whether v is a finite positive number; NaN and +Inf
// fail, so every range check written with it rejects non-finite values.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

func (s ArrivalSpec) validate() error {
	switch s.Kind {
	case Poisson:
		if !positive(s.RateRPS) {
			return fmt.Errorf("workload: poisson arrivals need a finite positive rate, got %g", s.RateRPS)
		}
	case Bursty:
		if !positive(s.RateRPS) {
			return fmt.Errorf("workload: bursty arrivals need a finite positive rate, got %g", s.RateRPS)
		}
		if !(s.OnFrac > 0 && s.OnFrac <= 1) {
			return fmt.Errorf("workload: bursty duty cycle %g out of (0, 1]", s.OnFrac)
		}
		if !positive(s.MeanBurstNS) {
			return fmt.Errorf("workload: bursty mean burst %g ns must be finite and positive", s.MeanBurstNS)
		}
	case Diurnal:
		if len(s.Phases) == 0 {
			return fmt.Errorf("workload: diurnal arrivals need at least one phase")
		}
		anyRate := false
		for i, p := range s.Phases {
			if !positive(p.DurationNS) {
				return fmt.Errorf("workload: diurnal phase %d needs a finite positive duration, got %g ns", i, p.DurationNS)
			}
			if p.RateRPS != 0 && !positive(p.RateRPS) {
				return fmt.Errorf("workload: diurnal phase %d needs a finite non-negative rate, got %g", i, p.RateRPS)
			}
			switch p.Mix {
			case "", MixBase, MixFlat, MixPeak:
			default:
				return fmt.Errorf("workload: diurnal phase %d has unknown mix %q", i, p.Mix)
			}
			anyRate = anyRate || p.RateRPS > 0
		}
		if !anyRate {
			return fmt.Errorf("workload: diurnal schedule has no phase with a positive rate")
		}
	default:
		return fmt.Errorf("workload: unknown arrival kind %d", int(s.Kind))
	}
	return nil
}

// String renders the spec in the grammar ParseArrival accepts — a
// canonical form safe to embed in sim.CacheKey (no pointers, stable field
// order).
func (s ArrivalSpec) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	switch s.Kind {
	case Poisson:
		fmt.Fprintf(&b, ":rate=%g", s.RateRPS)
	case Bursty:
		fmt.Fprintf(&b, ":rate=%g,on=%g,burst=%g", s.RateRPS, s.OnFrac, s.MeanBurstNS)
	case Diurnal:
		b.WriteString(":phases=")
		for i, p := range s.Phases {
			if i > 0 {
				b.WriteByte('/')
			}
			fmt.Fprintf(&b, "%gx%g", p.RateRPS, p.DurationNS)
			if mix := printedMix(p.Mix); mix != "" {
				b.WriteByte(':')
				b.WriteString(mix)
			}
		}
	}
	return b.String()
}

// equal reports whether s and o have the same String form (see
// Config.Equal).
func (s ArrivalSpec) equal(o ArrivalSpec) bool {
	if s.Kind != o.Kind {
		return false
	}
	switch s.Kind {
	case Poisson:
		return sameBits(s.RateRPS, o.RateRPS)
	case Bursty:
		return sameBits(s.RateRPS, o.RateRPS) && sameBits(s.OnFrac, o.OnFrac) &&
			sameBits(s.MeanBurstNS, o.MeanBurstNS)
	case Diurnal:
		if len(s.Phases) != len(o.Phases) {
			return false
		}
		for i, p := range s.Phases {
			q := o.Phases[i]
			if !sameBits(p.RateRPS, q.RateRPS) || !sameBits(p.DurationNS, q.DurationNS) ||
				printedMix(p.Mix) != printedMix(q.Mix) {
				return false
			}
		}
	}
	return true
}

// printedMix is the mix as String prints it: the base mix is left out.
func printedMix(mix string) string {
	if mix == MixBase {
		return ""
	}
	return mix
}

// ParseArrival parses the arrival-spec grammar:
//
//	poisson:rate=<rps>
//	bursty:rate=<rps>[,on=<duty>][,burst=<ns>]
//	diurnal:phases=<rps>x<ns>[:<mix>][/<rps>x<ns>[:<mix>]...]
//
// Rates are requests per second of simulated time, durations simulated
// nanoseconds, mix one of base/flat/peak. A parameter the kind does not
// use is an error, and the base mix reads as "" (its String form), so
// every accepted spec round-trips through String.
func ParseArrival(s string) (ArrivalSpec, error) {
	var spec ArrivalSpec
	head, rest, _ := strings.Cut(s, ":")
	switch head {
	case "poisson":
		spec.Kind = Poisson
	case "bursty":
		spec.Kind = Bursty
	case "diurnal":
		spec.Kind = Diurnal
	default:
		return spec, fmt.Errorf("workload: unknown arrival kind %q (want poisson, bursty or diurnal)", head)
	}
	if rest == "" {
		return spec, fmt.Errorf("workload: arrival spec %q needs parameters after %q", s, head+":")
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("workload: arrival spec %q: parameter %q is not key=value", s, kv)
		}
		var err error
		switch {
		case key == "rate" && spec.Kind != Diurnal:
			spec.RateRPS, err = strconv.ParseFloat(val, 64)
		case key == "on" && spec.Kind == Bursty:
			spec.OnFrac, err = strconv.ParseFloat(val, 64)
		case key == "burst" && spec.Kind == Bursty:
			spec.MeanBurstNS, err = strconv.ParseFloat(val, 64)
		case key == "phases" && spec.Kind == Diurnal:
			spec.Phases, err = parsePhases(val)
		default:
			return spec, fmt.Errorf("workload: arrival spec %q: parameter %q does not apply to %s arrivals", s, key, spec.Kind)
		}
		if err != nil {
			return spec, fmt.Errorf("workload: arrival spec %q: %v", s, err)
		}
	}
	spec.fill()
	return spec, spec.validate()
}

func parsePhases(s string) ([]Phase, error) {
	var out []Phase
	for _, part := range strings.Split(s, "/") {
		body, mix, hasMix := strings.Cut(part, ":")
		rate, dur, ok := strings.Cut(body, "x")
		if !ok {
			return nil, fmt.Errorf("phase %q is not <rate>x<durationNS>", part)
		}
		var p Phase
		var err error
		if p.RateRPS, err = strconv.ParseFloat(rate, 64); err != nil {
			return nil, fmt.Errorf("phase %q: bad rate: %v", part, err)
		}
		if p.DurationNS, err = strconv.ParseFloat(dur, 64); err != nil {
			return nil, fmt.Errorf("phase %q: bad duration: %v", part, err)
		}
		if hasMix && mix != MixBase {
			p.Mix = mix
		}
		out = append(out, p)
	}
	return out, nil
}

// process turns an ArrivalSpec into a monotone stream of arrival times in
// CPU cycles. It carries the on/off and phase state machines; all
// randomness comes from its private source, so two processes with the
// same spec and seed emit identical streams.
type process struct {
	spec        ArrivalSpec
	src         rng.Xoshiro256
	cyclesPerNS float64
	now         float64 // current time, fractional CPU cycles

	// inter is the mean interarrival time in cycles: Poisson's, and
	// Bursty's in the on state. phaseInter[i] is diurnal phase i's (0
	// for a silent phase).
	inter      float64
	phaseInter []float64

	// Bursty state.
	on       bool
	stateEnd float64
	meanOn   float64 // mean on-state duration, cycles
	meanOff  float64

	// Diurnal state.
	phase    int
	phaseEnd float64
}

// newProcess derives the spec's seed-independent means, then ends in
// reset(seed).
func newProcess(spec ArrivalSpec, cyclesPerNS float64, seed uint64) *process {
	p := &process{spec: spec, cyclesPerNS: cyclesPerNS}
	switch spec.Kind {
	case Poisson:
		p.inter = p.interCycles(spec.RateRPS)
	case Bursty:
		p.inter = p.interCycles(spec.RateRPS / spec.OnFrac)
		p.meanOn = spec.MeanBurstNS * cyclesPerNS
		p.meanOff = p.meanOn * (1 - spec.OnFrac) / spec.OnFrac
	case Diurnal:
		p.phaseInter = make([]float64, len(spec.Phases))
		for i, ph := range spec.Phases {
			if ph.RateRPS > 0 {
				p.phaseInter[i] = p.interCycles(ph.RateRPS)
			}
		}
	}
	p.reset(seed)
	return p
}

// reset seeds the process for a run, without allocating: the RNG restarts
// and the per-kind state machine initialises (Bursty draws its first
// burst length here).
func (p *process) reset(seed uint64) {
	p.src.Seed(seed)
	p.now = 0
	p.on = false
	p.stateEnd = 0
	p.phase = 0
	p.phaseEnd = 0
	switch p.spec.Kind {
	case Bursty:
		p.on = true
		p.stateEnd = p.exp(p.meanOn)
	case Diurnal:
		p.phaseEnd = p.spec.Phases[0].DurationNS * p.cyclesPerNS
	}
}

// exp draws an exponential with the given mean (cycles).
func (p *process) exp(mean float64) float64 {
	// 1-Float64 is in (0, 1], so the log is finite.
	return -mean * math.Log(1-rng.Float64(&p.src))
}

// interCycles converts a rate in requests/second into a mean interarrival
// time in CPU cycles.
func (p *process) interCycles(rateRPS float64) float64 {
	return 1e9 * p.cyclesPerNS / rateRPS
}

// next returns the next arrival time in whole CPU cycles and the active
// tenant-mix profile. Arrival times are non-decreasing.
func (p *process) next() (int64, string) {
	mix := MixBase
	switch p.spec.Kind {
	case Poisson:
		p.now += p.exp(p.inter)
	case Bursty:
		for {
			if !p.on {
				// Silent gap: jump to the next burst.
				p.now = p.stateEnd
				p.on = true
				p.stateEnd = p.now + p.exp(p.meanOn)
				continue
			}
			cand := p.now + p.exp(p.inter)
			if cand <= p.stateEnd {
				p.now = cand
				break
			}
			// Burst ended before the candidate arrival: enter the gap.
			p.now = p.stateEnd
			p.on = false
			p.stateEnd = p.now + p.exp(p.meanOff)
		}
	case Diurnal:
		for {
			ph := p.spec.Phases[p.phase]
			if ph.RateRPS <= 0 {
				p.nextPhase()
				continue
			}
			cand := p.now + p.exp(p.phaseInter[p.phase])
			if cand <= p.phaseEnd {
				p.now = cand
				if ph.Mix != "" {
					mix = ph.Mix
				}
				break
			}
			p.nextPhase()
		}
	}
	return int64(p.now), mix
}

// nextPhase advances the diurnal schedule, wrapping at the end.
func (p *process) nextPhase() {
	p.now = p.phaseEnd
	p.phase = (p.phase + 1) % len(p.spec.Phases)
	p.phaseEnd = p.now + p.spec.Phases[p.phase].DurationNS*p.cyclesPerNS
}

// MeanRateRPS returns the schedule's long-run mean arrival rate — used by
// callers that scale request budgets to run lengths.
func (s ArrivalSpec) MeanRateRPS() float64 {
	if s.Kind != Diurnal {
		return s.RateRPS
	}
	var reqs, dur float64
	for _, p := range s.Phases {
		reqs += p.RateRPS * p.DurationNS
		dur += p.DurationNS
	}
	if dur == 0 {
		return 0
	}
	return reqs / dur
}

// mixIndex maps a mix profile name to the cohort's selection-table index.
func mixIndex(mix string) int {
	switch mix {
	case MixFlat:
		return 1
	case MixPeak:
		return 2
	default:
		return 0
	}
}
