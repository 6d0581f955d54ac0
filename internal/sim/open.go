package sim

import (
	"fmt"

	"catsim/internal/addrmap"
	"catsim/internal/cpu"
	"catsim/internal/engine"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// This file builds the request streams a run consumes — closed-loop
// per-core generators, open-loop arrival sources, and their replay
// counterparts — and implements Capture, which records the exact request
// sequence a live run would draw into a versioned trace container.

func (c *Config) buildPolicy() (addrmap.Policy, error) {
	if c.ChannelInterleaved {
		return addrmap.NewChannelInterleaved(c.Geometry)
	}
	return addrmap.NewRowInterleaved(c.Geometry)
}

// openConfig resolves the effective open-loop workload: a zero request
// budget defaults to RequestsPerCore per source, so open-loop runs scale
// with the same knob as closed-loop ones.
func (c *Config) openConfig() workload.Config {
	ol := *c.OpenLoop
	if ol.Sources == 0 {
		ol.Sources = 1
	}
	if ol.Requests == 0 {
		ol.Requests = c.RequestsPerCore * ol.Sources
	}
	return ol
}

// closedStream is core i's generator stack with every resettable layer
// exposed: run contexts rewind the synthetic stream, attack blend and
// phase switch in place to replay a different seed without rebuilding
// (attack target tables are run-seed-independent, so they survive reuse).
type closedStream struct {
	idx    int // global core index (seed offset, affine channel)
	syn    *trace.Synthetic
	attack *trace.Attack // nil without an attack blend
	phased *trace.Phased // nil without an onset delay
	gen    trace.Generator
}

// coreSeed is core i's synthetic-stream seed for a run seed.
func coreSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x1000193 }

// reseed rewinds every layer of the stack to the state closedStream(cfg
// with the given seed) would build.
func (cs *closedStream) reseed(seed uint64) {
	cs.syn.Reseed(coreSeed(seed, cs.idx))
	if cs.attack != nil {
		cs.attack.Reset()
	}
	if cs.phased != nil {
		cs.phased.Reset()
	}
}

// closedStream builds core i's generator stack: the synthetic workload
// stream, optionally wrapped in the kernel-attack blend, the onset-delaying
// phase switch, and — under ChannelAffine — the channel-pinning remap,
// keeping a handle on each resettable layer (see closedStream the type).
// Pinning wraps outermost so attack traffic is pinned too, and so Capture
// records the pinned addresses: a captured affine run replays
// byte-identically without re-pinning.
func (c *Config) closedStream(policy addrmap.Policy, i int) (closedStream, error) {
	spec := c.Workload
	if c.WorkloadPerCore != nil {
		spec = c.WorkloadPerCore[i]
	}
	cs := closedStream{idx: i}
	syn, err := trace.NewSynthetic(spec, c.Geometry.TotalBytes(),
		c.Geometry.LineBytes, coreSeed(c.Seed, i))
	if err != nil {
		return cs, err
	}
	cs.syn = syn
	var gen trace.Generator = syn
	if c.Attack != nil {
		attack, err := trace.NewAttackPattern(c.Attack.Kernel, c.Attack.Mode,
			c.Attack.Pattern, c.Geometry, policy, syn)
		if err != nil {
			return cs, err
		}
		cs.attack = attack
		gen = attack
		if c.AttackOnsetFrac > 0 {
			// The benign prefix draws from the plain synthetic stream; the
			// blend (which wraps the same stream) takes over at the onset
			// point.
			onset := int64(c.AttackOnsetFrac * float64(c.RequestsPerCore))
			phased, err := trace.NewPhased(onset, syn, attack)
			if err != nil {
				return cs, err
			}
			cs.phased = phased
			gen = phased
		}
	}
	if c.ChannelAffine {
		gen = &affineGen{gen: gen, policy: policy, ch: i % c.Geometry.Channels}
	}
	cs.gen = gen
	return cs, nil
}

// drawClosed builds each core's generator stack in turn and draws its
// RequestsPerCore requests in order — exactly the sequence a live run
// feeds the engine — handing each to emit with its core index and
// generator. It stops early, reporting false, when emit returns false.
// Capture and Recording.Record both walk the streams through it.
func (c *Config) drawClosed(policy addrmap.Policy, emit func(core int, gen trace.Generator, req trace.Request) bool) (bool, error) {
	for i := 0; i < c.Cores; i++ {
		cs, err := c.closedStream(policy, i)
		if err != nil {
			return false, err
		}
		for k := 0; k < c.RequestsPerCore; k++ {
			if !emit(i, cs.gen, cs.gen.Next()) {
				return false, nil
			}
		}
	}
	return true, nil
}

// replayStreams turns a captured container back into engine sources:
// closed streams become cores (budgets from the capture), open streams
// become single-shot arrival slots. When an OpenLoop spec rides along, its
// cohort is rebuilt — deterministically, drawing no randomness — so the
// replay attributes the identical ownership table.
func (c *Config) replayStreams(policy addrmap.Policy) ([]engine.CoreSlot, []engine.OpenSlot, *workload.Cohort, error) {
	var slots []engine.CoreSlot
	var open []engine.OpenSlot
	for i := range c.Replay.Streams {
		s := &c.Replay.Streams[i]
		if s.Open {
			or, err := s.OpenReplay()
			if err != nil {
				return nil, nil, nil, err
			}
			open = append(open, engine.OpenSlot{Gen: or, Requests: len(s.Reqs)})
			continue
		}
		core, err := cpu.NewCore(c.Window)
		if err != nil {
			return nil, nil, nil, err
		}
		gen, err := s.Generator()
		if err != nil {
			return nil, nil, nil, err
		}
		slots = append(slots, engine.CoreSlot{CPU: core, Gen: gen, Requests: len(s.Reqs)})
	}
	var cohort *workload.Cohort
	if c.OpenLoop != nil {
		var err error
		cohort, err = workload.NewCohort(c.openConfig().Cohort, c.Geometry, policy, c.Seed)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return slots, open, cohort, nil
}

// Capture records the exact request sequence Run would feed the engine —
// without simulating the memory system — into a trace container that
// replays byte-identically under any scheme spec. Closed-loop streams are
// captured sequentially (each core draws its own generator in order).
// Open-loop sources share the cohort's RNG streams, so their draw order
// matters: the engine interleaves them by (arrival time, slot index), and
// the capture merges the sources in exactly that order, applying the same
// monotonicity clamp.
func Capture(cfg Config) (*trace.Container, error) {
	cfg.fill()
	if cfg.Replay != nil {
		return nil, fmt.Errorf("sim: cannot capture from a replay config")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy, err := cfg.buildPolicy()
	if err != nil {
		return nil, err
	}
	c := &trace.Container{Geometry: cfg.Geometry}
	if _, err := cfg.drawClosed(policy, func(i int, gen trace.Generator, req trace.Request) bool {
		if i == len(c.Streams) {
			c.Streams = append(c.Streams, trace.Stream{
				Name: fmt.Sprintf("core%d:%s", i, gen.Name()),
				Reqs: make([]trace.Request, 0, cfg.RequestsPerCore),
			})
		}
		c.Streams[i].Reqs = append(c.Streams[i].Reqs, req)
		return true
	}); err != nil {
		return nil, err
	}
	if cfg.OpenLoop == nil {
		return c, nil
	}
	cpuNS := 1000.0 / (float64(cfg.Timing.BusMHz) * float64(cfg.CPUPerBus))
	rt, err := cfg.openConfig().Build(cfg.Geometry, policy, 1/cpuNS, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := len(rt.Sources)
	streams := make([]trace.Stream, n)
	pend := make([]trace.Request, n)
	pendAt := make([]int64, n)
	left := make([]int, n)
	remaining := 0
	for j, src := range rt.Sources {
		streams[j] = trace.Stream{Name: src.Name(), Open: true}
		left[j] = rt.Counts[j]
		remaining += left[j]
		// Initial draws happen in slot order, exactly like the engine's
		// pending-state setup.
		pend[j], pendAt[j] = src.Next()
	}
	for ; remaining > 0; remaining-- {
		best := -1
		for j := 0; j < n; j++ {
			if left[j] > 0 && (best < 0 || pendAt[j] < pendAt[best]) {
				best = j // strict <: ties go to the lower index, like the scheduler
			}
		}
		j := best
		streams[j].Reqs = append(streams[j].Reqs, pend[j])
		streams[j].Arrivals = append(streams[j].Arrivals, pendAt[j])
		left[j]--
		if left[j] == 0 {
			continue
		}
		req, at := rt.Sources[j].Next()
		if at < pendAt[j] {
			// The engine clamps non-monotone sources; capture must too.
			at = pendAt[j]
		}
		pend[j], pendAt[j] = req, at
	}
	c.Streams = append(c.Streams, streams...)
	return c, nil
}
