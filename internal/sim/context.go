package sim

import (
	"sync"

	"catsim/internal/addrmap"
	"catsim/internal/cpu"
	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/workload"
)

// Context is a reusable run context: it owns every piece of per-run state
// a simulation builds — engine scratch memory, the memory controller's
// bank arrays, the mitigation scheme's trackers, the oracle's tables, the
// request-stream generators and their PRNG streams — and resets whatever
// still fits in place instead of rebuilding it, so a sweep that runs many
// same-shaped cells (typically differing only in seed) performs no
// steady-state allocations per run.
//
// A Context is the only way a run gets built: the package-level Run is a
// one-shot context. A reused context returns the byte-identical Result a
// brand-new one would, for every configuration and every sequence of
// configurations (locked by the context-reuse identity test): each layer
// compares the shape it was built for against the incoming config and
// rebuilds on any mismatch, and scheme reuse additionally goes through
// mitigation.Resettable, whose contract demands observational equivalence
// to a fresh build.
//
// A Result returned by Context.Run ALIASES the context (PerBankActs and
// Epochs share its scratch memory) and is valid only until the context's
// next run; call Result.Clone to retain it. A Context serves one run at a
// time — use one per worker goroutine (internal/runner pools them).
type Context struct {
	seq seqState
	sh  shardState

	label     string
	labelSpec SchemeSpec
	labelT    uint32
	hasLabel  bool
}

// NewContext returns an empty context; the first Run populates it.
func NewContext() *Context { return &Context{} }

// Run executes one simulation, reusing the context's state wherever the
// configuration shape allows.
func (ctx *Context) Run(cfg Config) (Result, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if cfg.sharded() {
		return ctx.runSharded(cfg)
	}
	return ctx.runSequential(cfg)
}

// schemeLabel caches the scheme's formatted figure label across runs of
// the same (spec, threshold) cell.
func (ctx *Context) schemeLabel(cfg *Config) string {
	if !ctx.hasLabel || ctx.labelSpec != cfg.Scheme || ctx.labelT != cfg.Threshold {
		ctx.label = cfg.Scheme.Label(cfg.Threshold)
		ctx.labelSpec, ctx.labelT, ctx.hasLabel = cfg.Scheme, cfg.Threshold, true
	}
	return ctx.label
}

// policyCache memoizes address-mapping policies process-wide: a policy is
// a pure function of (geometry, interleave flag), immutable and
// goroutine-safe after construction (sharded partitions already share one
// instance), so every context — and every cell of a runner grid — reuses
// the same table.
var policyCache sync.Map // policyKey -> addrmap.Policy

type policyKey struct {
	geom        dram.Geometry
	interleaved bool
}

func cachedPolicy(cfg *Config) (addrmap.Policy, error) {
	k := policyKey{cfg.Geometry, cfg.ChannelInterleaved}
	if v, ok := policyCache.Load(k); ok {
		return v.(addrmap.Policy), nil
	}
	p, err := cfg.buildPolicy()
	if err != nil {
		return nil, err
	}
	v, _ := policyCache.LoadOrStore(k, p)
	return v.(addrmap.Policy), nil
}

// sameStreamShape reports whether request streams built for a can be
// rewound in place to serve b: every stream-determining field except the
// seed must match (the seed is what reseed replays). Replay configs never
// share streams — their wrappers are rebuilt each run.
func sameStreamShape(a, b *Config) bool {
	if a.Replay != nil || b.Replay != nil {
		return false
	}
	if a.Geometry != b.Geometry || a.Timing != b.Timing ||
		a.ChannelInterleaved != b.ChannelInterleaved ||
		a.Cores != b.Cores || a.Window != b.Window ||
		a.CPUPerBus != b.CPUPerBus ||
		a.RequestsPerCore != b.RequestsPerCore ||
		a.Workload != b.Workload ||
		a.AttackOnsetFrac != b.AttackOnsetFrac ||
		a.ChannelAffine != b.ChannelAffine {
		return false
	}
	if (a.Attack == nil) != (b.Attack == nil) {
		return false
	}
	if a.Attack != nil && *a.Attack != *b.Attack {
		return false
	}
	if len(a.WorkloadPerCore) != len(b.WorkloadPerCore) {
		return false
	}
	for i := range a.WorkloadPerCore {
		if a.WorkloadPerCore[i] != b.WorkloadPerCore[i] {
			return false
		}
	}
	if (a.OpenLoop == nil) != (b.OpenLoop == nil) {
		return false
	}
	if a.OpenLoop != nil && a.openConfig().String() != b.openConfig().String() {
		return false
	}
	return true
}

// sameSchemeShape reports whether a scheme built for a serves b after a
// ResetRun (same spec, threshold and system dimensions; the run seed is
// re-derived by ResetRun).
func sameSchemeShape(a, b *Config) bool {
	return a.Scheme == b.Scheme && a.Threshold == b.Threshold && a.Geometry == b.Geometry
}

// seqState is the sequential engine's reusable stack.
type seqState struct {
	built bool
	prev  Config

	policy addrmap.Policy
	ctrl   *memctrl.Controller
	scheme mitigation.Scheme
	oracle *mitigation.Oracle

	closed    []closedStream
	slots     []engine.CoreSlot
	openRT    *workload.Runtime
	openSlots []engine.OpenSlot

	scratch engine.Scratch
	ecfg    engine.Config
}

func (ctx *Context) runSequential(cfg Config) (Result, error) {
	s := &ctx.seq
	prev := s.prev
	was := s.built
	// Any failure below leaves the stack half-mutated; drop it so the next
	// run rebuilds from scratch. Re-armed on success.
	s.built = false

	var err error
	if !(was && prev.Geometry == cfg.Geometry && prev.ChannelInterleaved == cfg.ChannelInterleaved) {
		if s.policy, err = cachedPolicy(&cfg); err != nil {
			return Result{}, err
		}
	}
	policy := s.policy

	if was && prev.Geometry == cfg.Geometry && prev.Timing == cfg.Timing {
		s.ctrl.Reset()
	} else if s.ctrl, err = memctrl.New(cfg.Geometry, cfg.Timing); err != nil {
		return Result{}, err
	}
	ctrl := s.ctrl

	banks := cfg.Geometry.TotalBanks()
	reuseScheme := was && sameSchemeShape(&prev, &cfg)
	if reuseScheme {
		r, ok := s.scheme.(mitigation.Resettable)
		reuseScheme = ok && r.ResetRun(cfg.Scheme.runSeed(cfg.Seed))
	}
	if !reuseScheme {
		if s.scheme, err = cfg.Scheme.Build(banks, cfg.Geometry.RowsPerBank, cfg.Threshold, cfg.Seed); err != nil {
			return Result{}, err
		}
	}
	scheme := s.scheme
	thresholdTriggered := scheme.Kind() != mitigation.KindPRA && scheme.Kind() != mitigation.KindNone
	if cfg.ThresholdScale < 1 && thresholdTriggered {
		scaled := int(float64(cfg.Timing.RowRefreshCycles())*cfg.ThresholdScale + 0.5)
		ctrl.SetVictimRowCycles(scaled)
	}

	var oracle *mitigation.Oracle
	if cfg.CheckProtection && scheme.Kind() != mitigation.KindNone {
		if was && s.oracle != nil && prev.Geometry == cfg.Geometry && prev.Threshold == cfg.Threshold {
			s.oracle.Reset()
		} else {
			s.oracle = mitigation.NewOracle(banks, cfg.Geometry.RowsPerBank, cfg.Threshold)
		}
		oracle = s.oracle
	}

	cpuNS := 1000.0 / (float64(cfg.Timing.BusMHz) * float64(cfg.CPUPerBus))
	var cohort *workload.Cohort
	switch {
	case was && sameStreamShape(&prev, &cfg):
		for i := range s.closed {
			s.closed[i].reseed(cfg.Seed)
			s.slots[i].CPU.Reset()
		}
		if s.openRT != nil {
			s.openRT.Reset(cfg.Seed)
			cohort = s.openRT.Cohort
		}
	case cfg.Replay != nil:
		// Replay wrappers are cheap views over the immutable container;
		// rebuild them every run rather than teaching them to rewind.
		s.closed, s.openRT = nil, nil
		if s.slots, s.openSlots, cohort, err = cfg.replayStreams(policy); err != nil {
			return Result{}, err
		}
	default:
		if cohort, err = s.newStreams(&cfg, policy, cpuNS); err != nil {
			return Result{}, err
		}
	}

	s.ecfg = engine.Config{
		Cores:           s.slots,
		Open:            s.openSlots,
		Ctrl:            ctrl,
		Policy:          policy,
		Geometry:        cfg.Geometry,
		Scheme:          scheme,
		Oracle:          oracle,
		Scrambler:       cfg.Scrambler,
		IgnoreScrambler: cfg.IgnoreScrambler,
		CPUPerBus:       cfg.CPUPerBus,
		IntervalCPU:     int64(cfg.IntervalNS / cpuNS),
		EpochCPU:        int64(cfg.EpochNS / cpuNS),
		CPUCycleNS:      cpuNS,
		BusCycleNS:      1000.0 / float64(cfg.Timing.BusMHz),
		Batch:           true,
		OnSample:        cfg.OnSample,
		Scratch:         &s.scratch,
	}
	if cohort != nil {
		s.ecfg.Attr = cohort
	}
	er, err := engine.RunInPlace(&s.ecfg)
	if err != nil {
		return Result{}, err
	}
	res, err := cfg.deriveResult(er, scheme.Counts(), scheme.Kind(), scheme.CountersPerBank(), ctrl.Stats(),
		ctx.schemeLabel(&cfg))
	if err != nil {
		return Result{}, err
	}
	if oracle != nil {
		res.OracleViolations = oracle.Violations()
		res.MissedVictimRows = oracle.MissedVictimRows()
		res.ExposedVictimRows = oracle.ExposedVictimRows()
		res.MissedVictimRate = oracle.MissedVictimRate()
	}
	if cohort != nil {
		if oracle != nil {
			res.Tenants = cohort.Stats(oracle)
		} else {
			res.Tenants = cohort.Stats(nil)
		}
	}
	s.prev = cfg
	s.built = true
	return res, nil
}

// newStreams builds the sequential generated (non-replay) streams
// fresh, keeping the per-layer handles reseed needs, and returns the
// open-loop cohort (nil for pure closed-loop runs).
func (s *seqState) newStreams(cfg *Config, policy addrmap.Policy, cpuNS float64) (*workload.Cohort, error) {
	s.closed = s.closed[:0]
	s.slots = s.slots[:0]
	for i := 0; i < cfg.Cores; i++ {
		core, err := cpu.NewCore(cfg.Window)
		if err != nil {
			return nil, err
		}
		cs, err := cfg.closedStream(policy, i)
		if err != nil {
			return nil, err
		}
		s.closed = append(s.closed, cs)
		s.slots = append(s.slots, engine.CoreSlot{CPU: core, Gen: cs.gen, Requests: cfg.RequestsPerCore})
	}
	s.openRT = nil
	s.openSlots = nil
	if cfg.OpenLoop == nil {
		return nil, nil
	}
	rt, err := cfg.openConfig().Build(cfg.Geometry, policy, 1/cpuNS, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.openRT = rt
	for i, src := range rt.Sources {
		s.openSlots = append(s.openSlots, engine.OpenSlot{Gen: src, Requests: rt.Counts[i]})
	}
	return rt.Cohort, nil
}

// shardPart is one channel partition's reusable stack.
type shardPart struct {
	ctrl    *memctrl.Controller
	scheme  mitigation.Scheme
	oracle  *mitigation.Oracle
	closed  []closedStream
	slots   []engine.CoreSlot
	scratch engine.Scratch
}

// shardState is the channel-partitioned engine's reusable state.
type shardState struct {
	built bool
	prev  Config

	policy addrmap.Policy
	parts  []shardPart
	ecfgs  []engine.Config
}

// runSharded executes one simulation on the channel-partitioned engine:
// one controller + scheme (+ oracle) instance per channel that has cores,
// cores assigned channel ch = core index mod Channels (matching the
// affineGen pinning), merged by engine.RunSharded in channel order. The
// Shards value bounds the worker goroutines and nothing else.
func (ctx *Context) runSharded(cfg Config) (Result, error) {
	sh := &ctx.sh
	prev := sh.prev
	was := sh.built
	sh.built = false

	reuse := was && sameStreamShape(&prev, &cfg) && sameSchemeShape(&prev, &cfg) &&
		prev.CheckProtection == cfg.CheckProtection
	if reuse {
		for p := range sh.parts {
			r, ok := sh.parts[p].scheme.(mitigation.Resettable)
			if !ok || !r.ResetRun(cfg.Scheme.runSeed(cfg.Seed)) {
				reuse = false
				break
			}
		}
	}

	var err error
	cpuNS := 1000.0 / (float64(cfg.Timing.BusMHz) * float64(cfg.CPUPerBus))
	thresholdTriggered := cfg.Scheme.Kind != mitigation.KindPRA && cfg.Scheme.Kind != mitigation.KindNone
	// SetVictimRowCycles clamps internally, so a scaled value of 0 is a
	// meaningful override (it becomes the 1-cycle floor) — track whether
	// scaling applies separately from the value.
	scaleVictim := cfg.ThresholdScale < 1 && thresholdTriggered
	scaledCycles := 0
	if scaleVictim {
		scaledCycles = int(float64(cfg.Timing.RowRefreshCycles())*cfg.ThresholdScale + 0.5)
	}

	if reuse {
		for p := range sh.parts {
			part := &sh.parts[p]
			part.ctrl.Reset()
			if scaleVictim {
				part.ctrl.SetVictimRowCycles(scaledCycles)
			}
			if part.oracle != nil {
				part.oracle.Reset()
			}
			for i := range part.closed {
				part.closed[i].reseed(cfg.Seed)
				part.slots[i].CPU.Reset()
			}
			// Per-run engine knobs the shape comparison does not pin.
			ec := &sh.ecfgs[p]
			ec.IntervalCPU = int64(cfg.IntervalNS / cpuNS)
			ec.EpochCPU = int64(cfg.EpochNS / cpuNS)
			ec.Scrambler = cfg.Scrambler
			ec.IgnoreScrambler = cfg.IgnoreScrambler
		}
	} else {
		if sh.policy, err = cachedPolicy(&cfg); err != nil {
			return Result{}, err
		}
		if err = sh.build(&cfg, cpuNS, scaleVictim, scaledCycles); err != nil {
			return Result{}, err
		}
	}

	workers := cfg.Shards
	if workers > len(sh.ecfgs) {
		workers = len(sh.ecfgs)
	}
	er, err := engine.RunSharded(sh.ecfgs, workers)
	if err != nil {
		return Result{}, err
	}
	// Per-partition samples only become the run's samples after the
	// channel-order merge, so the streaming hook fires here — once, with
	// the final merged sequence — rather than live per partition. Callers
	// observe the identical samples in the identical order as a sequential
	// run (locked by TestOnSampleShardedMatchesSequential); only the
	// delivery time differs.
	if cfg.OnSample != nil {
		for _, smp := range er.Samples {
			cfg.OnSample(smp)
		}
	}

	var stats memctrl.Stats
	var counts mitigation.Counts
	for p := range sh.parts {
		stats = stats.Add(sh.parts[p].ctrl.Stats())
		counts = counts.Add(sh.parts[p].scheme.Counts())
	}
	first := sh.parts[0].scheme
	res, err := cfg.deriveResult(er, counts, first.Kind(), first.CountersPerBank(), stats,
		ctx.schemeLabel(&cfg))
	if err != nil {
		return Result{}, err
	}
	if cfg.CheckProtection && cfg.Scheme.Kind != mitigation.KindNone {
		var missed, exposed int64
		for p := range sh.parts {
			o := sh.parts[p].oracle
			res.OracleViolations += o.Violations()
			missed += o.MissedVictimRows()
			exposed += o.ExposedVictimRows()
		}
		res.MissedVictimRows, res.ExposedVictimRows = missed, exposed
		if exposed > 0 {
			res.MissedVictimRate = float64(missed) / float64(exposed)
		}
	}
	sh.prev = cfg
	sh.built = true
	return res, nil
}

// build constructs the per-channel partition stacks fresh (cores assigned
// channel ch = index mod Channels). A channel with no cores sees no
// traffic, so it is skipped: that keeps the partition list dense
// (engine.RunSharded requires non-empty partitions) without changing any
// result, since the merge's pristine correction accounts for untouched
// banks either way. Channel 0 always has core 0 (sharded requires Cores >=
// 1), so the list is never empty.
func (sh *shardState) build(cfg *Config, cpuNS float64, scaleVictim bool, scaledCycles int) error {
	banks := cfg.Geometry.TotalBanks()
	sh.parts = sh.parts[:0]
	sh.ecfgs = sh.ecfgs[:0]
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		var part shardPart
		for i := ch; i < cfg.Cores; i += cfg.Geometry.Channels {
			core, err := cpu.NewCore(cfg.Window)
			if err != nil {
				return err
			}
			cs, err := cfg.closedStream(sh.policy, i)
			if err != nil {
				return err
			}
			part.closed = append(part.closed, cs)
			part.slots = append(part.slots, engine.CoreSlot{CPU: core, Gen: cs.gen, Requests: cfg.RequestsPerCore})
		}
		if len(part.slots) == 0 {
			continue
		}
		ctrl, err := memctrl.New(cfg.Geometry, cfg.Timing)
		if err != nil {
			return err
		}
		scheme, err := cfg.Scheme.Build(banks, cfg.Geometry.RowsPerBank, cfg.Threshold, cfg.Seed)
		if err != nil {
			return err
		}
		if scaleVictim {
			ctrl.SetVictimRowCycles(scaledCycles)
		}
		part.ctrl, part.scheme = ctrl, scheme
		if cfg.CheckProtection && scheme.Kind() != mitigation.KindNone {
			part.oracle = mitigation.NewOracle(banks, cfg.Geometry.RowsPerBank, cfg.Threshold)
		}
		sh.parts = append(sh.parts, part)
		sh.ecfgs = append(sh.ecfgs, engine.Config{
			Cores:           part.slots,
			Ctrl:            ctrl,
			Policy:          sh.policy,
			Geometry:        cfg.Geometry,
			Scheme:          scheme,
			Oracle:          part.oracle,
			Scrambler:       cfg.Scrambler,
			IgnoreScrambler: cfg.IgnoreScrambler,
			CPUPerBus:       cfg.CPUPerBus,
			IntervalCPU:     int64(cfg.IntervalNS / cpuNS),
			EpochCPU:        int64(cfg.EpochNS / cpuNS),
			CPUCycleNS:      cpuNS,
			BusCycleNS:      1000.0 / float64(cfg.Timing.BusMHz),
			Batch:           true,
			Channels:        &engine.ChannelRange{Lo: ch, Hi: ch + 1},
		})
	}
	// Scratch pointers must be taken after the slice stops growing.
	for p := range sh.parts {
		sh.ecfgs[p].Scratch = &sh.parts[p].scratch
	}
	return nil
}
