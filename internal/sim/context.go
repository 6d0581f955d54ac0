package sim

import (
	"fmt"
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
// rebuilds on any mismatch, and reuse calls the same reset each layer's
// constructor ends in (mitigation.Scheme.ResetRun, memctrl's Reset, the
// stream and cohort reseeds), so a reset layer is a fresh build by
// construction.
//
// A Result returned by Context.Run ALIASES the context (PerBankActs and
// Epochs share its scratch memory) and is valid only until the context's
// next run; call Result.Clone to retain it. A Context serves one run at a
// time — use one per worker goroutine (internal/runner pools them).
type Context struct {
	built bool
	prev  Config

	policy addrmap.Policy
	// parts holds one stack per engine partition: a sequential run is one
	// part over the whole system, a sharded run one part per channel that
	// has cores. ecfgs[p] wires parts[p] into the engine (the parallel
	// slice engine.RunSharded takes).
	parts []part
	ecfgs []engine.Config

	label     string
	labelSpec SchemeSpec
	labelT    uint32
	hasLabel  bool
}

// part is one partition's reusable stack.
type part struct {
	ctrl   *memctrl.Controller
	scheme mitigation.Scheme
	// oracle is kept across runs that do not check protection, so it is
	// reused by the geometry and threshold it was built for, not by the
	// previous run's.
	oracle          *mitigation.Oracle
	oracleGeom      dram.Geometry
	oracleThreshold uint32

	closed    []closedStream
	cursors   []cursor // replay a Recording's streams into slots
	slots     []engine.CoreSlot
	openRT    *workload.Runtime
	openSlots []engine.OpenSlot
	cohort    *workload.Cohort // nil for pure closed-loop runs

	channels engine.ChannelRange
	scratch  engine.Scratch
}

// NewContext returns an empty context; the first Run populates it.
func NewContext() *Context { return &Context{} }

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

// Run executes one simulation, reusing the context's state wherever the
// configuration shape allows. A sharded run (see Config.sharded) takes
// min(Cores, Channels) partitions — core i in partition i mod Channels,
// matching the affineGen pinning, so every partition has cores — and merges
// them with engine.RunSharded in channel order; any other run is one
// partition through engine.RunInPlace. Reuse requires the partition count
// of the previous run.
func (ctx *Context) Run(cfg Config) (Result, error) { return ctx.RunRecorded(cfg, nil) }

// RunRecorded is Run with cfg's closed-loop request streams replayed from
// rec instead of generated; the Result is identical. rec must have been
// recorded for cfg's stream identity (see Recording), and the run must be
// Recordable. A nil rec, or one whose streams did not fit packed records,
// generates the streams as Run does.
func (ctx *Context) RunRecorded(cfg Config, rec *Recording) (Result, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if rec != nil && !(Recordable(cfg) && rec.recorded && sameStream(&rec.cfg, &cfg)) {
		return Result{}, fmt.Errorf("sim: the recording was not made for this run's request streams")
	}
	sharded := cfg.sharded()
	n, stride := 1, 1
	if sharded {
		n, stride = min(cfg.Cores, cfg.Geometry.Channels), cfg.Geometry.Channels
	}
	if len(ctx.parts) != n {
		ctx.parts = make([]part, n)
		ctx.ecfgs = make([]engine.Config, n)
		ctx.built = false
	}
	prev, was := ctx.prev, ctx.built
	// Any failure below leaves the stack half-mutated; drop it so the next
	// run rebuilds from scratch. Re-armed on success.
	ctx.built = false

	var err error
	if !(was && prev.Geometry == cfg.Geometry && prev.ChannelInterleaved == cfg.ChannelInterleaved) {
		if ctx.policy, err = cachedPolicy(&cfg); err != nil {
			return Result{}, err
		}
	}
	cpuNS := 1000.0 / (float64(cfg.Timing.BusMHz) * float64(cfg.CPUPerBus))
	for p := range ctx.parts {
		if err := ctx.buildPart(p, &cfg, &prev, was, stride, cpuNS); err != nil {
			return Result{}, err
		}
		if rec != nil && rec.packed {
			ctx.parts[p].replay(rec)
		}
		if sharded {
			ctx.ecfgs[p].Channels = &ctx.parts[p].channels
		} else {
			ctx.ecfgs[p].OnSample = cfg.OnSample
		}
	}

	var er engine.Result
	if !sharded {
		er, err = engine.RunInPlace(&ctx.ecfgs[0])
	} else if er, err = engine.RunSharded(ctx.ecfgs, cfg.Shards); err == nil && cfg.OnSample != nil {
		// Partition samples become the run's samples only at the merge, so
		// the hook sees the merged sequence here: the samples a sequential
		// run delivers live, in the same order, delivered later.
		for _, smp := range er.Samples {
			cfg.OnSample(smp)
		}
	}
	if err != nil {
		return Result{}, err
	}

	var stats memctrl.Stats
	var counts mitigation.Counts
	var violations, missed, exposed int64
	for p := range ctx.parts {
		stats = stats.Add(ctx.parts[p].ctrl.Stats())
		counts = counts.Add(ctx.parts[p].scheme.Counts())
		if o := ctx.ecfgs[p].Oracle; o != nil {
			violations += o.Violations()
			missed += o.MissedVictimRows()
			exposed += o.ExposedVictimRows()
		}
	}
	first := ctx.parts[0].scheme
	res, err := cfg.deriveResult(er, counts, first.Kind(), first.CountersPerBank(), stats,
		ctx.schemeLabel(&cfg))
	if err != nil {
		return Result{}, err
	}
	res.OracleViolations, res.MissedVictimRows, res.ExposedVictimRows = violations, missed, exposed
	if exposed > 0 {
		res.MissedVictimRate = float64(missed) / float64(exposed)
	}
	if cohort := ctx.parts[0].cohort; cohort != nil {
		// Stats takes an interface: a nil *Oracle inside it is not nil.
		if o := ctx.ecfgs[0].Oracle; o != nil {
			res.Tenants = cohort.Stats(o)
		} else {
			res.Tenants = cohort.Stats(nil)
		}
	}
	ctx.prev = cfg
	ctx.built = true
	return res, nil
}

// buildPart readies partition p for cfg — each layer reset in place when
// the previous run's shape allows, rebuilt otherwise — and rewrites its
// engine config. Partition p owns cores p, p+stride, ... and channel p.
func (ctx *Context) buildPart(p int, cfg, prev *Config, was bool, stride int, cpuNS float64) error {
	pt := &ctx.parts[p]
	var err error
	if was && prev.Geometry == cfg.Geometry && prev.Timing == cfg.Timing {
		pt.ctrl.Reset()
	} else if pt.ctrl, err = memctrl.New(cfg.Geometry, cfg.Timing); err != nil {
		return err
	}

	banks := cfg.Geometry.TotalBanks()
	if was && sameSchemeShape(prev, cfg) {
		pt.scheme.ResetRun(cfg.Scheme.runSeed(cfg.Seed))
	} else if pt.scheme, err = cfg.Scheme.Build(banks, cfg.Geometry.RowsPerBank, cfg.Threshold, cfg.Seed); err != nil {
		return err
	}
	kind := pt.scheme.Kind()
	if cfg.ThresholdScale < 1 && kind != mitigation.KindPRA && kind != mitigation.KindNone {
		// See Config.ThresholdScale. The controller clamps the cost, so a
		// scaled value of 0 is a meaningful override (the 1-cycle floor)
		// and must be applied on rebuild and reuse alike.
		pt.ctrl.SetVictimRowCycles(int(float64(cfg.Timing.RowRefreshCycles())*cfg.ThresholdScale + 0.5))
	}

	var oracle *mitigation.Oracle
	if cfg.CheckProtection && kind != mitigation.KindNone {
		if was && pt.oracle != nil && pt.oracleGeom == cfg.Geometry && pt.oracleThreshold == cfg.Threshold {
			pt.oracle.Reset()
		} else {
			pt.oracle = mitigation.NewOracle(banks, cfg.Geometry.RowsPerBank, cfg.Threshold)
			pt.oracleGeom, pt.oracleThreshold = cfg.Geometry, cfg.Threshold
		}
		oracle = pt.oracle
	}

	switch {
	case was && sameStreamShape(prev, cfg):
		for i := range pt.closed {
			pt.closed[i].reseed(cfg.Seed)
			pt.slots[i].CPU.Reset()
			// A recorded run may have left a cursor in place of the stream.
			pt.slots[i].Gen, pt.slots[i].Decoded = pt.closed[i].gen, nil
		}
		if pt.openRT != nil {
			pt.openRT.Reset(cfg.Seed)
		}
	case cfg.Replay != nil:
		// Replay wrappers are cheap views over the immutable container;
		// rebuild them every run rather than teaching them to rewind.
		pt.closed, pt.openRT = nil, nil
		if pt.slots, pt.openSlots, pt.cohort, err = cfg.replayStreams(ctx.policy); err != nil {
			return err
		}
	default:
		if err = pt.newStreams(cfg, ctx.policy, p, stride, cpuNS); err != nil {
			return err
		}
	}

	pt.channels = engine.ChannelRange{Lo: p, Hi: p + 1}
	ctx.ecfgs[p] = engine.Config{
		Cores:           pt.slots,
		Open:            pt.openSlots,
		Ctrl:            pt.ctrl,
		Policy:          ctx.policy,
		Geometry:        cfg.Geometry,
		Scheme:          pt.scheme,
		Oracle:          oracle,
		Scrambler:       cfg.Scrambler,
		IgnoreScrambler: cfg.IgnoreScrambler,
		CPUPerBus:       cfg.CPUPerBus,
		IntervalCPU:     int64(cfg.IntervalNS / cpuNS),
		EpochCPU:        int64(cfg.EpochNS / cpuNS),
		CPUCycleNS:      cpuNS,
		BusCycleNS:      1000.0 / float64(cfg.Timing.BusMHz),
		Batch:           true,
		Scratch:         &pt.scratch,
	}
	if pt.cohort != nil {
		ctx.ecfgs[p].Attr = pt.cohort
	}
	return nil
}

// newStreams builds the part's generated (non-replay) streams fresh —
// cores first, first+stride, ... plus the open-loop runtime when cfg has
// one — keeping the per-layer handles reseed needs.
func (pt *part) newStreams(cfg *Config, policy addrmap.Policy, first, stride int, cpuNS float64) error {
	pt.closed = pt.closed[:0]
	pt.slots = pt.slots[:0]
	for i := first; i < cfg.Cores; i += stride {
		core, err := cpu.NewCore(cfg.Window)
		if err != nil {
			return err
		}
		cs, err := cfg.closedStream(policy, i)
		if err != nil {
			return err
		}
		pt.closed = append(pt.closed, cs)
		pt.slots = append(pt.slots, engine.CoreSlot{CPU: core, Gen: cs.gen, Requests: cfg.RequestsPerCore})
	}
	pt.openRT, pt.openSlots, pt.cohort = nil, nil, nil
	if cfg.OpenLoop == nil {
		return nil
	}
	rt, err := cfg.openConfig().Build(cfg.Geometry, policy, 1/cpuNS, cfg.Seed)
	if err != nil {
		return err
	}
	pt.openRT, pt.cohort = rt, rt.Cohort
	for i, src := range rt.Sources {
		pt.openSlots = append(pt.openSlots, engine.OpenSlot{Gen: src, Requests: rt.Counts[i]})
	}
	return nil
}
