package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"catsim/internal/addrmap"
	"catsim/internal/cpu"
	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/sim"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// The layer ledger splits the engine's time per simulated request across
// its layers. A clock read costs about as much as a third of a request, so
// per-call spans would swamp what they measure. Instead each ledger cell
// runs twice:
//
//   - record: the engine runs with decorators around the request
//     generators, open-loop sources, address policy and scheme that append
//     every input those layers see (and, from the core's clock at decode
//     time, the memory controller's exact inputs);
//   - replay: each layer then runs alone on its recorded inputs against a
//     fresh instance, median of three, and must reproduce the recorded
//     run's end state exactly.
//
// engine.self is the untraced engine time minus the sum of the replays:
// the scheduler, the cpu model and the loop itself. The stack is built
// from the layers' public constructors the way sim.Run builds it, and every
// cell checks that the recorded run's end state equals sim.Run's Result.

// stack is one run's component stack, built the way sim.Run builds it.
type stack struct {
	cfg    sim.Config
	cpuNS  float64
	policy addrmap.Policy
	ctrl   *memctrl.Controller
	scheme mitigation.Scheme
	oracle *mitigation.Oracle
	rt     *workload.Runtime // nil without an open-loop workload
	ecfg   engine.Config
}

// fillConfig resolves the defaults sim.Run fills in.
func fillConfig(cfg sim.Config) (sim.Config, error) {
	if cfg.Replay != nil || cfg.ChannelAffine || cfg.Shards != 0 || cfg.AttackOnsetFrac != 0 ||
		cfg.WorkloadPerCore != nil || cfg.Scrambler != nil || cfg.EpochNS != 0 {
		return cfg, fmt.Errorf("ledger: config uses a feature the ledger does not rebuild")
	}
	if cfg.Window == 0 {
		cfg.Window = cpu.DefaultWindow
	}
	if cfg.CPUPerBus == 0 {
		cfg.CPUPerBus = cpu.DefaultCPUCyclesPerBusCycle
	}
	if cfg.IntervalNS == 0 {
		cfg.IntervalNS = dram.RefreshIntervalNS()
	}
	if cfg.ThresholdScale == 0 {
		cfg.ThresholdScale = 1
	}
	if cfg.Timing.BusMHz == 0 {
		cfg.Timing = dram.DDR3_1600()
	}
	if cfg.Geometry.Channels == 0 {
		cfg.Geometry = dram.Default2Channel()
	}
	return cfg, nil
}

func newPolicy(cfg *sim.Config) (addrmap.Policy, error) {
	if cfg.ChannelInterleaved {
		return addrmap.NewChannelInterleaved(cfg.Geometry)
	}
	return addrmap.NewRowInterleaved(cfg.Geometry)
}

func newController(cfg *sim.Config) (*memctrl.Controller, error) {
	ctrl, err := memctrl.New(cfg.Geometry, cfg.Timing)
	if err != nil {
		return nil, err
	}
	k := cfg.Scheme.Kind
	if cfg.ThresholdScale < 1 && k != mitigation.KindPRA && k != mitigation.KindNone {
		ctrl.SetVictimRowCycles(int(float64(cfg.Timing.RowRefreshCycles())*cfg.ThresholdScale + 0.5))
	}
	return ctrl, nil
}

func newScheme(cfg *sim.Config) (mitigation.Scheme, error) {
	return cfg.Scheme.Build(cfg.Geometry.TotalBanks(), cfg.Geometry.RowsPerBank, cfg.Threshold, cfg.Seed)
}

func newOracle(cfg *sim.Config) *mitigation.Oracle {
	return mitigation.NewOracle(cfg.Geometry.TotalBanks(), cfg.Geometry.RowsPerBank, cfg.Threshold)
}

// closedGens builds every core's request generator: the synthetic stream,
// wrapped in the attack blend when one is configured.
func closedGens(cfg *sim.Config, policy addrmap.Policy) ([]trace.Generator, error) {
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		syn, err := trace.NewSynthetic(cfg.Workload, cfg.Geometry.TotalBytes(), cfg.Geometry.LineBytes,
			cfg.Seed+uint64(i)*0x1000193)
		if err != nil {
			return nil, err
		}
		gens[i] = syn
		if a := cfg.Attack; a != nil {
			if gens[i], err = trace.NewAttackPattern(a.Kernel, a.Mode, a.Pattern, cfg.Geometry, policy, syn); err != nil {
				return nil, err
			}
		}
	}
	return gens, nil
}

// openConfig resolves the open-loop workload's source count and budget.
func openConfig(cfg *sim.Config) workload.Config {
	ol := *cfg.OpenLoop
	if ol.Sources == 0 {
		ol.Sources = 1
	}
	if ol.Requests == 0 {
		ol.Requests = cfg.RequestsPerCore * ol.Sources
	}
	return ol
}

func newRuntime(cfg *sim.Config, policy addrmap.Policy, cpuNS float64) (*workload.Runtime, error) {
	return openConfig(cfg).Build(cfg.Geometry, policy, 1/cpuNS, cfg.Seed)
}

func buildStack(cfg sim.Config) (*stack, error) {
	cfg, err := fillConfig(cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, cpuNS: 1000.0 / (float64(cfg.Timing.BusMHz) * float64(cfg.CPUPerBus))}
	if s.policy, err = newPolicy(&cfg); err != nil {
		return nil, err
	}
	if s.ctrl, err = newController(&cfg); err != nil {
		return nil, err
	}
	if s.scheme, err = newScheme(&cfg); err != nil {
		return nil, err
	}
	if cfg.CheckProtection && cfg.Scheme.Kind != mitigation.KindNone {
		s.oracle = newOracle(&cfg)
	}
	gens, err := closedGens(&cfg, s.policy)
	if err != nil {
		return nil, err
	}
	s.ecfg = engine.Config{
		Ctrl: s.ctrl, Policy: s.policy, Geometry: cfg.Geometry, Scheme: s.scheme, Oracle: s.oracle,
		CPUPerBus:   cfg.CPUPerBus,
		IntervalCPU: int64(cfg.IntervalNS / s.cpuNS),
		CPUCycleNS:  s.cpuNS,
		BusCycleNS:  1000.0 / float64(cfg.Timing.BusMHz),
		Batch:       true,
	}
	for _, g := range gens {
		core, err := cpu.NewCore(cfg.Window)
		if err != nil {
			return nil, err
		}
		s.ecfg.Cores = append(s.ecfg.Cores, engine.CoreSlot{CPU: core, Gen: g, Requests: cfg.RequestsPerCore})
	}
	if cfg.OpenLoop != nil {
		if s.rt, err = newRuntime(&cfg, s.policy, s.cpuNS); err != nil {
			return nil, err
		}
		for i, src := range s.rt.Sources {
			s.ecfg.Open = append(s.ecfg.Open, engine.OpenSlot{Gen: src, Requests: s.rt.Counts[i]})
		}
		s.ecfg.Attr = s.rt.Cohort
	}
	return s, nil
}

// requests is the number of requests the stack's run issues.
func (s *stack) requests() int {
	n := 0
	for _, c := range s.ecfg.Cores {
		n += c.Requests
	}
	for _, o := range s.ecfg.Open {
		n += o.Requests
	}
	return n
}

// tenants folds the cohort's attribution (nil without one).
func (s *stack) tenants() []workload.TenantStat {
	switch {
	case s.rt == nil:
		return nil
	case s.oracle != nil:
		return s.rt.Cohort.Stats(s.oracle)
	}
	return s.rt.Cohort.Stats(nil)
}

// matches reports whether the stack's end state after er equals the
// Result sim.Run produced for the same config, field by field with sim's
// own derivations.
func (s *stack) matches(er engine.Result, want sim.Result) error {
	st := s.ctrl.Stats()
	busNS := 1000.0 / float64(s.cfg.Timing.BusMHz)
	execNS := float64(er.EndCPU) * s.cpuNS
	avgLat := 0.0
	if st.Reads > 0 {
		avgLat = float64(st.ReadLatencySum) / float64(st.Reads) * busNS
	}
	busy := float64(st.VictimRefreshBusy) * busNS / (float64(s.cfg.Geometry.TotalBanks()) * execNS)
	var viol, missed, exposed int64
	if s.oracle != nil {
		viol, missed, exposed = s.oracle.Violations(), s.oracle.MissedVictimRows(), s.oracle.ExposedVictimRows()
	}
	switch {
	case execNS != want.ExecNS, s.scheme.Counts() != want.Counts, !slices.Equal(er.PerBankActs, want.PerBankActs):
		return fmt.Errorf("engine end state (time, scheme counts or bank activations) differs from sim.Run")
	case avgLat != want.AvgReadLatencyNS, busy != want.VictimBusyFrac:
		return fmt.Errorf("controller end state differs from sim.Run")
	case viol != want.OracleViolations, missed != want.MissedVictimRows, exposed != want.ExposedVictimRows:
		return fmt.Errorf("oracle end state differs from sim.Run")
	case !reflect.DeepEqual(s.tenants(), want.Tenants):
		return fmt.Errorf("tenant attribution differs from sim.Run")
	}
	return nil
}

// ---- recording ----

type openDraw struct {
	slot int
	req  trace.Request
	at   int64
}

// memOp is one closed-loop request's controller input (its coordinate is
// the matching entry of recorder.coords).
type memOp struct {
	bus   int64
	write bool
}

// actRec is one activation the scheme saw, with the interval boundaries
// that preceded it and how many refresh ranges it (and, for cross-bank
// schemes, its other banks) produced.
type actRec struct {
	bank, row, boundaries, ranges, cross int32
}

// recorder collects every layer's inputs during a recording run.
type recorder struct {
	cores     []engine.CoreSlot
	cpuPerBus int64
	pending   int // closed core whose request awaits its decode, -1 for none
	write     bool

	reqs       [][]trace.Request // per core
	open       []openDraw
	addrs      []int64
	coords     []addrmap.Coord
	mem        []memOp
	acts       []actRec
	ranges     []mitigation.RefreshRange
	cross      []mitigation.BankRefresh
	boundaries int32
}

type recGen struct {
	trace.Generator
	r    *recorder
	core int
}

func (g recGen) Next() trace.Request {
	q := g.Generator.Next()
	g.r.reqs[g.core] = append(g.r.reqs[g.core], q)
	g.r.pending, g.r.write = g.core, q.Write
	return q
}

type recOpen struct {
	engine.OpenSource
	r    *recorder
	slot int
}

func (o recOpen) Next() (trace.Request, int64) {
	q, at := o.OpenSource.Next()
	o.r.open = append(o.r.open, openDraw{o.slot, q, at})
	return q, at
}

// recPolicy records decodes. A closed-loop request is decoded right after
// its core's PrepareIssue, so the core's clock is its issue cycle: that
// pins the controller's exact input. Open-loop requests were drawn ahead
// of time and cannot be matched to a slot from outside, so their
// controller work stays in engine.self.
type recPolicy struct {
	addrmap.Policy
	r *recorder
}

func (p recPolicy) Decode(addr int64) addrmap.Coord {
	c := p.Policy.Decode(addr)
	r := p.r
	r.addrs = append(r.addrs, addr)
	r.coords = append(r.coords, c)
	if r.pending >= 0 {
		r.mem = append(r.mem, memOp{r.cores[r.pending].CPU.Now / r.cpuPerBus, r.write})
		r.pending = -1
	}
	return c
}

type recScheme struct {
	mitigation.Scheme
	r *recorder
}

func (s recScheme) OnActivate(bank, row int) []mitigation.RefreshRange {
	rr := s.Scheme.OnActivate(bank, row)
	r := s.r
	r.acts = append(r.acts, actRec{bank: int32(bank), row: int32(row), boundaries: r.boundaries, ranges: int32(len(rr))})
	r.boundaries = 0
	r.ranges = append(r.ranges, rr...)
	return rr
}

func (s recScheme) OnIntervalBoundary() {
	s.r.boundaries++
	s.Scheme.OnIntervalBoundary()
}

// recCrossBank also forwards (and records) ABACuS's cross-bank refreshes;
// it is used only for schemes that have them, so the engine's CrossBank
// check sees the same answer it would without the recorder.
type recCrossBank struct{ recScheme }

func (s recCrossBank) PendingCrossBank() []mitigation.BankRefresh {
	bf := s.Scheme.(mitigation.CrossBank).PendingCrossBank()
	r := s.r
	r.cross = append(r.cross, bf...)
	r.acts[len(r.acts)-1].cross += int32(len(bf))
	return bf
}

// record runs the stack's engine with every layer's inputs recorded.
func (s *stack) record() (*recorder, engine.Result, time.Duration, error) {
	r := &recorder{cores: s.ecfg.Cores, cpuPerBus: int64(s.cfg.CPUPerBus), pending: -1,
		reqs: make([][]trace.Request, len(s.ecfg.Cores))}
	n := s.requests()
	r.addrs, r.coords = make([]int64, 0, n), make([]addrmap.Coord, 0, n)
	r.acts, r.mem = make([]actRec, 0, n), make([]memOp, 0, n)
	ecfg := s.ecfg
	ecfg.Cores = slices.Clone(s.ecfg.Cores)
	for i := range ecfg.Cores {
		r.reqs[i] = make([]trace.Request, 0, ecfg.Cores[i].Requests)
		ecfg.Cores[i].Gen = recGen{ecfg.Cores[i].Gen, r, i}
	}
	ecfg.Open = slices.Clone(s.ecfg.Open)
	for j := range ecfg.Open {
		ecfg.Open[j].Gen = recOpen{ecfg.Open[j].Gen, r, j}
	}
	ecfg.Policy = recPolicy{s.policy, r}
	ecfg.Scheme = recScheme{s.scheme, r}
	if _, ok := s.scheme.(mitigation.CrossBank); ok {
		ecfg.Scheme = recCrossBank{recScheme{s.scheme, r}}
	}
	t0 := time.Now()
	er, err := engine.Run(ecfg)
	return r, er, time.Since(t0), err
}

// ---- replay ----

// replayReps is how many fresh instances each layer replays on; the
// ledger takes the median time.
const replayReps = 3

// replayLayer times run on replayReps fresh instances prepared (untimed)
// by prep and returns the median; verify checks the last instance.
func replayLayer(prep func() (run func(), verify func() error, err error)) (time.Duration, error) {
	ds := make([]float64, replayReps)
	var verify func() error
	for i := range ds {
		run, v, err := prep()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		run()
		ds[i] = float64(time.Since(t0))
		verify = v
	}
	return time.Duration(median(ds)), verify()
}

// forActs walks the recorded activations with their refresh ranges.
func (r *recorder) forActs(fn func(a actRec, ranges []mitigation.RefreshRange, cross []mitigation.BankRefresh)) {
	ri, ci := 0, 0
	for _, a := range r.acts {
		fn(a, r.ranges[ri:ri+int(a.ranges)], r.cross[ci:ci+int(a.cross)])
		ri += int(a.ranges)
		ci += int(a.cross)
	}
}

// cellLedger is one ledger cell's measured times in nanoseconds.
type cellLedger struct {
	requests       int
	engine, record float64
	layers         map[string]float64 // ledger metric name -> ns
}

// measureCell records and replays one cell, checking the recorded run
// against want (sim.Run's Result for the same config) and every replay
// against the recorded end state.
func measureCell(cfg sim.Config, want sim.Result) (cellLedger, error) {
	out := cellLedger{layers: map[string]float64{}}
	engineNS, err := replayLayer(func() (func(), func() error, error) {
		s, err := buildStack(cfg)
		var runErr error
		return func() { _, runErr = engine.Run(s.ecfg) }, func() error { return runErr }, err
	})
	if err != nil {
		return out, err
	}
	out.engine = float64(engineNS)

	s, err := buildStack(cfg)
	if err != nil {
		return out, err
	}
	out.requests = s.requests()
	r, er, d, err := s.record()
	if err != nil {
		return out, err
	}
	out.record = float64(d)
	if err := s.matches(er, want); err != nil {
		return out, fmt.Errorf("recorded run: %w", err)
	}
	c := &s.cfg

	add := func(name string, prep func() (func(), func() error, error)) error {
		d, err := replayLayer(prep)
		if err != nil {
			return fmt.Errorf("%s replay: %w", name, err)
		}
		out.layers[name] += float64(d)
		return nil
	}
	if c.Cores > 0 {
		err := add("trace.ns_per_req", func() (func(), func() error, error) {
			gens, err := closedGens(c, s.policy)
			got := make([][]trace.Request, len(gens))
			for i := range got {
				got[i] = make([]trace.Request, len(r.reqs[i]))
			}
			return func() {
					for i, g := range gens {
						for k := range got[i] {
							got[i][k] = g.Next()
						}
					}
				}, func() error {
					if !reflect.DeepEqual(got, r.reqs) {
						return fmt.Errorf("generated requests differ")
					}
					return nil
				}, err
		})
		if err != nil {
			return out, err
		}
	}
	if c.OpenLoop != nil {
		err := add("workload.ns_per_req", func() (func(), func() error, error) {
			rt, err := newRuntime(c, s.policy, s.cpuNS)
			got := make([]openDraw, len(r.open))
			return func() {
					for k, d := range r.open {
						q, at := rt.Sources[d.slot].Next()
						got[k] = openDraw{d.slot, q, at}
					}
				}, func() error {
					if !slices.Equal(got, r.open) {
						return fmt.Errorf("open-loop draws differ")
					}
					return nil
				}, err
		})
		if err == nil {
			err = add("workload.attr_ns_per_req", func() (func(), func() error, error) {
				cohort, err := workload.NewCohort(openConfig(c).Cohort, c.Geometry, s.policy, c.Seed)
				return func() {
						r.forActs(func(a actRec, ranges []mitigation.RefreshRange, cross []mitigation.BankRefresh) {
							cohort.OnActivate(int(a.bank), int(a.row))
							for _, rr := range ranges {
								cohort.OnRefresh(int(a.bank), rr.Lo, rr.Hi)
							}
							for _, bf := range cross {
								cohort.OnRefresh(bf.Bank, bf.Range.Lo, bf.Range.Hi)
							}
						})
					}, func() error {
						if !reflect.DeepEqual(cohort.Stats(nil), s.rt.Cohort.Stats(nil)) {
							return fmt.Errorf("tenant attribution differs")
						}
						return nil
					}, err
			})
		}
		if err != nil {
			return out, err
		}
	}
	err = add("addrmap.ns_per_req", func() (func(), func() error, error) {
		p, err := newPolicy(c)
		got := make([]addrmap.Coord, len(r.addrs))
		return func() {
				for k, a := range r.addrs {
					got[k] = p.Decode(a)
				}
			}, func() error {
				if !slices.Equal(got, r.coords) {
					return fmt.Errorf("decoded coordinates differ")
				}
				return nil
			}, err
	})
	if err != nil {
		return out, err
	}
	if c.OpenLoop == nil {
		err = add("memctrl.ns_per_req", func() (func(), func() error, error) {
			ctrl, err := newController(c)
			return func() {
					k := 0
					r.forActs(func(a actRec, ranges []mitigation.RefreshRange, cross []mitigation.BankRefresh) {
						m := r.mem[k]
						if m.write {
							ctrl.Write(m.bus, r.coords[k])
						} else {
							ctrl.Read(m.bus, r.coords[k])
						}
						k++
						for _, rr := range ranges {
							ctrl.VictimRefresh(m.bus, int(a.bank), rr.Rows())
						}
						for _, bf := range cross {
							ctrl.VictimRefresh(m.bus, bf.Bank, bf.Range.Rows())
						}
					})
					ctrl.FlushWrites(er.EndCPU / int64(c.CPUPerBus))
				}, func() error {
					if ctrl.Stats() != s.ctrl.Stats() {
						return fmt.Errorf("controller stats differ")
					}
					return nil
				}, err
		})
		if err != nil {
			return out, err
		}
	}
	err = add("mitigation.ns_per_req", func() (func(), func() error, error) {
		scheme, err := newScheme(c)
		cb, _ := scheme.(mitigation.CrossBank)
		return func() {
				for _, a := range r.acts {
					for b := int32(0); b < a.boundaries; b++ {
						scheme.OnIntervalBoundary()
					}
					scheme.OnActivate(int(a.bank), int(a.row))
					if cb != nil {
						cb.PendingCrossBank()
					}
				}
			}, func() error {
				if scheme.Counts() != s.scheme.Counts() {
					return fmt.Errorf("scheme counts differ")
				}
				return nil
			}, err
	})
	if err != nil {
		return out, err
	}
	if s.oracle != nil {
		err = add("mitigation.oracle_ns_per_req", func() (func(), func() error, error) {
			o := newOracle(c)
			return func() {
					r.forActs(func(a actRec, ranges []mitigation.RefreshRange, cross []mitigation.BankRefresh) {
						for b := int32(0); b < a.boundaries; b++ {
							o.RefreshAll()
						}
						o.Activate(int(a.bank), int(a.row))
						for _, rr := range ranges {
							o.Refresh(int(a.bank), rr)
						}
						for _, bf := range cross {
							o.Refresh(bf.Bank, bf.Range)
						}
					})
				}, func() error {
					if o.Violations() != s.oracle.Violations() || o.MissedVictimRows() != s.oracle.MissedVictimRows() ||
						o.ExposedVictimRows() != s.oracle.ExposedVictimRows() {
						return fmt.Errorf("oracle verdict differs")
					}
					return nil
				}, nil
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
