package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"reflect"
	"runtime"
	"time"

	"catsim/internal/dram"
	"catsim/internal/experiments"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// This file holds the three batch workloads — fig8, hammer64 and
// sweep8k — whose unit of work is a fixed grid of simulation runs.
//
// The host the bounds are calibrated on shares its CPUs with other
// tenants: contention comes in bursts of seconds to minutes that slow
// everything by up to half, and it only ever slows work down. Every timed
// quantity is therefore measured over short units spread across the
// window — passes of a few seconds, and set-up repetitions before each
// pass — and reported as the median of the faster half of them, which a
// burst covering up to three quarters of the window does not move.

// setupReps is how many set-up repetitions precede each pass.
const setupReps = 3

// setupStep is one workload set-up; undo, when non-nil, tears down what
// the set-up built and runs untimed.
type setupStep func() (undo func(), err error)

// timeSetup runs the workload's set-up step once and records its time.
// setup_s is the time from main entry to the first set-up plus the median
// of the faster half of the set-ups.
func (b *bench) timeSetup(step setupStep) error {
	if b.setups == nil {
		b.setupPre = time.Since(b.start)
	}
	t0 := time.Now()
	undo, err := step()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, float64(time.Since(t0)))
	b.set("setup_s", (b.setupPre + time.Duration(fastMedian(b.setups))).Seconds())
	if undo != nil {
		undo()
	}
	return nil
}

// coldRuns is the batch workloads' set-up step: a fresh run context's
// first run of each config cut to at most 1000 requests per core, which
// pays for building every layer (controller banks, scheme tables, oracle,
// generators) once per lineup entry.
func coldRuns(cfgs ...sim.Config) setupStep {
	return func() (func(), error) {
		for _, cfg := range cfgs {
			cfg.RequestsPerCore = min(cfg.RequestsPerCore, 1000)
			if _, err := sim.NewContext().Run(cfg); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
}

// passes repeats setupReps set-ups and one pass until the next pass would
// overrun the window (at least once). Each pass returns its job latencies
// in milliseconds; passes returns every pass's wall time in seconds and
// its latencies.
func (b *bench) passes(setup setupStep, pass func() ([]float64, error)) (walls []float64, jobs [][]float64, err error) {
	t0 := time.Now()
	for {
		for i := 0; i < setupReps; i++ {
			if err := b.timeSetup(setup); err != nil {
				return walls, jobs, err
			}
		}
		// Collect the set-ups' and the previous pass's garbage now,
		// untimed, so every pass starts from the same heap and peak memory
		// does not depend on when a collection happened to start.
		runtime.GC()
		p0 := time.Now()
		lat, err := pass()
		if err != nil {
			return walls, jobs, err
		}
		d := time.Since(p0)
		walls = append(walls, d.Seconds())
		jobs = append(jobs, lat)
		if time.Since(t0)+d > b.seconds {
			return walls, jobs, nil
		}
	}
}

// reportPasses sets the pass metrics from the faster half of the passes:
// wall_s is their median wall time, the throughputs follow from it for a
// pass of reqs simulated requests and n jobs, and the job latencies pool
// those passes' samples.
func (b *bench) reportPasses(what string, walls []float64, jobs [][]float64, reqs, n float64) {
	var fast, lat []float64
	for _, i := range fastHalf(walls) {
		fast = append(fast, walls[i])
		lat = append(lat, jobs[i]...)
	}
	wall := median(fast)
	b.set("wall_s", wall)
	b.set("sim_req_per_s", reqs/wall)
	b.set("jobs_per_s", n/wall)
	b.set("job_p50_ms", percentile(lat, 50))
	b.set("job_p95_ms", percentile(lat, 95))
	latencySummary(fmt.Sprintf("%s (faster %d of %d passes)", what, len(fast), len(walls)), lat)
}

// setDigest records the digest of a pass's outputs, failing the run when
// a later pass of the same inputs produced different ones.
func (b *bench) setDigest(h hash.Hash) {
	d := hex.EncodeToString(h.Sum(nil))
	if b.digest != "" && b.digest != d {
		b.op(fmt.Errorf("pass outputs differ between passes of the same inputs"))
	}
	b.digest = d
}

// hashResults feeds the JSON form of each result to h.
func hashResults(h hash.Hash, rs ...sim.Result) error {
	for i := range rs {
		out, err := json.Marshal(&rs[i])
		if err != nil {
			return err
		}
		h.Write(out)
	}
	return nil
}

// deterministic reports whether a scheme family guarantees protection, so
// the oracle must see zero missed victims and zero violations.
func deterministic(k mitigation.Kind) bool {
	switch k {
	case mitigation.KindSCA, mitigation.KindDRCAT, mitigation.KindPRCAT, mitigation.KindCoMeT, mitigation.KindABACuS:
		return true
	}
	return false
}

func (b *bench) checkProtection(cfg sim.Config, r sim.Result) {
	if cfg.CheckProtection && deterministic(cfg.Scheme.Kind) {
		b.check(r.MissedVictimRows == 0 && r.OracleViolations == 0,
			"%s seed %d: %d missed victims, %d violations", r.SchemeLabel, cfg.Seed, r.MissedVictimRows, r.OracleViolations)
	}
}

// checkFresh re-runs cfg on a brand-new context and requires the result
// to equal r exactly.
func (b *bench) checkFresh(cfg sim.Config, r sim.Result) {
	fresh, err := sim.NewContext().Run(cfg)
	if err != nil {
		b.op(err)
		return
	}
	b.check(reflect.DeepEqual(fresh.Clone(), r), "%s seed %d: fresh-context re-run differs", r.SchemeLabel, cfg.Seed)
}

// ---- fig8 ----

// fig8Scale is the figure scale of the fig8 workload: the whole Figs. 8/9
// matrix (18 workloads × 5 schemes × 2 thresholds, paired) in about 4 s,
// so several passes fit in one window.
const fig8Scale = 0.01

// fig8Specs is the paper lineup RunFig8 sweeps.
func fig8Specs() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindPRA},
		{Kind: mitigation.KindSCA, Counters: 64},
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindPRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
	}
}

// fig8Cell builds one cell of the figure exactly as experiments.RunFig8
// does: the workload's run length and threshold scaled together, PRA's p
// pinned to the unscaled threshold, and the seed offset by the workload's
// position in the figure. The fig8 run re-checks cells built here against
// the rendered figure, so a drift fails loudly.
func fig8Cell(seed uint64, name string, spec sim.SchemeSpec, threshold uint32) (sim.Config, error) {
	wl, err := trace.Lookup(name)
	if err != nil {
		return sim.Config{}, err
	}
	wi := -1
	for i, n := range trace.WorkloadNames() {
		if n == name {
			wi = i
		}
	}
	reqPerCore := int(experiments.CPUCyclesPerInterval / float64(wl.GapMean) * fig8Scale)
	if reqPerCore < 1000 {
		reqPerCore = 1000
	}
	if spec.Kind == mitigation.KindPRA && spec.PRAProb == 0 {
		spec.PRAProb = mitigation.PRAProbabilityForThreshold(threshold)
	}
	scaled := uint32(float64(threshold)*fig8Scale + 0.5)
	if scaled < 16 {
		scaled = 16
	}
	return sim.Config{
		Geometry:        dram.Default2Channel(),
		Timing:          dram.DDR3_1600(),
		Cores:           2,
		RequestsPerCore: reqPerCore,
		Workload:        wl,
		Scheme:          spec,
		Threshold:       scaled,
		ThresholdScale:  fig8Scale,
		IntervalNS:      dram.RefreshIntervalNS() * fig8Scale,
		Seed:            seed + uint64(wi),
	}, nil
}

var fig8Thresholds = []uint32{32768, 16384}

// timedRenderer renders each report as text and records when it arrived:
// a report is the unit a fig8 user waits for (one threshold's matrix).
type timedRenderer struct {
	experiments.Renderer
	last    time.Time
	jobs    []float64 // ms since the previous report
	reports []*experiments.Report
}

func (t *timedRenderer) Report(r *experiments.Report) error {
	now := time.Now()
	t.jobs = append(t.jobs, float64(now.Sub(t.last))/1e6)
	t.last = now
	t.reports = append(t.reports, r)
	return t.Renderer.Report(r)
}

func runFig8(b *bench) error {
	names := trace.WorkloadNames()
	specs := fig8Specs()
	var firsts []sim.Config
	for _, spec := range specs {
		cfg, err := fig8Cell(b.seed, names[0], spec, fig8Thresholds[0])
		if err != nil {
			return err
		}
		firsts = append(firsts, cfg)
	}
	// Simulated requests per pass: every cell runs its scheme and its own
	// baseline (the cache is off), each over identical streams.
	var reqs float64
	for _, th := range fig8Thresholds {
		for _, spec := range specs {
			for _, name := range names {
				cfg, err := fig8Cell(b.seed, name, spec, th)
				if err != nil {
					return err
				}
				reqs += 2 * float64(cfg.Cores*cfg.RequestsPerCore)
			}
		}
	}
	runs := 2 * len(fig8Thresholds) * len(specs) * len(names)

	var last *timedRenderer
	walls, jobs, err := b.passes(coldRuns(firsts...), func() ([]float64, error) {
		var text bytes.Buffer
		tr := &timedRenderer{Renderer: experiments.NewTextRenderer(&text), last: time.Now()}
		o := experiments.Options{Scale: fig8Scale, Seed: b.seed, Parallel: 1, NoCache: true, Quiet: true}
		b.attempted += runs
		if err := experiments.RunExperiment("fig8", o, tr); err != nil {
			b.failed += runs
			return nil, err
		}
		last = tr
		h := sha256.New()
		h.Write(text.Bytes())
		b.setDigest(h)
		return tr.jobs, nil
	})
	if err != nil {
		return err
	}
	b.markPeakRSS()
	b.reportPasses("fig8 per-threshold report", walls, jobs, reqs, float64(len(fig8Thresholds)))

	// One cell in 16 re-runs on a fresh context; its CMRPO must equal the
	// rendered figure's cell bit for bit.
	k := 0
	for ti, th := range fig8Thresholds {
		rep := last.reports[ti]
		for si, spec := range specs {
			for wi, name := range names {
				k++
				if (k-1)%16 != 0 {
					continue
				}
				cfg, err := fig8Cell(b.seed, name, spec, th)
				if err != nil {
					return err
				}
				r, err := sim.NewContext().Run(cfg)
				if err != nil {
					b.op(err)
					continue
				}
				got, _ := rep.Rows[wi][2+si].(float64)
				b.check(got == r.CMRPO, "fig8 %s/%s T=%d: figure CMRPO %v, fresh run %v", r.SchemeLabel, name, th, got, r.CMRPO)
			}
		}
	}
	return nil
}

// ---- hammer64 ----

// hammerSpecs is the hammer64 lineup: the paper's SCA and DRCAT next to
// the modern sketch trackers, ABACuS's cross-bank refreshes and DSAC's
// probabilistic counters.
func hammerSpecs() []sim.SchemeSpec {
	return []sim.SchemeSpec{
		{Kind: mitigation.KindSCA, Counters: 128},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		{Kind: mitigation.KindCoMeT, Counters: 2048, Ways: 4},
		{Kind: mitigation.KindABACuS, Counters: 1024},
		{Kind: mitigation.KindStochastic, Counters: 64},
	}
}

const (
	hammerCores   = 64
	hammerReqs    = 20_000 // per core in the end-to-end grid: a pass of a few seconds
	hammerScale   = 0.05
	hammerKernel  = 3
	ledgerHammerR = 10_000 // per core in the ledger cells
)

// hammerCell is one 64-core black cell under a heavy kernel-3 attack blend
// with the oracle on.
func hammerCell(seed uint64, spec sim.SchemeSpec, pattern trace.Pattern, reqPerCore int) sim.Config {
	wl, _ := trace.Lookup("black")
	threshold := 32768 * hammerScale
	return sim.Config{
		Geometry:        dram.Default2Channel(),
		Timing:          dram.DDR3_1600(),
		Cores:           hammerCores,
		RequestsPerCore: reqPerCore,
		Workload:        wl,
		Attack:          &sim.AttackConfig{Kernel: hammerKernel, Mode: trace.Heavy, Pattern: pattern},
		Scheme:          spec,
		Threshold:       uint32(threshold + 0.5),
		ThresholdScale:  hammerScale,
		IntervalNS:      dram.RefreshIntervalNS() * hammerScale,
		Seed:            seed,
		CheckProtection: true,
	}
}

func hammerGrid(seed uint64, reqPerCore int) []runner.Cell {
	var cells []runner.Cell
	for _, p := range []trace.Pattern{trace.PatternDoubleSided, trace.PatternManySided} {
		for _, spec := range hammerSpecs() {
			cfg := hammerCell(seed, spec, p, reqPerCore)
			cells = append(cells, runner.Cell{Tag: fmt.Sprintf("%s/%s", spec.Label(cfg.Threshold), p), Config: cfg, Pair: true})
		}
	}
	return cells
}

func runHammer64(b *bench) error {
	cells := hammerGrid(b.seed, hammerReqs)
	var firsts []sim.Config
	for _, c := range cells[:len(hammerSpecs())] {
		firsts = append(firsts, c.Config)
	}
	var results []runner.CellResult
	var executed int
	walls, jobs, err := b.passes(coldRuns(firsts...), func() ([]float64, error) {
		cache := runner.NewCache()
		eng := runner.Engine{Parallel: 1, Cache: cache, Contexts: runner.NewContextPool()}
		var lat []float64
		last := time.Now()
		eng.OnCell = func(i int, r runner.CellResult, err error) {
			now := time.Now()
			lat = append(lat, float64(now.Sub(last))/1e6)
			last = now
			b.op(err)
		}
		rs, err := eng.Grid(context.Background(), cells)
		if err != nil {
			return nil, err
		}
		results, executed = rs, len(cache.Runs())
		h := sha256.New()
		for _, r := range rs {
			if err := hashResults(h, r.Result, r.Baseline); err != nil {
				return nil, err
			}
		}
		b.setDigest(h)
		return lat, nil
	})
	if err != nil {
		return err
	}
	b.markPeakRSS()
	b.reportPasses("hammer64 per-cell", walls, jobs, float64(executed*hammerCores*hammerReqs), float64(len(cells)))

	for i, r := range results {
		b.checkProtection(cells[i].Config, r.Result)
		if i%16 == 0 {
			b.checkFresh(cells[i].Config, r.Result)
		}
	}
	return nil
}

// ---- sweep8k ----

const sweepSeeds = 8192

// sweepCell is BenchmarkSweep's cell: black on 2 cores × 500 requests,
// DRCAT_64 at T=64 with the oracle on.
func sweepCell(seed uint64) sim.Config {
	wl, _ := trace.Lookup("black")
	return sim.Config{
		Cores:           2,
		RequestsPerCore: 500,
		Workload:        wl,
		Scheme:          sim.SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		Threshold:       64,
		Seed:            seed,
		CheckProtection: true,
	}
}

// sweepSeed is the i-th seed of the sweep for benchmark seed s: each
// benchmark seed owns its own block of consecutive run seeds.
func sweepSeed(s uint64, i int) uint64 { return (s-1)*sweepSeeds + uint64(i) + 1 }

func runSweep8k(b *bench) error {
	// Set-up is a fresh pool's cold first run; each pass sweeps on the
	// pool its last set-up left warm.
	var pool *runner.ContextPool
	setup := func() (func(), error) {
		pool = runner.NewContextPool()
		_, err := pool.Run(sweepCell(sweepSeed(b.seed, 0)))
		return nil, err
	}
	results := make([]sim.Result, sweepSeeds)
	walls, jobs, err := b.passes(setup, func() ([]float64, error) {
		eng := runner.Engine{Parallel: 1, Contexts: pool}
		lat := make([]float64, len(results))
		for i := range results {
			t0 := time.Now()
			r, err := eng.Run(sweepCell(sweepSeed(b.seed, i)))
			lat[i] = float64(time.Since(t0)) / 1e6
			b.op(err)
			results[i] = r
		}
		h := sha256.New()
		if err := hashResults(h, results...); err != nil {
			return nil, err
		}
		b.setDigest(h)
		return lat, nil
	})
	if err != nil {
		return err
	}
	b.markPeakRSS()
	b.reportPasses("sweep8k per-run", walls, jobs, sweepSeeds*1000, sweepSeeds)

	for i, r := range results {
		cfg := sweepCell(sweepSeed(b.seed, i))
		b.checkProtection(cfg, r)
		if i%16 == 0 {
			b.checkFresh(cfg, r)
		}
	}
	return nil
}
