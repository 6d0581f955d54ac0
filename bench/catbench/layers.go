package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/server"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// This file drives -trace 1: each workload's ledger cells go through the
// per-run layers (runner cache and context pool, timed per run) and then
// the record-and-replay ledger. A layer a workload never reaches reports
// 0, which the README's layer map spells out.

// schemeKey names a lineup entry the way the per-scheme ledger rows do
// ("drcat64"), or "" for entries without a row.
func schemeKey(s sim.SchemeSpec) string {
	prefix := map[mitigation.Kind]string{
		mitigation.KindSCA: "sca", mitigation.KindPRCAT: "prcat", mitigation.KindDRCAT: "drcat",
		mitigation.KindCoMeT: "comet", mitigation.KindABACuS: "abacus", mitigation.KindStochastic: "dsac",
	}
	if s.Kind == mitigation.KindPRA {
		return "pra"
	}
	if p, ok := prefix[s.Kind]; ok {
		return fmt.Sprintf("%s%d", p, s.Counters)
	}
	return ""
}

// traceCells runs the traced measurement over a workload's ledger cells;
// pair additionally runs each cell's no-mitigation baseline through the
// cache, as the workload's end-to-end grid does.
func (b *bench) traceCells(cells []sim.Config, pair bool) error {
	results, runUS, err := b.perRun(cells, pair)
	if err != nil {
		return err
	}
	var reqs, engineNS, recordNS, fixedUS float64
	layers := map[string]float64{}
	schemeNS, schemeReqs := map[string]float64{}, map[string]float64{}
	var busy, lat, rows, acts float64
	for i, cfg := range cells {
		cl, err := measureCell(cfg, results[i])
		if err != nil {
			return fmt.Errorf("ledger cell %d (%s seed %d): %w", i, results[i].SchemeLabel, cfg.Seed, err)
		}
		b.op(nil)
		reqs += float64(cl.requests)
		engineNS += cl.engine
		recordNS += cl.record
		fixedUS += runUS[i] - cl.engine/1e3
		for name, ns := range cl.layers {
			layers[name] += ns
		}
		if k := schemeKey(cfg.Scheme); k != "" {
			schemeNS[k] += cl.layers["mitigation.ns_per_req"]
			schemeReqs[k] += float64(cl.requests)
		}
		r := results[i]
		busy += r.VictimBusyFrac
		lat += r.AvgReadLatencyNS
		rows += float64(r.Counts.RowsRefreshed)
		acts += float64(r.Counts.Activations)
	}
	self := engineNS
	for _, name := range []string{"trace.ns_per_req", "workload.ns_per_req", "workload.attr_ns_per_req",
		"addrmap.ns_per_req", "memctrl.ns_per_req", "mitigation.ns_per_req", "mitigation.oracle_ns_per_req"} {
		b.set(name, layers[name]/reqs)
		self -= layers[name]
	}
	b.set("engine.ns_per_req", engineNS/reqs)
	b.set("engine.self_ns_per_req", self/reqs)
	for _, k := range schemeKeys {
		v := 0.0
		if schemeReqs[k] > 0 {
			v = schemeNS[k] / schemeReqs[k]
		}
		b.set("mitigation.ns_per_act."+k, v)
	}
	n := float64(len(cells))
	b.set("memctrl.victim_busy_frac", busy/n)
	b.set("memctrl.avg_read_latency_ns", lat/n)
	b.set("mitigation.refresh_rows_per_kact", 1000*rows/acts)
	b.set("sim.fixed_us_per_run", fixedUS/n)
	b.set("bench.trace_overhead_frac", recordNS/engineNS-1)
	fmt.Fprintf(os.Stderr, "catbench: %s ledger: %d cells, %.0f requests, engine %.1f ns/request\n",
		b.name, len(cells), reqs, engineNS/reqs)
	return nil
}

// perRun runs every cell (and, with pair, its baseline) through a runner
// cache on a pooled run context, timing each executed run, and records the
// per-run layer metrics. It returns each cell's Result and its run time in
// microseconds.
func (b *bench) perRun(cells []sim.Config, pair bool) ([]sim.Result, []float64, error) {
	cache := runner.NewCache()
	pool := runner.NewContextPool()
	var runs []float64
	timed := func(cfg sim.Config) (sim.Result, error) {
		t0 := time.Now()
		r, err := pool.Run(cfg)
		runs = append(runs, float64(time.Since(t0))/1e3)
		return r, err
	}
	// The runtime publishes GC CPU time at each collection; the process's
	// own CPU time is the denominator, so a window without a collection
	// reads 0 rather than 0/0.
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	before := make([]float64, len(samples))
	for i, s := range samples {
		before[i] = metricFloat(s.Value)
	}
	cpu0 := processCPU()
	results := make([]sim.Result, len(cells))
	cellUS := make([]float64, len(cells))
	calls := 0
	for i, cfg := range cells {
		n := len(runs)
		r, err := cache.RunWith(cfg, timed)
		calls++
		b.op(err)
		if err != nil {
			return nil, nil, err
		}
		if len(runs) > n {
			cellUS[i] = runs[n]
		}
		results[i] = r
		b.checkProtection(cfg, r)
		if pair {
			base := cfg
			base.Scheme = sim.SchemeSpec{Kind: mitigation.KindNone}
			_, err := cache.RunWith(base, timed)
			calls++
			b.op(err)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	cpu := processCPU() - cpu0
	metrics.Read(samples)
	delta := make([]float64, len(samples))
	for i, s := range samples {
		delta[i] = metricFloat(s.Value) - before[i]
	}
	executed := float64(len(runs))
	builds, reuses := pool.Stats()
	b.set("sim.run_us_p50", percentile(runs, 50))
	b.set("sim.run_us_p99", percentile(runs, 99))
	b.set("runner.pool_reuse_ratio", float64(reuses)/float64(builds+reuses))
	b.set("runner.cache_hit_ratio", float64(cache.Hits())/float64(calls))
	b.set("go.allocs_per_run", delta[0]/executed)
	b.set("go.alloc_bytes_per_run", delta[1]/executed)
	b.set("go.gc_cpu_frac", delta[2]/cpu)
	return results, cellUS, nil
}

func metricFloat(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return math.NaN()
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// noServer reports the server layers as untouched: the workload never
// reaches them.
func (b *bench) noServer() {
	for _, name := range []string{"server.submit_ms_p50", "server.first_line_ms_p50", "server.first_line_ms_p95",
		"server.stream_ms_p50", "server.cache_hit_ratio", "server.context_reuse_ratio", "loadgen.late_ms_max"} {
		b.set(name, 0)
	}
}

func traceFig8(b *bench) error {
	var cells []sim.Config
	for _, spec := range fig8Specs() {
		for _, name := range []string{"black", "comm1"} {
			cfg, err := fig8Cell(b.seed, name, spec, 16384)
			if err != nil {
				return err
			}
			cells = append(cells, cfg)
		}
	}
	b.noServer()
	return b.traceCells(cells, true)
}

func traceHammer64(b *bench) error {
	var cells []sim.Config
	for _, spec := range hammerSpecs() {
		cells = append(cells, hammerCell(b.seed, spec, trace.PatternDoubleSided, ledgerHammerR))
	}
	b.noServer()
	return b.traceCells(cells, true)
}

// ledgerSweepSeeds is how many of the sweep's seeds the ledger replays.
const ledgerSweepSeeds = 256

func traceSweep8k(b *bench) error {
	cells := make([]sim.Config, ledgerSweepSeeds)
	for i := range cells {
		cells[i] = sweepCell(sweepSeed(b.seed, i))
	}
	b.noServer()
	return b.traceCells(cells, false)
}

// ledgerJobs is how many distinct server jobs the server-ol ledger and
// server probe use.
const ledgerJobs = 16

func traceServerOL(b *bench) error {
	// The server probe: the ledger's jobs plus their cache-hit
	// re-submissions, at phase A's arrival rate.
	jobs, due := phaseA(b.seed, 0, time.Duration(math.MaxInt64), ledgerJobs+ledgerJobs/7)
	s, err := startServer()
	if err != nil {
		return err
	}
	out, late := s.openLoop(jobs, due)
	stats, err := s.stats()
	b.checkJobs(s, jobs, out, 0)
	s.close()
	if err != nil {
		return err
	}
	var submit, first, stream []float64
	for i := range out {
		o := &out[i]
		submit = append(submit, float64(o.posted.Sub(o.start))/1e6)
		first = append(first, float64(o.first.Sub(o.posted))/1e6)
		stream = append(stream, float64(o.done.Sub(o.first))/1e6)
	}
	b.set("server.submit_ms_p50", percentile(submit, 50))
	b.set("server.first_line_ms_p50", percentile(first, 50))
	b.set("server.first_line_ms_p95", percentile(first, 95))
	b.set("server.stream_ms_p50", percentile(stream, 50))
	b.set("server.cache_hit_ratio", 1-float64(stats["engine_runs"])/float64(len(jobs)))
	b.set("server.context_reuse_ratio", float64(stats["context_reuses"])/float64(stats["context_builds"]+stats["context_reuses"]))
	b.set("loadgen.late_ms_max", float64(late)/1e6)

	var cells []sim.Config
	seen := map[server.JobRequest]bool{}
	for _, req := range jobs {
		if seen[req] {
			continue
		}
		seen[req] = true
		cfg, err := req.Config()
		if err != nil {
			return err
		}
		// Epoch sampling is observation only; the ledger measures the
		// simulation underneath it.
		cfg.EpochNS = 0
		cells = append(cells, cfg)
	}
	return b.traceCells(cells, false)
}

// stats reads the server's /v1/stats counters.
func (s *svc) stats() (map[string]int64, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %s", resp.Status)
	}
	var out map[string]int64
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
