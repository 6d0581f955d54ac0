// Package runner executes grids of simulation cells — the
// workload × scheme × threshold sweeps behind every figure of the paper's
// evaluation — on a bounded worker pool. Results come back in stable cell
// order regardless of GOMAXPROCS or scheduling, so rendered tables are
// byte-identical at any parallelism; grids honour context cancellation and
// aggregate per-cell errors instead of stopping at the first one. A
// memoizing Cache (see cache.go) deduplicates shared runs, most notably
// the KindNone baselines that every paired cell re-derives, and a grid
// draws each request stream that several of its cells share once (see
// streams.go).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"catsim/internal/mitigation"
	"catsim/internal/sim"
)

// Engine runs cells with bounded parallelism and optional memoization.
// The zero value runs at GOMAXPROCS with no cache.
type Engine struct {
	// Parallel caps concurrently executing cells (0 = GOMAXPROCS,
	// 1 = strictly sequential).
	Parallel int
	// Cache memoizes sim.Run results by canonical config key; nil runs
	// every cell from scratch.
	Cache *Cache
	// Contexts, when non-nil, executes cells on pooled reusable run
	// contexts (sim.Context), eliminating per-cell setup allocations across
	// the grid; nil runs each cell on a one-shot context (sim.Run). Results
	// are identical either way (the context-reuse identity contract).
	Contexts *ContextPool
	// OnCell, when non-nil, is called after every cell completes
	// (successfully or with err set, in which case r is zero), from
	// whichever worker ran it. Callbacks sharing state must synchronise
	// themselves; completion order is stream-key-major (see Grid) and
	// scheduling-dependent.
	OnCell func(i int, r CellResult, err error)
}

// Cell is one point of an experiment grid.
type Cell struct {
	// Tag identifies the cell in error messages ("DRCAT_64/black").
	Tag string
	// Config is the run to execute.
	Config sim.Config
	// Pair additionally runs the KindNone baseline with the identical
	// request streams and reports the execution-time overhead, like
	// sim.RunPair. Baselines are shared through the cache across every
	// cell (and figure) that needs them.
	Pair bool
}

// CellResult is the measured outcome of one cell.
type CellResult struct {
	Tag      string
	Result   sim.Result
	Baseline sim.Result // zero unless Cell.Pair
	ETO      float64    // zero unless Cell.Pair
}

// Grid executes every cell and returns results in cell order. All cells
// are attempted even when some fail; the returned error joins every
// per-cell failure, each prefixed with its tag. A cancelled context stops
// dispatching new cells and surfaces the context error.
//
// Cells run stream-key-major, not in cell order: the cells that draw the
// same closed-loop request streams (sim.SameStream) are dispatched
// together, and the first of them with a run to execute records the
// streams once (sim.Recording), which every run of the key, paired
// baselines included, then replays instead of generating and decoding
// them again. Results are identical either way.
func (e *Engine) Grid(ctx context.Context, cells []Cell) ([]CellResult, error) {
	return e.grid(ctx, cells, newStreamMemo(cells))
}

// grid is Grid with the stream memo m built over cells.
func (e *Engine) grid(ctx context.Context, cells []Cell, m *streamMemo) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	_, err := Map(ctx, e.Parallel, len(cells), func(k int) (struct{}, error) {
		i := m.order[k]
		c := cells[i]
		var rec *sim.Recording
		if !e.cached(c) {
			rec = m.acquire(i, c.Config)
		}
		r, err := e.runCell(c, rec)
		m.release(i)
		if e.OnCell != nil {
			e.OnCell(i, r, err)
		}
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", c.Tag, err)
		}
		results[i] = r
		return struct{}{}, nil
	})
	return results, errors.Join(append(errs, err)...)
}

// baselineConfig derives the KindNone baseline run for a paired cell:
// identical streams, mitigation disabled (sim.RunPair's derivation).
func baselineConfig(cfg sim.Config) sim.Config {
	cfg.Scheme = sim.SchemeSpec{Kind: mitigation.KindNone}
	return cfg
}

// eto is the execution-time overhead of a scheme run over its baseline.
func eto(scheme, baseline sim.Result) float64 {
	if baseline.ExecNS <= 0 {
		return 0
	}
	return (scheme.ExecNS - baseline.ExecNS) / baseline.ExecNS
}

// runCell executes one cell — its run and, for a paired cell, its
// baseline, both replaying rec when it is set — through the engine's
// context pool and cache.
func (e *Engine) runCell(c Cell, rec *sim.Recording) (CellResult, error) {
	res, err := e.run(c.Config, rec)
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{Tag: c.Tag, Result: res}
	if c.Pair {
		baseline, err := e.run(baselineConfig(c.Config), rec)
		if err != nil {
			return CellResult{}, fmt.Errorf("baseline: %w", err)
		}
		out.Baseline = baseline
		out.ETO = eto(res, baseline)
	}
	return out, nil
}

// Pair runs cfg against its KindNone baseline like sim.RunPair, but as
// two engine runs that may execute concurrently (subject to Parallel) and
// through the cache. Single-run callers (cmd/catsim) use this; grid
// callers set Cell.Pair instead.
func (e *Engine) Pair(ctx context.Context, cfg sim.Config) (CellResult, error) {
	configs := []sim.Config{cfg, baselineConfig(cfg)}
	res, err := Map(ctx, e.Parallel, len(configs), func(i int) (sim.Result, error) {
		return e.Run(configs[i])
	})
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Result: res[0], Baseline: res[1], ETO: eto(res[0], res[1])}, nil
}

// Run executes one simulation through the engine's context pool and
// cache (directly when neither is configured).
func (e *Engine) Run(cfg sim.Config) (sim.Result, error) { return e.run(cfg, nil) }

// run is Run replaying cfg's closed-loop streams from rec when it is set.
func (e *Engine) run(cfg sim.Config, rec *sim.Recording) (sim.Result, error) {
	run := func(cfg sim.Config) (sim.Result, error) {
		if e.Contexts != nil {
			return e.Contexts.RunRecorded(cfg, rec)
		}
		return sim.NewContext().RunRecorded(cfg, rec)
	}
	if e.Cache == nil {
		return run(cfg)
	}
	return e.Cache.RunWith(cfg, run)
}

// cached reports whether the cache already holds, or is computing, every
// run cell c needs, so executing c draws no request streams.
func (e *Engine) cached(c Cell) bool {
	if e.Cache == nil || !e.Cache.has(c.Config) {
		return false
	}
	return !c.Pair || e.Cache.has(baselineConfig(c.Config))
}

// Map runs fn(0..n-1) on at most `parallel` workers (0 = GOMAXPROCS) and
// returns the results in index order. Every index is attempted unless the
// context is cancelled first; errors are joined. It is the generic engine
// under Grid, exported for sweeps whose unit of work is not a sim.Config
// (e.g. the Fig. 2 stream replays and the ablation variants).
func Map[T any](ctx context.Context, parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential reference path: identical semantics, no goroutines.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			out[i], errs[i] = fn(i)
		}
		return out, errors.Join(errs...)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return out, errors.Join(errs...)
}
