package runner

import (
	"sync"
	"sync/atomic"

	"catsim/internal/sim"
)

// ContextPool hands reusable sim.Contexts to grid workers. Sweeps run
// thousands of same-shape cells; with a pooled context each worker keeps
// its component stack — controller bank state, scheme trees, scratch
// slabs, generator stacks — warm across cells instead of rebuilding it
// per run, which is where most of a sweep's allocation volume goes.
// Safe for concurrent use: each Run checks a context out for the
// duration of the simulation, so a context is never shared between
// in-flight runs.
//
// A plain free-list rather than sync.Pool: contexts are few (bounded by
// worker parallelism), expensive to rebuild, and worth keeping warm
// across GC cycles — exactly the object profile sync.Pool is wrong for.
type ContextPool struct {
	mu     sync.Mutex
	free   []*sim.Context
	builds atomic.Int64
	reuses atomic.Int64
}

// NewContextPool returns an empty pool; contexts are created on demand.
func NewContextPool() *ContextPool { return &ContextPool{} }

// get checks a context out, counting whether it comes warm or fresh.
func (p *ContextPool) get() *sim.Context {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ctx := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		return ctx
	}
	p.mu.Unlock()
	p.builds.Add(1)
	return sim.NewContext()
}

func (p *ContextPool) put(ctx *sim.Context) {
	p.mu.Lock()
	p.free = append(p.free, ctx)
	p.mu.Unlock()
}

// Run executes one simulation on a pooled context and returns a private
// copy of the result (the context's Result aliases its reusable buffers,
// so it must not escape the checkout).
func (p *ContextPool) Run(cfg sim.Config) (sim.Result, error) { return p.RunRecorded(cfg, nil) }

// RunRecorded is Run replaying cfg's closed-loop streams from rec (see
// sim.Context.RunRecorded). A run that panics never returns its context
// to the pool: the stack it was mutating is dropped with the panic.
func (p *ContextPool) RunRecorded(cfg sim.Config, rec *sim.Recording) (sim.Result, error) {
	ctx := p.get()
	res, err := ctx.RunRecorded(cfg, rec)
	if err != nil {
		// A failed run may leave partially built state; the context
		// rebuilds from scratch next time, so pooling it back is safe.
		p.put(ctx)
		return sim.Result{}, err
	}
	res = res.Clone()
	p.put(ctx)
	return res, nil
}

// Stats reports how many pool checkouts found a warm context (reuses)
// versus a fresh one (builds). reuses > 0 is the observable that pooling
// is actually paying: repeated same-shape runs skip setup entirely.
func (p *ContextPool) Stats() (builds, reuses int64) {
	return p.builds.Load(), p.reuses.Load()
}
