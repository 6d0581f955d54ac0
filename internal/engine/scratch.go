package engine

import "catsim/internal/trace"

// Scratch owns the engine's per-run working memory — the per-bank
// activation tally, the request-budget array, the open-slot pending
// buffers, the scheduler and the epoch sampler (including its sample
// backing array) — so repeated runs of same-shaped configurations reuse
// every slab instead of reallocating it. The zero value is ready: each
// slab grows on first use and is reused whenever its capacity already
// fits, so a Scratch threaded through a seed sweep reaches zero
// steady-state allocations per run after the first.
//
// A Scratch serves one run at a time (no internal locking), and a Result
// produced through one ALIASES it: PerBankActs and Samples share the
// Scratch's backing arrays and are only valid until the Scratch's next
// run. Callers that retain results across runs must copy them first
// (sim.Result.Clone does).
type Scratch struct {
	perBank []int64
	left    []int
	pendReq []trace.Request
	pendAt  []int64
	schedAt []int64

	// smp is the sampler for the current run; samples keeps the grown
	// sample backing between runs.
	smp     sampler
	samples []Sample

	// sched caches the tournament scheduler; reset re-arms it for a run
	// over the same slot count.
	sched *tournamentScheduler
}

// grow reslices buf to n zeroed elements, reallocating only when the
// existing capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// scheduler returns a ready scheduler for n slots: the configured test
// reference when Config.newSched is set, otherwise the cached tournament
// re-armed in place (reset replays its constructor over the existing
// slabs) when the slot count matches.
func (s *Scratch) scheduler(cfg *Config, n int) scheduler {
	if cfg.newSched != nil {
		return cfg.newSched(n)
	}
	if s.sched != nil && s.sched.n == n {
		s.sched.reset()
	} else {
		s.sched = newTournamentScheduler(n)
	}
	return s.sched
}
