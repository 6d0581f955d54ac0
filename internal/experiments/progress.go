package experiments

import (
	"fmt"
	"sync"

	"catsim/internal/runner"
)

// grid runs cells on the options' engine and returns their results in
// cell order. The cells form consecutive groups of the given sizes; when
// progress is on (o.Progress set, not Quiet), line(g, done) renders group
// g's progress line from its results, written as soon as groups 0..g have
// all completed. A nil line runs without progress. Call after fill.
func (o *Options) grid(cells []runner.Cell, sizes []int, line func(g int, done []runner.CellResult) string) ([]runner.CellResult, error) {
	e := o.engine()
	if line != nil && o.Progress != nil && !o.Quiet {
		e.OnCell = newProgressGroups(sizes, func(g int, done []runner.CellResult) {
			fmt.Fprintf(o.Progress, "  %s\n", line(g, done))
		}).done
	}
	return e.Grid(o.Context, cells)
}

// barMeans returns the mean CMRPO and ETO of each run of n consecutive
// results: one bar per scheme (or system, kernel set) over its workloads.
func barMeans(results []runner.CellResult, n int) (cmrpo, eto []float64) {
	cmrpo = make([]float64, len(results)/n)
	eto = make([]float64, len(results)/n)
	for i, r := range results {
		cmrpo[i/n] += r.Result.CMRPO
		eto[i/n] += r.ETO
	}
	for b := range cmrpo {
		cmrpo[b] /= float64(n)
		eto[b] /= float64(n)
	}
	return cmrpo, eto
}

// progressGroups turns the runner's unordered cell completions into the
// deterministic per-group progress lines the sequential sweeps printed:
// group g's line is emitted as soon as groups 0..g have all completed, so
// long sweeps report progress while still running, yet the bytes written
// are identical at every parallelism (and to the sequential path, where
// groups naturally finish in order).
type progressGroups struct {
	mu      sync.Mutex
	groupOf []int               // cell index -> group
	starts  []int               // group -> first cell index
	remain  []int               // cells left per group
	failed  []bool              // group had an errored cell
	vals    []runner.CellResult // per cell, filled as cells complete
	next    int                 // first group not yet emitted
	emit    func(g int, cells []runner.CellResult)
}

// newProgressGroups builds an emitter for consecutive cell groups of the
// given sizes. emit receives the group's cells in cell order, after every
// cell of the group (and of all earlier groups) has completed.
func newProgressGroups(sizes []int, emit func(g int, cells []runner.CellResult)) *progressGroups {
	p := &progressGroups{
		emit:   emit,
		remain: append([]int(nil), sizes...),
		failed: make([]bool, len(sizes)),
	}
	total := 0
	for g, n := range sizes {
		p.starts = append(p.starts, total)
		for j := 0; j < n; j++ {
			p.groupOf = append(p.groupOf, g)
		}
		total += n
	}
	p.starts = append(p.starts, total)
	p.vals = make([]runner.CellResult, total)
	return p
}

func (p *progressGroups) done(i int, r runner.CellResult, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vals[i] = r
	g := p.groupOf[i]
	if err != nil {
		p.failed[g] = true
	}
	p.remain[g]--
	for p.next < len(p.remain) && p.remain[p.next] == 0 {
		n := p.next
		// A group with an errored cell would print zero-valued means; its
		// error surfaces from Grid instead, so suppress the line.
		if !p.failed[n] {
			p.emit(n, p.vals[p.starts[n]:p.starts[n+1]])
		}
		p.next++
	}
}

// uniform returns n copies of size, the common group shape (one group per
// scheme/system/threshold, one cell per workload or kernel).
func uniform(n, size int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}
