// Package trace generates the synthetic memory-request streams that stand
// in for the paper's Memory Scheduling Championship workloads (18 traces
// across COMM / PARSEC / SPEC / BIO) and the 12 kernel attacks of §VIII-D.
//
// Every result in the paper is driven by the row-access frequency
// distribution each bank sees per refresh interval (Fig. 3): a small group
// of rows dominates, with the skew, footprint, streaming behaviour and
// temporal drift differing per workload. Each named workload is therefore a
// parameterised mixture over the physical address space:
//
//   - hot spots: Gaussian clusters of addresses (hot pages/rows) receiving
//     a configurable fraction of accesses with Zipf-like weights;
//   - a sequential sweep component (streaming workloads such as libquantum
//     walk their footprint line by line);
//   - a uniform background over the workload's footprint; and
//   - phase changes: hot spots periodically move, which is what DRCAT's
//     dynamic reconfiguration is designed to track.
//
// Generators emit physical line addresses, not (bank, row) pairs, so the
// same workload exercises different bank/row distributions under different
// address-mapping policies — exactly the effect the paper's §VIII-B mapping
// study measures.
package trace

import (
	"fmt"
	"math"

	"catsim/internal/rng"
)

// Request is one memory request emitted by a core.
type Request struct {
	Addr  int64 // physical byte address (line aligned)
	Write bool
	Gap   int // CPU cycles of compute preceding this request
}

// Generator produces an unbounded request stream for one core.
type Generator interface {
	// Next returns the next request.
	Next() Request
	// Name identifies the stream in reports.
	Name() string
}

// Spec parameterises one synthetic workload.
type Spec struct {
	Name  string
	Suite string // COMM, PARSEC, SPEC or BIO

	// FootprintFrac is the fraction of physical memory the workload
	// touches.
	FootprintFrac float64
	// HotSpots is the number of Gaussian hot clusters.
	HotSpots int
	// HotSigmaKB is the standard deviation of each cluster in kilobytes
	// (a 16 KB sigma concentrates a cluster on about one DRAM row under
	// the baseline mapping).
	HotSigmaKB float64
	// HotFraction is the probability that an access goes to a hot cluster.
	HotFraction float64
	// SweepFraction is the probability that an access comes from the
	// sequential sweep pointer (streaming behaviour).
	SweepFraction float64
	// PhaseLen is the number of accesses between hot-spot relocations
	// (0 = static pattern).
	PhaseLen int
	// GapMean is the mean number of CPU cycles between memory requests
	// (memory intensity; smaller = more intense).
	GapMean int
	// WriteFraction is the probability that a request is a write.
	WriteFraction float64
	// ZipfS is the Zipf exponent for hot-spot weights (spot k receives
	// weight k^-ZipfS); zero selects 1.0. Larger values concentrate
	// traffic on the top spots.
	ZipfS float64
}

// Validate reports an error for nonsensical parameters.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("trace: spec needs a name")
	case s.FootprintFrac <= 0 || s.FootprintFrac > 1:
		return fmt.Errorf("trace: %s: FootprintFrac %v out of (0,1]", s.Name, s.FootprintFrac)
	case s.HotSpots < 0:
		return fmt.Errorf("trace: %s: negative HotSpots", s.Name)
	case s.HotFraction < 0 || s.SweepFraction < 0 || s.HotFraction+s.SweepFraction > 1:
		return fmt.Errorf("trace: %s: hot %v + sweep %v fractions invalid", s.Name, s.HotFraction, s.SweepFraction)
	case s.HotSpots == 0 && s.HotFraction > 0:
		return fmt.Errorf("trace: %s: hot fraction without hot spots", s.Name)
	case s.PhaseLen < 0:
		return fmt.Errorf("trace: %s: negative PhaseLen", s.Name)
	case s.GapMean < 1:
		return fmt.Errorf("trace: %s: GapMean must be at least 1", s.Name)
	case s.WriteFraction < 0 || s.WriteFraction > 1:
		return fmt.Errorf("trace: %s: WriteFraction %v out of [0,1]", s.Name, s.WriteFraction)
	}
	return nil
}

// Synthetic is the mixture-model generator behind every named workload.
type Synthetic struct {
	spec      Spec
	src       *rng.Xoshiro256
	lineBytes int64
	footBase  int64 // footprint start (line aligned)
	footLines int64 // footprint length in lines
	maxBase   int64 // highest footprint start (for Reseed's redraw)
	hotCenter []int64
	hotCum    []float64 // cumulative Zipf-like weights
	sweepLine int64
	accesses  int64
	nextDrift int // round-robin index of the hot spot to move next
}

// NewSynthetic builds a generator over a memory of totalBytes with the
// given line size: it sizes the footprint and the Zipf weights, then ends
// in Reseed(seed). Distinct seeds give distinct address-space layouts, so
// per-core instances model separate processes.
func NewSynthetic(spec Spec, totalBytes int64, lineBytes int, seed uint64) (*Synthetic, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if totalBytes <= 0 || lineBytes <= 0 || totalBytes%int64(lineBytes) != 0 {
		return nil, fmt.Errorf("trace: invalid memory size %d / line %d", totalBytes, lineBytes)
	}
	g := &Synthetic{spec: spec, src: new(rng.Xoshiro256), lineBytes: int64(lineBytes)}
	totalLines := totalBytes / g.lineBytes
	g.footLines = int64(float64(totalLines) * spec.FootprintFrac)
	if g.footLines < 1 {
		g.footLines = 1
	}
	if g.footLines > totalLines {
		g.footLines = totalLines
	}
	g.maxBase = totalLines - g.footLines
	zipf := spec.ZipfS
	if zipf == 0 {
		zipf = 1
	}
	g.hotCenter = make([]int64, spec.HotSpots)
	g.hotCum = make([]float64, spec.HotSpots)
	sum := 0.0
	for i := range g.hotCum {
		sum += math.Pow(float64(i+1), -zipf) // Zipf: spot k gets weight k^-s
		g.hotCum[i] = sum
	}
	for i := range g.hotCum {
		g.hotCum[i] /= sum
	}
	g.Reseed(seed)
	return g, nil
}

// Reseed seeds the generator for a run, without allocating: the RNG
// restarts and the footprint base, hot-spot centres and sweep pointer are
// drawn in that order (the Zipf weights depend only on the spec and
// stand). NewSynthetic ends in it, and run contexts use it to reuse
// generators across seed-sweep runs.
func (g *Synthetic) Reseed(seed uint64) {
	g.src.Seed(seed)
	g.footBase = 0
	if g.maxBase > 0 {
		g.footBase = int64(rng.Float64(g.src) * float64(g.maxBase))
	}
	for i := range g.hotCenter {
		g.hotCenter[i] = g.randomFootprintLine()
	}
	g.sweepLine = g.randomFootprintLine()
	g.accesses = 0
	g.nextDrift = 0
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.spec.Name }

func (g *Synthetic) randomFootprintLine() int64 {
	return g.footBase + int64(rng.Float64(g.src)*float64(g.footLines))
}

// foldIntoFootprint reflects an arbitrary line index back into the
// footprint so Gaussian tails do not escape the working set.
func (g *Synthetic) foldIntoFootprint(line int64) int64 {
	rel := line - g.footBase
	n := g.footLines
	rel %= 2 * n
	if rel < 0 {
		rel += 2 * n
	}
	if rel >= n {
		rel = 2*n - 1 - rel
	}
	return g.footBase + rel
}

// Next implements Generator.
func (g *Synthetic) Next() Request {
	s := &g.spec
	g.accesses++
	if s.PhaseLen > 0 && g.accesses%int64(s.PhaseLen) == 0 && len(g.hotCenter) > 0 {
		// Phase change: relocate one hot spot (round robin), modelling the
		// temporal drift DRCAT tracks (§V).
		g.hotCenter[g.nextDrift] = g.randomFootprintLine()
		g.nextDrift = (g.nextDrift + 1) % len(g.hotCenter)
	}

	var line int64
	u := rng.Float64(g.src)
	switch {
	case u < s.HotFraction:
		// Pick a hot spot by its Zipf-like weight, then a Gaussian offset.
		v := rng.Float64(g.src)
		k := 0
		for k < len(g.hotCum)-1 && v > g.hotCum[k] {
			k++
		}
		sigmaLines := s.HotSigmaKB * 1024 / float64(g.lineBytes)
		off := int64(math.Round(rng.NormFloat64(g.src) * sigmaLines))
		line = g.foldIntoFootprint(g.hotCenter[k] + off)
	case u < s.HotFraction+s.SweepFraction:
		g.sweepLine++
		if g.sweepLine >= g.footBase+g.footLines {
			g.sweepLine = g.footBase
		}
		line = g.sweepLine
	default:
		line = g.randomFootprintLine()
	}

	// Geometric think time with the configured mean.
	gap := 1
	if s.GapMean > 1 {
		gap = 1 + int(-float64(s.GapMean-1)*math.Log(1-rng.Float64(g.src)))
	}
	return Request{
		Addr:  line * g.lineBytes,
		Write: rng.Float64(g.src) < s.WriteFraction,
		Gap:   gap,
	}
}
