package engine

import (
	"fmt"
	"testing"
)

// Scheduler micro-benchmarks: the production tournament tree against the
// heap and linear references. Each iteration is one pick + clock advance —
// the per-request scheduling work — over core counts spanning the paper's
// dual-core baseline to 256-core scenario sweeps. `make bench-engine`
// snapshots these into BENCH_engine.json.

func benchScheduler(b *testing.B, mk func(int) scheduler, cores int) {
	sched := mk(cores)
	now := make([]int64, cores)
	// Pre-draw xorshift deltas; small values force frequent ties so the
	// index tie-break stays on the measured path.
	var deltas [4096]int64
	state := uint64(0x243f6a8885a308d3)
	for i := range deltas {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		deltas[i] = int64(state % 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sched.pick()
		now[c] += deltas[i&4095]
		sched.update(c, now[c])
	}
}

func BenchmarkScheduler(b *testing.B) {
	for _, cores := range []int{2, 8, 64, 256} {
		b.Run(fmt.Sprintf("tournament/%dcores", cores), func(b *testing.B) {
			benchScheduler(b, func(n int) scheduler { return newTournamentScheduler(n) }, cores)
		})
		b.Run(fmt.Sprintf("heap/%dcores", cores), func(b *testing.B) {
			benchScheduler(b, heapSched, cores)
		})
		b.Run(fmt.Sprintf("linear/%dcores", cores), func(b *testing.B) {
			benchScheduler(b, linearSched, cores)
		})
	}
}

// BenchmarkEngineRun measures the full request loop end to end —
// controller, scheme, generator and scheduler together — reporting
// ns/request so runs at different core counts compare directly.
func BenchmarkEngineRun(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		cores int
		sched func(int) scheduler
		batch bool
	}{
		// "default" is the production path: tournament scheduler plus
		// batch-advance (what sim.Run configures). heap and linear run
		// without batching as the reference points.
		{"default", 2, nil, true},
		{"default", 64, nil, true},
		{"heap", 64, heapSched, false},
		{"linear", 64, linearSched, false},
		{"default", 256, nil, true},
	} {
		b.Run(fmt.Sprintf("%s/%dcores", cfg.name, cfg.cores), func(b *testing.B) {
			const reqPerCore = 2000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := makeHarness(b, cfg.cores, reqPerCore, 512, cfg.sched, cfg.batch, 0)
				b.StartTimer()
				if _, err := Run(h.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(
				float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(cfg.cores)*reqPerCore),
				"ns/request")
		})
	}
}

// BenchmarkEngineAllocsPerRequest emits the allocs/request trajectory the
// CI artifact tracks: the differential between two run lengths, which
// cancels setup allocations and must stay at zero (the alloc-gate test
// fails the build otherwise).
func BenchmarkEngineAllocsPerRequest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := allocsForRun(b, 2000)
		large := allocsForRun(b, 12000)
		b.ReportMetric((large-small)/(2*10000), "allocs/request")
	}
	b.ReportMetric(0, "ns/op") // the timing of this meta-benchmark is meaningless
}
