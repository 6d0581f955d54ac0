package sim

import (
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/trace"
)

// BenchmarkSweep measures sweep throughput — the many-runs-one-cell shape
// behind every seed sweep and runner grid. Each iteration is one full
// 256-seed sweep of a single cell; runs/sec and allocs/run are the
// headline metrics. "fresh" builds one new Context per run (what sim.Run
// does), "reuse" rewinds one Context per seed — the two produce
// byte-identical Results (locked by TestContextReuseByteIdentical), so the
// delta is pure setup cost.
func BenchmarkSweep(b *testing.B) {
	wl, err := trace.Lookup("black")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Cores:           2,
		RequestsPerCore: 500,
		Workload:        wl,
		Scheme:          SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		Threshold:       64,
		Seed:            1,
		CheckProtection: true,
	}
	const seeds = 256
	report := func(b *testing.B, runs int64) {
		b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for seed := uint64(1); seed <= seeds; seed++ {
				c := cfg
				c.Seed = seed
				if _, err := Run(c); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b, int64(b.N)*seeds)
	})
	b.Run("reuse", func(b *testing.B) {
		ctx := NewContext()
		// Warm outside the window so steady-state allocs/run is the
		// number reported (slab growth happens on the first runs).
		c := cfg
		if _, err := ctx.Run(c); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for seed := uint64(1); seed <= seeds; seed++ {
				c.Seed = seed
				if _, err := ctx.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b, int64(b.N)*seeds)
	})
}
