// Benchmarks: one per table and figure of the paper's evaluation (the
// regeneration harness at reduced scale — cmd/experiments runs the full
// versions), plus micro-benchmarks of the core data structures.
package catsim

import (
	"io"
	"testing"

	"catsim/internal/core"
	"catsim/internal/experiments"
	"catsim/internal/mitigation"
	"catsim/internal/reliability"
	"catsim/internal/rng"
	"catsim/internal/runner"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

// benchOpts is the reduced-scale configuration for figure benches.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:     0.02,
		Seed:      1,
		Workloads: []string{"black", "comm1"},
		Quiet:     true,
	}
}

// --- Micro-benchmarks: the structures on the per-activation hot path. ---

func BenchmarkTreeAccessUniform(b *testing.B) {
	tree, err := core.NewTree(core.Config{
		Rows: 1 << 16, Counters: 64, MaxLevels: 11,
		RefreshThreshold: 32768, Policy: core.DRCAT,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewXoshiro256(1)
	rows := make([]int, 4096)
	for i := range rows {
		rows[i] = rng.Intn(src, 1<<16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Access(rows[i&4095])
	}
}

func BenchmarkTreeAccessHammer(b *testing.B) {
	tree, err := core.NewTree(core.Config{
		Rows: 1 << 16, Counters: 64, MaxLevels: 11,
		RefreshThreshold: 32768, Policy: core.DRCAT,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Access(31337)
	}
}

func BenchmarkSCAAccess(b *testing.B) {
	s, err := mitigation.NewSCA(16, 1<<16, 64, 32768)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnActivate(i&15, (i*2654435761)&(1<<16-1))
	}
}

func BenchmarkPRAAccess(b *testing.B) {
	p, err := mitigation.NewPRA(1<<16, 0.002, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnActivate(0, i&(1<<16-1))
	}
}

func BenchmarkWorkloadGenerator(b *testing.B) {
	wl, _ := trace.Lookup("comm1")
	gen, err := trace.NewSynthetic(wl, 16<<30, 64, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkFullSystemSimulation(b *testing.B) {
	wl, _ := trace.Lookup("comm1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Cores: 2, RequestsPerCore: 50_000, Workload: wl,
			Scheme:    sim.SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
			Threshold: 1024, ThresholdScale: 0.03, IntervalNS: 2e6, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Counts.Activations), "requests/op")
	}
}

// --- Runner engine: the sequential path vs the worker pool + cache. ---
// Comparing these two pairs is the repo's standing speedup measurement:
// identical grids, identical output, different wall-clock. Every variant
// records each workload's closed-loop streams once per grid and replays
// them to the grid's schemes (the stream memo behind experiments' grids),
// so NoCache turns off only result memoization: its baselines run again
// per scheme, on the same recorded streams.

func BenchmarkFig8GridSequentialNoCache(b *testing.B) {
	o := benchOpts()
	o.Parallel = 1
	o.NoCache = true
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(o, 16384); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8GridParallelCached(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(o, 16384); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReproduceFigs89SequentialNoCache(b *testing.B) {
	o := benchOpts()
	o.Parallel = 1
	o.NoCache = true
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig8", o); err != nil {
			b.Fatal(err)
		}
		if err := RunExperiment(io.Discard, "fig9", o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReproduceFigs89ParallelCached(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		o.Cache = runner.NewCache() // one shared cache per reproduction
		if err := RunExperiment(io.Discard, "fig8", o); err != nil {
			b.Fatal(err)
		}
		if err := RunExperiment(io.Discard, "fig9", o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table/figure. ---

func BenchmarkTable1SystemConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "table1", ExperimentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2HardwareModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "table2", ExperimentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1PRAUnsurvivability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig1", ExperimentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1LFSRMonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := reliability.MonteCarloLFSR(reliability.MonteCarloConfig{
			T: 16384, P: 0.005, Q0: 20, Intervals: 2, Trials: 10,
			Rotate: 1, SeedBase: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2SCAEnergySweep(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig2", o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3RowHistograms(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig3", o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8CMRPO(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(o, 16384); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ETO(b *testing.B) {
	// Fig. 9 derives from the same paired runs as Fig. 8 at T=32K.
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(o, 32768); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10CounterDepthSweep(b *testing.B) {
	o := benchOpts()
	o.Workloads = []string{"black"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(o, 32768); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11MappingAndCores(b *testing.B) {
	o := benchOpts()
	o.Workloads = []string{"black"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(o, 16384); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ThresholdSweep(b *testing.B) {
	o := benchOpts()
	o.Workloads = []string{"black"}
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig12", o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13KernelAttacks(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig13", o); err != nil {
			b.Fatal(err)
		}
	}
}
