package trace

import "fmt"

// The 18 named workloads of the paper's evaluation (§VI): five commercial
// traces plus selected PARSEC, SPEC and Biobench programs from the Memory
// Scheduling Championship. The parameters are chosen to reproduce the
// qualitative row-access behaviour the paper reports — Fig. 3's "a small
// group of rows dominate overall accesses" for blackscholes and facesim,
// streaming for libquantum/streamcluster, large scattered footprints for
// the bio workloads, and phase drift for the multithreaded traces — not to
// replay the original instruction streams.
var presets = []Spec{
	// Commercial server traces: intense, skewed across many hot pages,
	// drifting (the MSC comm traces are the most memory-intensive group).
	{Name: "comm1", Suite: "COMM", FootprintFrac: 0.20, HotSpots: 24, HotSigmaKB: 16, HotFraction: 0.75, SweepFraction: 0.05, PhaseLen: 2_000_000, GapMean: 45, WriteFraction: 0.30, ZipfS: 1.3},
	{Name: "comm2", Suite: "COMM", FootprintFrac: 0.25, HotSpots: 32, HotSigmaKB: 24, HotFraction: 0.70, SweepFraction: 0.05, PhaseLen: 2_000_000, GapMean: 50, WriteFraction: 0.35, ZipfS: 1.3},
	{Name: "comm3", Suite: "COMM", FootprintFrac: 0.15, HotSpots: 16, HotSigmaKB: 12, HotFraction: 0.78, SweepFraction: 0.05, PhaseLen: 1_000_000, GapMean: 42, WriteFraction: 0.30, ZipfS: 1.4},
	{Name: "comm4", Suite: "COMM", FootprintFrac: 0.30, HotSpots: 28, HotSigmaKB: 32, HotFraction: 0.65, SweepFraction: 0.10, PhaseLen: 3_000_000, GapMean: 55, WriteFraction: 0.30, ZipfS: 1.2},
	{Name: "comm5", Suite: "COMM", FootprintFrac: 0.20, HotSpots: 20, HotSigmaKB: 16, HotFraction: 0.72, SweepFraction: 0.05, PhaseLen: 2_000_000, GapMean: 48, WriteFraction: 0.25, ZipfS: 1.3},

	// PARSEC.
	{Name: "swapt", Suite: "PARSEC", FootprintFrac: 0.05, HotSpots: 6, HotSigmaKB: 8, HotFraction: 0.65, SweepFraction: 0, PhaseLen: 0, GapMean: 140, WriteFraction: 0.10, ZipfS: 1.3},
	{Name: "fluid", Suite: "PARSEC", FootprintFrac: 0.20, HotSpots: 12, HotSigmaKB: 16, HotFraction: 0.55, SweepFraction: 0.05, PhaseLen: 4_000_000, GapMean: 100, WriteFraction: 0.20, ZipfS: 1.2},
	{Name: "str", Suite: "PARSEC", FootprintFrac: 0.50, HotSpots: 8, HotSigmaKB: 8, HotFraction: 0.30, SweepFraction: 0.55, PhaseLen: 0, GapMean: 60, WriteFraction: 0.15, ZipfS: 1.1},
	{Name: "black", Suite: "PARSEC", FootprintFrac: 0.06, HotSpots: 10, HotSigmaKB: 6, HotFraction: 0.90, SweepFraction: 0, PhaseLen: 0, GapMean: 70, WriteFraction: 0.10, ZipfS: 1.5},
	{Name: "ferret", Suite: "PARSEC", FootprintFrac: 0.25, HotSpots: 16, HotSigmaKB: 16, HotFraction: 0.60, SweepFraction: 0.05, PhaseLen: 3_000_000, GapMean: 90, WriteFraction: 0.20, ZipfS: 1.2},
	{Name: "face", Suite: "PARSEC", FootprintFrac: 0.30, HotSpots: 24, HotSigmaKB: 12, HotFraction: 0.72, SweepFraction: 0.05, PhaseLen: 1_500_000, GapMean: 55, WriteFraction: 0.25, ZipfS: 1.3},
	{Name: "freq", Suite: "PARSEC", FootprintFrac: 0.20, HotSpots: 14, HotSigmaKB: 12, HotFraction: 0.60, SweepFraction: 0.05, PhaseLen: 2_000_000, GapMean: 85, WriteFraction: 0.20, ZipfS: 1.3},

	// SPEC (the MSC multithreaded canneal/fluidanimate mixes plus
	// libquantum and leslie3d).
	{Name: "MTC", Suite: "SPEC", FootprintFrac: 0.40, HotSpots: 28, HotSigmaKB: 24, HotFraction: 0.60, SweepFraction: 0.10, PhaseLen: 1_000_000, GapMean: 50, WriteFraction: 0.30, ZipfS: 1.2},
	{Name: "MTF", Suite: "SPEC", FootprintFrac: 0.35, HotSpots: 24, HotSigmaKB: 20, HotFraction: 0.62, SweepFraction: 0.05, PhaseLen: 1_500_000, GapMean: 55, WriteFraction: 0.30, ZipfS: 1.2},
	{Name: "libq", Suite: "SPEC", FootprintFrac: 0.60, HotSpots: 4, HotSigmaKB: 8, HotFraction: 0.15, SweepFraction: 0.80, PhaseLen: 0, GapMean: 40, WriteFraction: 0.05, ZipfS: 1.0},
	{Name: "leslie", Suite: "SPEC", FootprintFrac: 0.40, HotSpots: 12, HotSigmaKB: 16, HotFraction: 0.45, SweepFraction: 0.35, PhaseLen: 2_500_000, GapMean: 60, WriteFraction: 0.25, ZipfS: 1.2},

	// Biobench: genome tools with large, scattered working sets.
	{Name: "mum", Suite: "BIO", FootprintFrac: 0.60, HotSpots: 12, HotSigmaKB: 32, HotFraction: 0.42, SweepFraction: 0.20, PhaseLen: 1_000_000, GapMean: 70, WriteFraction: 0.15, ZipfS: 1.2},
	{Name: "tigr", Suite: "BIO", FootprintFrac: 0.65, HotSpots: 14, HotSigmaKB: 40, HotFraction: 0.45, SweepFraction: 0.15, PhaseLen: 1_000_000, GapMean: 68, WriteFraction: 0.15, ZipfS: 1.2},
}

// Workloads returns the 18 named workload specs in the paper's figure order.
func Workloads() []Spec {
	out := make([]Spec, len(presets))
	copy(out, presets)
	return out
}

// WorkloadNames returns the names in figure order.
func WorkloadNames() []string {
	names := make([]string, len(presets))
	for i, s := range presets {
		names[i] = s.Name
	}
	return names
}

// Lookup returns the spec with the given name.
func Lookup(name string) (Spec, error) {
	for _, s := range presets {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("trace: unknown workload %q", name)
}

// MemoryIntensive returns the subset of workloads the attack study blends
// with kernel attacks (§VIII-D uses "memory-intensive workloads").
func MemoryIntensive() []Spec {
	var out []Spec
	for _, s := range presets {
		if s.GapMean <= 100 {
			out = append(out, s)
		}
	}
	return out
}
