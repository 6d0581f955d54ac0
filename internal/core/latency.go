package core

// Lookup-latency model (paper §VII-A). The paper's synthesis gives an
// average PRCAT lookup of 3.6 ns (circuit latency plus repeated SRAM
// accesses) and 4 ns for DRCAT (the weight-register access is added);
// both are far below DRAM's row-activation latency, and tree updates
// proceed in parallel with the memory access, so lookups are never on the
// critical path. The constants below are calibrated so a typical
// M=64, L=11 tree (4-5 sequential SRAM accesses per lookup) reproduces the
// published averages.
const (
	// SRAMAccessNS is the latency of one sequential SRAM access in the
	// 45 nm node of the paper's synthesis.
	SRAMAccessNS = 0.7

	// LogicOverheadNS is the fixed combinational latency per lookup.
	LogicOverheadNS = 0.6

	// WeightRegisterNS is DRCAT's extra weight-register access per
	// refresh-triggering lookup, amortised per access in the paper's
	// reported 4 ns average.
	WeightRegisterNS = 0.4
)

// AvgLookupNS estimates the average lookup latency from the measured SRAM
// traffic, following the paper's accounting.
func (t *Tree) AvgLookupNS() float64 {
	s := t.stats
	if s.Accesses == 0 {
		return 0
	}
	avgSRAM := float64(s.SRAMAccesses) / float64(s.Accesses)
	lat := LogicOverheadNS + avgSRAM*SRAMAccessNS
	if t.cfg.Policy == DRCAT {
		lat += WeightRegisterNS
	}
	return lat
}

// WorstLookupNS returns the latency of the deepest possible lookup
// (a leaf at level L-1: L - λ + 2 sequential SRAM accesses).
func (t *Tree) WorstLookupNS() float64 {
	lat := LogicOverheadNS + float64(t.sramCost(t.cfg.MaxLevels-1))*SRAMAccessNS
	if t.cfg.Policy == DRCAT {
		lat += WeightRegisterNS
	}
	return lat
}
