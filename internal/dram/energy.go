package dram

// Energy constants used by the crosstalk-mitigation power analysis.
//
// The paper's CMRPO metric (§VI) is defined relative to the regular refresh
// power: "2.5 mW to refresh 64K rows during a 64 ms refresh interval
// [17, 49]", and victim-row refreshes cost "1 nJ per row [60]" (Ghosh &
// Lee, Smart Refresh, MICRO 2007).
const (
	// RowRefreshNJ is the energy to refresh one DRAM row on demand.
	RowRefreshNJ = 1.0

	// RegularRefreshPowerMW is the per-bank regular (auto) refresh power
	// against which CMRPO is normalised.
	RegularRefreshPowerMW = 2.5

	// RefreshIntervalMS is the DDR3 auto-refresh window (tREFW): every row
	// is refreshed once per interval.
	RefreshIntervalMS = 64.0
)

// RefreshIntervalNS returns the auto-refresh window in nanoseconds.
func RefreshIntervalNS() float64 { return RefreshIntervalMS * 1e6 }
