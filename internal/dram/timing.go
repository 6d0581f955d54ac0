package dram

import "fmt"

// Timing holds the DDR3 timing constraints the controller respects, expressed
// in memory-bus cycles (800 MHz => 1.25 ns per cycle for DDR3-1600, the
// paper's Table I configuration). The values follow the Micron DDR3 SDRAM
// MT41J512M8 data sheet the paper cites [49].
type Timing struct {
	BusMHz int // memory bus frequency (command clock)

	TRCD   int // ACTIVATE to internal READ/WRITE delay
	TRP    int // PRECHARGE to ACTIVATE delay
	TCAS   int // READ to first data (CL)
	TCWD   int // WRITE to first data (CWL)
	TRAS   int // ACTIVATE to PRECHARGE (minimum row-open time)
	TRC    int // ACTIVATE to ACTIVATE, same bank (TRAS + TRP)
	TBurst int // data-bus occupancy per 64B line (BL8, DDR => 4 cycles)
	TRRD   int // ACTIVATE to ACTIVATE, different banks, same rank
	TFAW   int // rolling four-activate window per rank
	TWR    int // write recovery before PRECHARGE
	TRFC   int // auto-REFRESH command duration
	TREFI  int // average interval between auto-REFRESH commands
}

// DDR3_1600 returns the baseline timing (in 800 MHz bus cycles).
func DDR3_1600() Timing {
	return Timing{
		BusMHz: 800,
		TRCD:   11,
		TRP:    11,
		TCAS:   11,
		TCWD:   8,
		TRAS:   28,
		TRC:    39,
		TBurst: 4,
		TRRD:   5,
		TFAW:   24,
		TWR:    12,
		TRFC:   208,  // 260 ns for a 4 Gb device
		TREFI:  6240, // 7.8 us
	}
}

// CycleNS returns the duration of one bus cycle in nanoseconds.
func (t Timing) CycleNS() float64 { return 1000 / float64(t.BusMHz) }

// RowRefreshCycles is the bank-busy time to refresh a single row on demand
// (an internal ACTIVATE+PRECHARGE pair): tRC. Victim-row refreshes issued by
// the mitigation schemes are modelled as sequences of these.
func (t Timing) RowRefreshCycles() int { return t.TRC }

// Validate reports an error for inconsistent parameters.
func (t Timing) Validate() error {
	if t.BusMHz <= 0 {
		return errf("BusMHz must be positive, got %d", t.BusMHz)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"TRCD", t.TRCD}, {"TRP", t.TRP}, {"TCAS", t.TCAS}, {"TCWD", t.TCWD},
		{"TRAS", t.TRAS}, {"TRC", t.TRC}, {"TBurst", t.TBurst}, {"TRRD", t.TRRD},
		{"TFAW", t.TFAW}, {"TWR", t.TWR}, {"TRFC", t.TRFC}, {"TREFI", t.TREFI},
	} {
		if f.v <= 0 {
			return errf("%s must be positive, got %d", f.name, f.v)
		}
	}
	if t.TRC < t.TRAS+t.TRP {
		return errf("TRC=%d < TRAS+TRP=%d", t.TRC, t.TRAS+t.TRP)
	}
	if t.TFAW < t.TRRD {
		return errf("TFAW=%d < TRRD=%d", t.TFAW, t.TRRD)
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("dram: "+format, args...)
}
