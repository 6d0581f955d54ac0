// Package dram models the DRAM devices the paper's evaluation targets: the
// organisation (channels, ranks, banks, rows), Micron DDR3-1600 timing, the
// per-bank state needed by a closed-page memory controller, and the energy
// constants the crosstalk-mitigation power analysis depends on.
//
// The paper's system (Table I): 16 GB over 2 channels (one 8 GB DIMM each),
// 1 rank/channel, 8 banks/rank, 64K rows/bank, 64 B cache lines, 800 MHz
// bus, closed-page FR-FCFS. The quad-core configurations of §VIII-B double
// the rows per bank to 128K, and the 4-channel mapping quadruples the
// channel count while keeping bank size fixed.
package dram

import (
	"fmt"
	"math/bits"
)

// Geometry describes the physical organisation of the memory system.
type Geometry struct {
	Channels    int // independent memory channels
	RanksPerCh  int // ranks per channel
	BanksPerRk  int // banks per rank
	RowsPerBank int // DRAM rows per bank
	ColBytes    int // bytes per row (row buffer size)
	LineBytes   int // cache-line (transfer) size
}

// Default2Channel is the paper's baseline dual-core organisation (Table I).
func Default2Channel() Geometry {
	return Geometry{
		Channels:    2,
		RanksPerCh:  1,
		BanksPerRk:  8,
		RowsPerBank: 64 * 1024,
		ColBytes:    16 * 1024, // 16 GB / 16 banks / 64K rows

		LineBytes: 64,
	}
}

// Default4Channel is the 4-channel mapping policy of §VIII-B: bank size is
// kept fixed, so the number of banks in the system quadruples relative to
// the 2-channel baseline (16 -> 64 banks).
func Default4Channel() Geometry {
	g := Default2Channel()
	g.Channels = 4
	g.RanksPerCh = 2
	return g
}

// QuadCore2Channel is the quad-core 2-channel configuration of §VIII-B:
// "the banks in dual core and quad core systems include 64K and 128K rows,
// respectively."
func QuadCore2Channel() Geometry {
	g := Default2Channel()
	g.RowsPerBank = 128 * 1024
	return g
}

// QuadCore4Channel is the quad-core configuration under the 4-channel
// mapping policy.
func QuadCore4Channel() Geometry {
	g := Default4Channel()
	g.RowsPerBank = 128 * 1024
	return g
}

// TotalBanks returns the number of independently schedulable banks.
func (g Geometry) TotalBanks() int {
	return g.Channels * g.RanksPerCh * g.BanksPerRk
}

// TotalBytes returns the memory capacity implied by the geometry.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Channels) * int64(g.RanksPerCh) * int64(g.BanksPerRk) *
		int64(g.RowsPerBank) * int64(g.ColBytes)
}

// LinesPerRow returns the number of cache lines stored in one row.
func (g Geometry) LinesPerRow() int { return g.ColBytes / g.LineBytes }

// Validate reports an error if any dimension is non-positive or not a power
// of two, or if the capacity overflows int64. Power-of-two dimensions are
// required by the address-mapping policies (bit slicing) and by CAT's
// binary row partitioning.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("dram: %s must be positive, got %d", name, v)
		}
		if v&(v-1) != 0 {
			return fmt.Errorf("dram: %s must be a power of two, got %d", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"RanksPerCh", g.RanksPerCh},
		{"BanksPerRk", g.BanksPerRk},
		{"RowsPerBank", g.RowsPerBank},
		{"ColBytes", g.ColBytes},
		{"LineBytes", g.LineBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if g.LineBytes > g.ColBytes {
		return fmt.Errorf("dram: line size %d exceeds row size %d", g.LineBytes, g.ColBytes)
	}
	// Every dimension is a power of two, so the capacity product behind
	// TotalBytes (and TotalBanks within it) overflows int64 exactly when
	// the dimensions' log2 values sum to 63 or more.
	log2 := 0
	for _, v := range []int{g.Channels, g.RanksPerCh, g.BanksPerRk, g.RowsPerBank, g.ColBytes} {
		log2 += bits.TrailingZeros(uint(v))
	}
	if log2 >= 63 {
		return fmt.Errorf("dram: capacity of 2^%d bytes overflows int64", log2)
	}
	return nil
}

// BankID identifies one bank in the system.
type BankID struct {
	Channel int
	Rank    int
	Bank    int
}

// Flat returns a dense index for the bank in [0, TotalBanks).
func (g Geometry) Flat(id BankID) int {
	return (id.Channel*g.RanksPerCh+id.Rank)*g.BanksPerRk + id.Bank
}

// Unflat is the inverse of Flat.
func (g Geometry) Unflat(flat int) BankID {
	bank := flat % g.BanksPerRk
	flat /= g.BanksPerRk
	rank := flat % g.RanksPerCh
	ch := flat / g.RanksPerCh
	return BankID{Channel: ch, Rank: rank, Bank: bank}
}
