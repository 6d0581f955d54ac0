// Package core implements the paper's primary contribution: the
// Counter-based Adaptive Tree (CAT) of Seyedzadeh, Jones and Melhem
// (ISCA 2018), together with its two deployment schemes:
//
//   - PRCAT (Periodically Reset CAT, §V-A): the tree is rebuilt from the
//     pre-split uniform shape at every auto-refresh interval.
//
//   - DRCAT (Dynamically Reconfigured CAT, §V-B): 2-bit weight registers
//     track which regions are hot; cold sibling counters are merged and the
//     released counter is used to split the hot region, so the tree tracks
//     temporal changes in the access pattern without being rebuilt.
//
// The tree is an implicit binary heap (tree.go): node i's children sit at
// 2i+1 and 2i+2, every node covers a power-of-two-aligned block of rows, and
// per-node state lives in structure-of-arrays slabs sized for the deepest
// allowed tree. A lookup picks each child from the row's address bits, so
// row-range boundaries are never stored.
//
// The hardware the paper costs is the SRAM layout of its Fig. 5: an array I
// of intermediate nodes carrying left/right pointers plus leaf flags, an
// array C of counters, and an array W of weight registers. The model keeps
// that layout's accounting. sramCost counts the sequential SRAM accesses
// per lookup as the paper does (from 2 up to L - log2(M/4) for a tree
// pre-split to λ = log2(M) levels), and StorageBits counts the bits of
// Fig. 5's rows. The tree's order slice lists its internal nodes in the
// order rows of array I are allocated, which is the order DRCAT's merge
// search scans: which cold pair a reconfiguration merges depends on it,
// and so do the experiment goldens. A pointer-linked transcription of
// Fig. 5 lives in the package tests as the differential reference.
//
// Protection guarantee: a counter covering rows [lo, hi] is an upper bound
// on the number of activations of every row in [lo, hi] since the last
// event that reset it. Splits clone the parent value and merges keep the
// maximum of the children, so the bound is preserved across every tree
// operation; when a counter reaches the refresh threshold T the rows
// [lo-1, hi+1] are refreshed. The invariants are machine-checked in the
// package tests and by the crosstalk oracle in internal/mitigation.
package core

import (
	"fmt"
	"math/bits"
)

// Policy selects how the tree reacts to auto-refresh interval boundaries.
type Policy int

const (
	// PRCAT rebuilds the tree (structure and values) every interval.
	PRCAT Policy = iota
	// DRCAT clears counter values every interval but keeps the learned
	// structure and the weight registers, and reconfigures dynamically.
	DRCAT
)

// String returns the scheme name used in the paper.
func (p Policy) String() string {
	if p == PRCAT {
		return "PRCAT"
	}
	return "DRCAT"
}

// Config parameterises one CAT instance (one per DRAM bank).
type Config struct {
	// Rows is N, the number of rows the tree covers (a power of two).
	Rows int
	// Counters is M, the number of counters available (a power of two).
	Counters int
	// MaxLevels is L: tree levels are 0..L-1 and T_{L-1} = T.
	MaxLevels int
	// RefreshThreshold is T, the activation count at which victim rows
	// adjacent to the counter's range must be refreshed.
	RefreshThreshold uint32
	// Ladder holds the split thresholds T_0..T_{L-1}. If nil, the default
	// ladder from NewLadder(Counters, MaxLevels, RefreshThreshold) is used.
	Ladder []uint32
	// PreSplit is λ, the number of pre-built uniform levels (1..log2(M)+1).
	// Zero selects the paper's default λ = log2(M).
	PreSplit int
	// Policy selects PRCAT or DRCAT behaviour.
	Policy Policy
	// WeightBits is the DRCAT weight-register width; zero selects the
	// paper's 2 bits.
	WeightBits int
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate reports a descriptive error for an unusable configuration.
func (c *Config) Validate() error {
	if !isPow2(c.Rows) {
		return fmt.Errorf("core: Rows must be a positive power of two, got %d", c.Rows)
	}
	if !isPow2(c.Counters) {
		return fmt.Errorf("core: Counters must be a positive power of two, got %d", c.Counters)
	}
	if c.Counters > c.Rows {
		return fmt.Errorf("core: more counters (%d) than rows (%d)", c.Counters, c.Rows)
	}
	if c.MaxLevels < 1 {
		return fmt.Errorf("core: MaxLevels must be at least 1, got %d", c.MaxLevels)
	}
	// A tree of L levels has leaves no deeper than L-1, each covering at
	// least Rows/2^(L-1) rows; that must be at least one row.
	if c.MaxLevels-1 > bits.TrailingZeros(uint(c.Rows)) {
		return fmt.Errorf("core: MaxLevels %d too deep for %d rows", c.MaxLevels, c.Rows)
	}
	if c.RefreshThreshold < 1 {
		return fmt.Errorf("core: RefreshThreshold must be positive")
	}
	lambda := c.preSplit()
	if lambda < 1 || lambda > c.MaxLevels || (1<<(lambda-1)) > c.Counters {
		return fmt.Errorf("core: PreSplit %d invalid for M=%d, L=%d", lambda, c.Counters, c.MaxLevels)
	}
	if c.Ladder != nil {
		if err := ValidateLadder(c.Ladder, c.MaxLevels, c.RefreshThreshold); err != nil {
			return err
		}
	}
	if c.WeightBits < 0 || c.WeightBits > 8 {
		return fmt.Errorf("core: WeightBits %d out of range", c.WeightBits)
	}
	return nil
}

// preSplit returns λ, applying the paper's default λ = log2(M), clamped so
// the pre-built tree fits within MaxLevels.
func (c *Config) preSplit() int {
	lambda := c.PreSplit
	if lambda == 0 {
		lambda = bits.TrailingZeros(uint(c.Counters))
		if lambda == 0 {
			lambda = 1 // M = 1: the "tree" is a single root counter
		}
	}
	if lambda > c.MaxLevels {
		lambda = c.MaxLevels
	}
	return lambda
}

func (c *Config) weightCap() uint8 {
	wb := c.WeightBits
	if wb == 0 {
		wb = 2
	}
	return uint8(1<<wb - 1)
}

// Stats aggregates the observable behaviour of one tree.
type Stats struct {
	Accesses      int64 // row activations observed
	SRAMAccesses  int64 // sequential SRAM reads spent on traversals
	Splits        int64 // RCM split operations
	RefreshEvents int64 // counter hit T (one victim-refresh command each)
	RowsRefreshed int64 // total rows refreshed by those commands
	Reconfigs     int64 // DRCAT merge+split reconfigurations
	Rebuilds      int64 // full rebuilds (PRCAT interval resets)
	MaxDepth      int   // deepest leaf observed
}
