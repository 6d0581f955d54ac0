package dram

import "fmt"

// Row-address scrambling (paper §VII): "We assume that either the memory
// controller knows which rows are physically adjacent to each other [57]
// or the DRAM chip is responsible for refreshing the row and its
// neighbors [58]." Real DRAMs remap logical row addresses for repair and
// layout reasons (van de Goor & Schanstra, DELTA 2002), so crosstalk
// neighbours are adjacent in PHYSICAL space, not logical space. A
// Scrambler translates; the simulator feeds mitigation schemes physical
// rows (modelling a controller that knows the mapping), and the test suite
// shows protection breaks if the translation is (incorrectly) omitted.
type Scrambler interface {
	// ToPhysical maps a logical row to its physical row.
	ToPhysical(logical int) int
	// ToLogical is the inverse.
	ToLogical(physical int) int
	// Name identifies the scheme in reports.
	Name() string
}

// XORScrambler flips row-address bits with a fixed mask — the folded/
// twisted layouts of van de Goor's taxonomy. XOR is an involution, so the
// mapping is its own inverse.
type XORScrambler struct {
	mask int
	rows int
}

// NewXORScrambler builds the scrambler for a bank of `rows` rows.
func NewXORScrambler(rows, mask int) (*XORScrambler, error) {
	if rows <= 0 || rows&(rows-1) != 0 {
		return nil, fmt.Errorf("dram: rows %d must be a power of two", rows)
	}
	if mask < 0 || mask >= rows {
		return nil, fmt.Errorf("dram: mask %#x out of row range", mask)
	}
	return &XORScrambler{mask: mask, rows: rows}, nil
}

// ToPhysical implements Scrambler.
func (s *XORScrambler) ToPhysical(l int) int { return l ^ s.mask }

// ToLogical implements Scrambler.
func (s *XORScrambler) ToLogical(p int) int { return p ^ s.mask }

// Name implements Scrambler.
func (s *XORScrambler) Name() string { return fmt.Sprintf("xor-%#x", s.mask) }

// StrideScrambler interleaves rows with an odd stride:
// physical = (logical * stride) mod rows. Odd strides are units modulo a
// power of two, so the map is a bijection, and any stride >= 3 guarantees
// that NO two logically adjacent rows remain physically adjacent — the
// worst case for a controller that ignores the remap, and therefore the
// configuration the misconfiguration study uses. (Note that XOR layouts
// mostly preserve |adjacency| — the carry out of l -> l+1 only crosses a
// mask bit at block boundaries — which is itself worth knowing: simple
// folded layouts barely perturb victim adjacency.)
type StrideScrambler struct {
	stride, inverse, rows int
}

// NewStrideScrambler builds the interleaver; stride must be odd and >= 3.
func NewStrideScrambler(rows, stride int) (*StrideScrambler, error) {
	if rows <= 0 || rows&(rows-1) != 0 {
		return nil, fmt.Errorf("dram: rows %d must be a power of two", rows)
	}
	if stride < 3 || stride%2 == 0 || stride >= rows {
		return nil, fmt.Errorf("dram: stride %d must be odd, >= 3 and < rows", stride)
	}
	// Modular inverse of stride mod rows by Newton iteration (rows = 2^k).
	inv := stride // inverse mod 8 for odd numbers: x*x*x ≡ x^-1... iterate
	for i := 0; i < 6; i++ {
		inv = inv * (2 - stride*inv) & (rows - 1)
	}
	inv &= rows - 1
	if inv < 0 {
		inv += rows
	}
	if stride*inv&(rows-1) != 1 {
		return nil, fmt.Errorf("dram: internal error computing inverse of %d", stride)
	}
	return &StrideScrambler{stride: stride, inverse: inv, rows: rows}, nil
}

// ToPhysical implements Scrambler.
func (s *StrideScrambler) ToPhysical(l int) int { return (l * s.stride) & (s.rows - 1) }

// ToLogical implements Scrambler.
func (s *StrideScrambler) ToLogical(p int) int { return (p * s.inverse) & (s.rows - 1) }

// Name implements Scrambler.
func (s *StrideScrambler) Name() string { return fmt.Sprintf("stride-%d", s.stride) }
