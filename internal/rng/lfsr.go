package rng

// FibLFSR is a Fibonacci LFSR with an arbitrary feedback polynomial over a
// state of the given width: on each step the feedback bit is the parity of
// (state & mask) and is shifted in at the top; the bit shifted out at the
// bottom is the output. The paper's Monte-Carlo study (§III-A) uses an
// LFSR-based PRNG [40, 41] to show that cheap hardware randomness is
// insufficient for PRA: successive outputs are strongly correlated, so the
// per-access refresh decisions are not independent and Eq. 1 no longer
// bounds unsurvivability. A configurable polynomial lets the reliability
// study compare a maximal one against the cheap, non-maximal ones (short
// cycles) that break PRA's independence assumption outright.
type FibLFSR struct {
	state uint32
	mask  uint32
	width uint
}

// NewFibLFSR builds an LFSR of the given width (2..32) and feedback mask.
// A zero seed is replaced with 1 to avoid the lock-up state.
func NewFibLFSR(width uint, mask, seed uint32) *FibLFSR {
	if width < 2 || width > 32 {
		panic("rng: FibLFSR width out of range")
	}
	seed &= uint32(1)<<width - 1
	if seed == 0 {
		seed = 1
	}
	return &FibLFSR{state: seed, mask: mask, width: width}
}

// Feedback masks for 16-bit FibLFSRs.
const (
	// MaximalMask16 implements the maximal-length polynomial
	// x^16 + x^14 + x^13 + x^11 + 1 (taps 16, 14, 13, 11, expressed on the
	// shifted-out bit and its neighbours: parity of bits 0, 2, 3, 5), so
	// the register walks all 2^16-1 non-zero states.
	MaximalMask16 uint32 = 0x002D
	// WeakMask16 implements x^16 + x^8 + 1 = (x^2+x+1)^8, a cheap two-tap
	// polynomial whose state space splits into cycles of length at most 24;
	// most seeds give a 9-bit output stream with period 8 draws.
	WeakMask16 uint32 = 0x0101
)

// Step advances one bit and returns the output bit (the bit shifted out).
func (l *FibLFSR) Step() uint64 {
	out := uint64(l.state & 1)
	fb := parity32(l.state & l.mask)
	l.state = l.state>>1 | fb<<(l.width-1)
	return out
}

// Uint64 assembles 64 output bits.
func (l *FibLFSR) Uint64() uint64 {
	var v uint64
	for i := 0; i < 64; i++ {
		v = v<<1 | l.Step()
	}
	return v
}

// State exposes the register contents for tests.
func (l *FibLFSR) State() uint32 { return l.state }

func parity32(v uint32) uint32 {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v & 1
}
