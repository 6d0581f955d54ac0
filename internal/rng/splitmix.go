package rng

// golden is splitmix64's state increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 is one step of Vigna's splitmix64 generator: the value a
// generator in state x emits next. The generator then moves to state
// x+golden, so SplitMix64(s), SplitMix64(s+golden), ... is its stream
// from seed s. The mix is a bijection on 64-bit values. It expands
// Xoshiro256 seeds and is the sketch package's hash.
func SplitMix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements xoshiro256** 1.0 (Blackman & Vigna), a fast
// general-purpose generator with period 2^256-1. Used wherever long,
// independent streams are needed (per-core workload generators).
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed with
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	x.Seed(seed)
	return &x
}

// Seed re-initialises the generator in place to the exact state
// NewXoshiro256(seed) would produce, without allocating. Run contexts use
// it to rewind per-run streams between reused runs.
func (x *Xoshiro256) Seed(seed uint64) {
	for i := range x.s {
		x.s[i] = SplitMix64(seed)
		seed += golden
	}
	// An all-zero state is invalid (fixed point); SplitMix64 cannot emit
	// four consecutive zeros, but guard anyway for safety.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = golden
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}
