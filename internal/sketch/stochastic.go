package sketch

import (
	"fmt"

	"catsim/internal/rng"
)

// Stochastic is a stochastic-approximate counter table in the style of
// DSAC (Hong et al., 2023): a fixed table of (key, count) entries where a
// miss replaces the minimum-count entry only with probability
// 1/(min+1), inheriting min+1 as the starting count. In expectation the
// inherited count tracks the evicted key's pressure, so heavy hitters are
// captured with high probability at a fraction of the SRAM traffic — but
// unlike CountMin/MisraGries there is no deterministic guarantee: an
// unlucky draw sequence can let an aggressor escape tracking, which is
// exactly the gap the protection harness (sim's missed-victim metric)
// quantifies. Every probabilistic decision consumes one draw from the
// injected Source; Draws() reports the total for PRNG-energy accounting.
type Stochastic struct {
	keys   []int64 // -1 = empty
	counts []uint32
	src    rng.Source
	draws  int64
	// filled counts occupied slots; slots fill left to right and are never
	// vacated short of Reset, so the first empty slot is index filled.
	filled int
}

// NewStochastic builds an empty table drawing its replacement decisions
// from src.
func NewStochastic(entries int, src rng.Source) (*Stochastic, error) {
	if entries < 1 {
		return nil, fmt.Errorf("sketch: stochastic table needs at least one entry")
	}
	if src == nil {
		return nil, fmt.Errorf("sketch: stochastic table needs a random source")
	}
	s := &Stochastic{keys: make([]int64, entries), counts: make([]uint32, entries), src: src}
	s.Reset()
	return s, nil
}

// Cap returns the entry count.
func (s *Stochastic) Cap() int { return len(s.keys) }

// Live returns the number of occupied entries.
func (s *Stochastic) Live() int { return s.filled }

// Draws returns how many random decisions have been made (one per miss on
// a full table), for PRNG-energy accounting.
func (s *Stochastic) Draws() int64 { return s.draws }

// Observe counts one occurrence of key. A tracked key increments exactly.
// A miss takes a free slot (count 1); on a full table the minimum entry is
// replaced with probability 1/(min+1), the new entry inheriting count
// min+1. idx is -1 when the key ends up untracked.
func (s *Stochastic) Observe(key int64) (idx int, count uint32) {
	// Hit path: a flat scan of the occupied key prefix only.
	for i, k := range s.keys[:s.filled] {
		if k == key {
			s.counts[i]++
			return i, s.counts[i]
		}
	}
	if s.filled < len(s.keys) {
		slot := s.filled
		s.filled++
		s.keys[slot] = key
		s.counts[slot] = 1
		return slot, 1
	}
	minIdx := argmin(s.counts)
	min := s.counts[minIdx]
	s.draws++
	if rng.Float64(s.src)*float64(min+1) >= 1 {
		return -1, 0
	}
	s.keys[minIdx] = key
	s.counts[minIdx] = min + 1
	return minIdx, s.counts[minIdx]
}

// SetCount overwrites the count at idx (resetting after a refresh).
func (s *Stochastic) SetCount(idx int, v uint32) { s.counts[idx] = v }

// Reset empties the table (draw accounting is preserved).
func (s *Stochastic) Reset() {
	for i := range s.keys {
		s.keys[i] = -1
		s.counts[i] = 0
	}
	s.filled = 0
}
