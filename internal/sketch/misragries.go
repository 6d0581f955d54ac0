package sketch

import "fmt"

// MisraGries is a frequent-items summary with a spillover floor, the
// variant behind ABACuS's shared activation counters: a fixed table of
// (key, count) entries plus one global spillover counter. The maintained
// invariants are
//
//   - every tracked key's occurrences since the last Reset are ≤ its count,
//   - every untracked key's occurrences are ≤ Spillover(), and
//   - every tracked count is ≥ Spillover(),
//
// so a consumer that acts when a count reaches a threshold — and treats
// the spillover counter itself reaching the threshold as a global trigger
// — never under-reacts. Unlike textbook Misra-Gries (decrement all on a
// miss), the spillover form does a single compare per miss: replace an
// entry sitting at the floor, or raise the floor.
type MisraGries struct {
	keys   []int64 // -1 = empty
	counts []uint32
	spill  uint32
	index  map[int64]int // key -> slot; lookup only, so determinism holds
	filled int
}

// NewMisraGries builds an empty summary with the given entry count.
func NewMisraGries(entries int) (*MisraGries, error) {
	if entries < 1 {
		return nil, fmt.Errorf("sketch: misra-gries needs at least one entry")
	}
	m := &MisraGries{
		keys:   make([]int64, entries),
		counts: make([]uint32, entries),
		index:  make(map[int64]int, entries),
	}
	m.Reset()
	return m, nil
}

// Cap returns the entry count.
func (m *MisraGries) Cap() int { return len(m.keys) }

// Live returns the number of occupied entries.
func (m *MisraGries) Live() int { return m.filled }

// Spillover returns the floor bounding every untracked key's count.
func (m *MisraGries) Spillover() uint32 { return m.spill }

// Find returns the index tracking key, or -1. O(1): this is the per-DRAM-
// activation hot path of ABACuS, whose summary spans ~1k entries.
func (m *MisraGries) Find(key int64) int {
	if idx, ok := m.index[key]; ok {
		return idx
	}
	return -1
}

// Insert tracks a currently-untracked key: it takes an empty slot or
// replaces an entry whose count equals the spillover floor, setting the
// new entry's count to Spillover()+1 (the key may have occurred up to
// Spillover() times while untracked, plus the occurrence being inserted).
// When no entry sits at the floor, the floor itself is raised instead and
// Insert reports ok=false — the key stays untracked, bounded by the new
// floor. evicted is the replaced key (-1 when a free slot was used).
func (m *MisraGries) Insert(key int64) (idx int, evicted int64, ok bool) {
	if m.filled < len(m.keys) {
		// Slots fill strictly left to right and are never vacated short of
		// Reset, so the first empty slot is always index filled.
		slot := m.filled
		m.filled++
		m.keys[slot] = key
		m.counts[slot] = m.spill + 1
		m.index[key] = slot
		return slot, -1, true
	}
	// Full: replace the first entry sitting at the spillover floor. The
	// scan is a flat equality pass over the count slab alone; keys are only
	// touched for the single evicted slot.
	slot := -1
	for i, v := range m.counts {
		if v == m.spill {
			slot = i
			break
		}
	}
	if slot == -1 {
		m.spill++
		return -1, -1, false
	}
	evicted = m.keys[slot]
	delete(m.index, evicted)
	m.keys[slot] = key
	m.counts[slot] = m.spill + 1
	m.index[key] = slot
	return slot, evicted, true
}

// Count returns the count at idx.
func (m *MisraGries) Count(idx int) uint32 { return m.counts[idx] }

// Add increments the count at idx by delta and returns the new value.
func (m *MisraGries) Add(idx int, delta uint32) uint32 {
	m.counts[idx] += delta
	return m.counts[idx]
}

// SetCount overwrites the count at idx. Callers resetting an entry after
// acting on it should floor it at Spillover() to keep the invariants.
func (m *MisraGries) SetCount(idx int, v uint32) { m.counts[idx] = v }

// Reset empties the summary and zeroes the spillover floor (a new window).
func (m *MisraGries) Reset() {
	for i := range m.keys {
		m.keys[i] = -1
		m.counts[i] = 0
	}
	m.spill = 0
	m.filled = 0
	clear(m.index)
}
