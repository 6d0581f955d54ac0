package sketch

import "fmt"

// MinTable is a small exact (key, count) table with evict-minimum
// replacement: insertion always succeeds, displacing the entry with the
// smallest count (lowest index on ties, so behaviour is deterministic).
// CoMeT uses one as its recent-aggressor table: rows whose sketch estimate
// crosses the early threshold graduate here and are counted exactly; the
// evicted row is handed back to the caller, which must neutralise it
// (refresh its victims) to stay sound.
type MinTable struct {
	keys   []int64 // -1 = empty
	counts []uint32
	// filled counts occupied slots. Slots fill strictly left to right and
	// are never vacated short of Reset, so the first empty slot is always
	// index filled — no occupancy scan needed.
	filled int
}

// NewMinTable builds an empty table with the given entry count.
func NewMinTable(entries int) (*MinTable, error) {
	if entries < 1 {
		return nil, fmt.Errorf("sketch: min-table needs at least one entry")
	}
	t := &MinTable{keys: make([]int64, entries), counts: make([]uint32, entries)}
	t.Reset()
	return t, nil
}

// Live returns the number of occupied entries.
func (t *MinTable) Live() int { return t.filled }

// argmin returns the index of the smallest count (lowest index on ties).
// Packing (count, index) into one uint64 turns the scan into a pure min
// reduction over a flat array — one conditional move per element, no
// data-dependent branches.
func argmin(counts []uint32) int {
	best := ^uint64(0)
	for i, v := range counts {
		best = min(best, uint64(v)<<32|uint64(i))
	}
	return int(best & 0xffffffff)
}

// Find returns the index tracking key, or -1.
func (t *MinTable) Find(key int64) int {
	for i, k := range t.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Insert tracks key with the given starting count, using a free slot or
// evicting the minimum-count entry. It returns the displaced key and its
// count; evicted is false when a free slot absorbed the insertion.
func (t *MinTable) Insert(key int64, count uint32) (evictedKey int64, evictedCount uint32, evicted bool) {
	if t.filled < len(t.keys) {
		slot := t.filled
		t.filled++
		t.keys[slot] = key
		t.counts[slot] = count
		return -1, 0, false
	}
	slot := argmin(t.counts)
	evictedKey, evictedCount = t.keys[slot], t.counts[slot]
	t.keys[slot] = key
	t.counts[slot] = count
	return evictedKey, evictedCount, true
}

// Add increments the count at idx by delta and returns the new value.
func (t *MinTable) Add(idx int, delta uint32) uint32 {
	t.counts[idx] += delta
	return t.counts[idx]
}

// SetCount overwrites the count at idx.
func (t *MinTable) SetCount(idx int, v uint32) { t.counts[idx] = v }

// Reset empties the table.
func (t *MinTable) Reset() {
	for i := range t.keys {
		t.keys[i] = -1
		t.counts[i] = 0
	}
	t.filled = 0
}
