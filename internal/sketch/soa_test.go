package sketch

import (
	"testing"

	"catsim/internal/rng"
)

// The flat-slab rewrites of the sketch inner loops (fused hash+min pass in
// CountMin, fill-counter first-empty plus packed argmin in MinTable and
// Stochastic, count-slab floor scan in MisraGries) must be observationally
// identical to the original scans. The reference implementations below are
// verbatim copies of the pre-rewrite loops; the property tests drive both
// through long random operation streams and fail on the first divergence.

// refCountMin is the original two-pass count-min update over an index
// scratch slice.
type refCountMin struct {
	width, depth int
	counters     []uint32
	seeds        []uint64
	idx          []int
}

func newRefCountMin(width, depth int, seed uint64) *refCountMin {
	c := &refCountMin{
		width:    width,
		depth:    depth,
		counters: make([]uint32, width*depth),
		seeds:    make([]uint64, depth),
		idx:      make([]int, depth),
	}
	s := seed
	for d := range c.seeds {
		s = rng.SplitMix64(s)
		c.seeds[d] = s
	}
	return c
}

func (c *refCountMin) hash(key int64) {
	for d := 0; d < c.depth; d++ {
		c.idx[d] = d*c.width + int(rng.SplitMix64(uint64(key)^c.seeds[d])%uint64(c.width))
	}
}

func (c *refCountMin) estimate(key int64) uint32 {
	c.hash(key)
	min := c.counters[c.idx[0]]
	for _, i := range c.idx[1:] {
		if v := c.counters[i]; v < min {
			min = v
		}
	}
	return min
}

func (c *refCountMin) update(key int64) uint32 {
	c.hash(key)
	min := c.counters[c.idx[0]]
	for _, i := range c.idx[1:] {
		if v := c.counters[i]; v < min {
			min = v
		}
	}
	for _, i := range c.idx {
		if c.counters[i] == min {
			c.counters[i] = min + 1
		}
	}
	return min + 1
}

func TestCountMinMatchesReference(t *testing.T) {
	for _, geom := range []struct{ w, d int }{{1, 1}, {7, 3}, {128, 4}, {512, 5}} {
		cm, err := NewCountMin(geom.w, geom.d, 0xfeed)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCountMin(geom.w, geom.d, 0xfeed)
		src := rng.NewXoshiro256(11)
		for step := 0; step < 200000; step++ {
			// Zipf-ish mix: a small hot set plus a uniform tail, so counter
			// collisions and conservative-update ties both happen often.
			var key int64
			if rng.Float64(src) < 0.5 {
				key = int64(rng.Float64(src) * 17)
			} else {
				key = int64(rng.Float64(src) * 100000)
			}
			if rng.Float64(src) < 0.25 {
				if got, want := cm.hashMin(key), ref.estimate(key); got != want {
					t.Fatalf("%dx%d step %d: estimate(%d) = %d, reference %d", geom.w, geom.d, step, key, got, want)
				}
			} else {
				if got, want := cm.Update(key), ref.update(key); got != want {
					t.Fatalf("%dx%d step %d: Update(%d) = %d, reference %d", geom.w, geom.d, step, key, got, want)
				}
			}
			if step%50021 == 50020 {
				cm.Reset()
				for i := range ref.counters {
					ref.counters[i] = 0
				}
			}
		}
		for i, v := range cm.counters {
			if v != ref.counters[i] {
				t.Fatalf("%dx%d: counter slab diverges at %d: %d != %d", geom.w, geom.d, i, v, ref.counters[i])
			}
		}
	}
}

// refMinTableInsert is the original single-scan evict-min insertion.
func refMinTableInsert(keys []int64, counts []uint32, key int64, count uint32) (int64, uint32, bool) {
	slot := -1
	for i, k := range keys {
		if k == -1 {
			slot = i
			break
		}
		if slot == -1 || counts[i] < counts[slot] {
			slot = i
		}
	}
	ek, ec := keys[slot], counts[slot]
	evicted := ek != -1
	keys[slot] = key
	counts[slot] = count
	return ek, ec, evicted
}

func TestMinTableMatchesReference(t *testing.T) {
	for _, entries := range []int{1, 3, 32, 128} {
		mt, err := NewMinTable(entries)
		if err != nil {
			t.Fatal(err)
		}
		refKeys := make([]int64, entries)
		refCounts := make([]uint32, entries)
		for i := range refKeys {
			refKeys[i] = -1
		}
		src := rng.NewXoshiro256(23)
		for step := 0; step < 100000; step++ {
			key := int64(rng.Float64(src) * float64(entries*3))
			count := uint32(rng.Float64(src) * 50)
			if i := mt.Find(key); i >= 0 && rng.Float64(src) < 0.6 {
				mt.Add(i, 1)
				for j, k := range refKeys {
					if k == key {
						refCounts[j]++
						break
					}
				}
				continue
			}
			gk, gc, ge := mt.Insert(key, count)
			wk, wc, we := refMinTableInsert(refKeys, refCounts, key, count)
			if gk != wk || gc != wc || ge != we {
				t.Fatalf("entries=%d step %d: Insert(%d,%d) = (%d,%d,%v), reference (%d,%d,%v)",
					entries, step, key, count, gk, gc, ge, wk, wc, we)
			}
			if step%25013 == 25012 {
				mt.Reset()
				for i := range refKeys {
					refKeys[i] = -1
					refCounts[i] = 0
				}
			}
		}
		for i := range refKeys {
			if mt.keys[i] != refKeys[i] || mt.counts[i] != refCounts[i] {
				t.Fatalf("entries=%d: slot %d diverges: (%d,%d) != (%d,%d)",
					entries, i, mt.keys[i], mt.counts[i], refKeys[i], refCounts[i])
			}
		}
		if mt.Live() != refLive(refKeys) {
			t.Fatalf("entries=%d: Live %d != reference %d", entries, mt.Live(), refLive(refKeys))
		}
	}
}

func refLive(keys []int64) int {
	n := 0
	for _, k := range keys {
		if k != -1 {
			n++
		}
	}
	return n
}

// refMisraGries is the original single-scan spillover insertion.
type refMisraGries struct {
	keys   []int64
	counts []uint32
	spill  uint32
	filled int
}

func newRefMisraGries(entries int) *refMisraGries {
	m := &refMisraGries{keys: make([]int64, entries), counts: make([]uint32, entries)}
	for i := range m.keys {
		m.keys[i] = -1
	}
	return m
}

func (m *refMisraGries) find(key int64) int {
	for i, k := range m.keys {
		if k == key {
			return i
		}
	}
	return -1
}

func (m *refMisraGries) insert(key int64) (int, int64, bool) {
	full := m.filled == len(m.keys)
	slot := -1
	for i, k := range m.keys {
		if k == -1 {
			slot = i
			break
		}
		if slot == -1 && m.counts[i] == m.spill {
			slot = i
			if full {
				break
			}
		}
	}
	if slot == -1 {
		m.spill++
		return -1, -1, false
	}
	evicted := m.keys[slot]
	if evicted == -1 {
		m.filled++
	}
	m.keys[slot] = key
	m.counts[slot] = m.spill + 1
	return slot, evicted, true
}

func TestMisraGriesMatchesReference(t *testing.T) {
	for _, entries := range []int{1, 4, 64} {
		mg, err := NewMisraGries(entries)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefMisraGries(entries)
		src := rng.NewXoshiro256(37)
		for step := 0; step < 150000; step++ {
			key := int64(rng.Float64(src) * float64(entries*4))
			gi := mg.Find(key)
			wi := ref.find(key)
			if gi != wi {
				t.Fatalf("entries=%d step %d: Find(%d) = %d, reference %d", entries, step, key, gi, wi)
			}
			if gi >= 0 {
				mg.Add(gi, 1)
				ref.counts[wi]++
			} else {
				gs, ge, gok := mg.Insert(key)
				ws, we, wok := ref.insert(key)
				if gs != ws || ge != we || gok != wok {
					t.Fatalf("entries=%d step %d: Insert(%d) = (%d,%d,%v), reference (%d,%d,%v)",
						entries, step, key, gs, ge, gok, ws, we, wok)
				}
			}
			if mg.Spillover() != ref.spill {
				t.Fatalf("entries=%d step %d: spill %d != reference %d", entries, step, mg.Spillover(), ref.spill)
			}
			if step%40009 == 40008 {
				mg.Reset()
				ref.keys = newRefMisraGries(entries).keys
				ref.counts = make([]uint32, entries)
				ref.spill = 0
				ref.filled = 0
			}
		}
		for i := range ref.keys {
			if mg.keys[i] != ref.keys[i] || mg.Count(i) != ref.counts[i] {
				t.Fatalf("entries=%d: slot %d diverges: (%d,%d) != (%d,%d)",
					entries, i, mg.keys[i], mg.Count(i), ref.keys[i], ref.counts[i])
			}
		}
	}
}

// refStochasticObserve is the original fused scan: hit, first-empty and
// running argmin in one pass. Both sides must consume draws from their own
// identically-seeded source at exactly the same operations, so divergence
// also shows up as a draw-sequence shift.
func refStochasticObserve(keys []int64, counts []uint32, src rng.Source, key int64) (int, uint32, bool) {
	empty, minIdx := -1, -1
	for i, k := range keys {
		if k == key {
			counts[i]++
			return i, counts[i], false
		}
		if k == -1 {
			if empty == -1 {
				empty = i
			}
		} else if minIdx == -1 || counts[i] < counts[minIdx] {
			minIdx = i
		}
	}
	if empty != -1 {
		keys[empty] = key
		counts[empty] = 1
		return empty, 1, false
	}
	min := counts[minIdx]
	if rng.Float64(src)*float64(min+1) >= 1 {
		return -1, 0, true
	}
	keys[minIdx] = key
	counts[minIdx] = min + 1
	return minIdx, counts[minIdx], true
}

func TestStochasticMatchesReference(t *testing.T) {
	for _, entries := range []int{1, 2, 16, 64} {
		st, err := NewStochastic(entries, rng.NewXoshiro256(5))
		if err != nil {
			t.Fatal(err)
		}
		refKeys := make([]int64, entries)
		refCounts := make([]uint32, entries)
		for i := range refKeys {
			refKeys[i] = -1
		}
		refSrc := rng.NewXoshiro256(5)
		drv := rng.NewXoshiro256(53)
		var refDraws int64
		for step := 0; step < 120000; step++ {
			key := int64(rng.Float64(drv) * float64(entries*3))
			gi, gc := st.Observe(key)
			wi, wc, drew := refStochasticObserve(refKeys, refCounts, refSrc, key)
			if drew {
				refDraws++
			}
			if gi != wi || gc != wc {
				t.Fatalf("entries=%d step %d: Observe(%d) = (%d,%d), reference (%d,%d)",
					entries, step, key, gi, gc, wi, wc)
			}
			if st.Draws() != refDraws {
				t.Fatalf("entries=%d step %d: draws %d != reference %d", entries, step, st.Draws(), refDraws)
			}
			if step%30011 == 30010 {
				st.Reset()
				for i := range refKeys {
					refKeys[i] = -1
					refCounts[i] = 0
				}
			}
		}
		for i := range refKeys {
			if st.keys[i] != refKeys[i] {
				t.Fatalf("entries=%d: slot %d key %d != reference %d", entries, i, st.keys[i], refKeys[i])
			}
		}
	}
}
