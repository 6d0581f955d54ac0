package sketch

import (
	"slices"
	"testing"

	"catsim/internal/rng"
)

// zipfStream returns a skewed key stream (small keys dominate) plus the
// exact per-key counts, the reference every sketch bound is checked
// against.
func zipfStream(seed uint64, keys, n int) ([]int64, map[int64]uint32) {
	src := rng.NewXoshiro256(seed)
	stream := make([]int64, n)
	exact := make(map[int64]uint32, keys)
	for i := range stream {
		// Squaring a uniform variate skews towards 0.
		u := rng.Float64(src)
		k := int64(u * u * float64(keys))
		stream[i] = k
		exact[k]++
	}
	return stream, exact
}

func TestCountMinNeverUndercounts(t *testing.T) {
	c, err := NewCountMin(64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Counters() != 256 {
		t.Errorf("Counters() = %d, want 256", c.Counters())
	}
	stream, exact := zipfStream(1, 500, 50_000)
	for _, k := range stream {
		c.Update(k)
	}
	for k, want := range exact {
		if got := c.hashMin(k); got < want {
			t.Fatalf("key %d: estimate %d below exact count %d", k, got, want)
		}
	}
}

func TestCountMinConservativeUpdateTightensEstimates(t *testing.T) {
	// Conservative update must never produce larger estimates than plain
	// increment would, and on a skewed stream it should be strictly
	// tighter in aggregate.
	cons, _ := NewCountMin(64, 4, 7)
	plain, _ := NewCountMin(64, 4, 7)
	stream, exact := zipfStream(2, 500, 50_000)
	for _, k := range stream {
		cons.Update(k)
		// Plain increment: bump every counter of the key.
		plain.hashMin(k)
		for _, i := range plain.idx {
			plain.counters[i]++
		}
	}
	var sumCons, sumPlain uint64
	for k := range exact {
		sc, sp := cons.hashMin(k), plain.hashMin(k)
		if sc > sp {
			t.Fatalf("key %d: conservative estimate %d above plain %d", k, sc, sp)
		}
		sumCons += uint64(sc)
		sumPlain += uint64(sp)
	}
	if sumCons >= sumPlain {
		t.Errorf("conservative update not tighter in aggregate: %d vs %d", sumCons, sumPlain)
	}
}

func TestCountMinExactWithoutCollisions(t *testing.T) {
	c, _ := NewCountMin(1024, 4, 3)
	for i := 0; i < 100; i++ {
		c.Update(42)
	}
	if got := c.hashMin(42); got != 100 {
		t.Errorf("estimate = %d, want exactly 100 on an empty sketch", got)
	}
	if got := c.hashMin(43); got != 0 {
		t.Errorf("untouched key estimate = %d, want 0", got)
	}
}

func TestCountMinDeterministicPerSeed(t *testing.T) {
	a, _ := NewCountMin(64, 4, 11)
	b, _ := NewCountMin(64, 4, 11)
	other, _ := NewCountMin(64, 4, 12)
	stream, _ := zipfStream(3, 200, 10_000)
	differs := false
	for _, k := range stream {
		va, vb := a.Update(k), b.Update(k)
		if va != vb {
			t.Fatal("same seed diverged")
		}
		if other.Update(k) != va {
			differs = true
		}
	}
	if !differs {
		t.Error("distinct seeds produced identical sketches on 10k updates")
	}
}

func TestCountMinValidation(t *testing.T) {
	if _, err := NewCountMin(0, 4, 1); err == nil {
		t.Error("expected width error")
	}
	if _, err := NewCountMin(64, 0, 1); err == nil {
		t.Error("expected depth error")
	}
}

// driveMisraGries feeds a stream through the summary with the simple
// tracked-increment policy and returns the summary.
func driveMisraGries(t *testing.T, entries int, stream []int64) *MisraGries {
	t.Helper()
	m, err := NewMisraGries(entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range stream {
		if idx := m.Find(k); idx >= 0 {
			m.Add(idx, 1)
		} else {
			m.Insert(k)
		}
	}
	return m
}

func TestMisraGriesInvariants(t *testing.T) {
	stream, exact := zipfStream(4, 300, 30_000)
	m := driveMisraGries(t, 16, stream)
	tracked := map[int64]bool{}
	for i := 0; i < m.Cap(); i++ {
		k := m.keys[i]
		if k == -1 {
			continue
		}
		tracked[k] = true
		if m.Count(i) < m.Spillover() {
			t.Errorf("entry %d count %d below spillover %d", i, m.Count(i), m.Spillover())
		}
		if m.Count(i) < exact[k] {
			t.Errorf("key %d: summary count %d below exact %d", k, m.Count(i), exact[k])
		}
	}
	for k, n := range exact {
		if !tracked[k] && n > m.Spillover() {
			t.Errorf("untracked key %d occurred %d times, above spillover %d", k, n, m.Spillover())
		}
	}
}

func TestMisraGriesInsertSemantics(t *testing.T) {
	m, _ := NewMisraGries(2)
	// Fill the two slots.
	for _, k := range []int64{10, 20} {
		idx, evicted, ok := m.Insert(k)
		if !ok || evicted != -1 || idx < 0 {
			t.Fatalf("insert %d into empty summary: idx=%d evicted=%d ok=%v", k, idx, evicted, ok)
		}
		m.Add(idx, 4) // lift both entries above the floor
	}
	// Full table, every count above the floor: the floor rises.
	if _, _, ok := m.Insert(30); ok {
		t.Fatal("insert succeeded with no entry at the floor")
	}
	if m.Spillover() != 1 {
		t.Fatalf("spillover = %d, want 1", m.Spillover())
	}
	// Drop one entry to the floor: the next insert replaces it.
	m.SetCount(0, m.Spillover())
	was := m.keys[0]
	idx, evicted, ok := m.Insert(40)
	if !ok || idx != 0 || evicted != was {
		t.Fatalf("insert at floor: idx=%d evicted=%d ok=%v", idx, evicted, ok)
	}
	if m.Count(0) != m.Spillover()+1 {
		t.Errorf("inserted count = %d, want spillover+1 = %d", m.Count(0), m.Spillover()+1)
	}
	m.Reset()
	if m.Spillover() != 0 || m.Find(40) != -1 {
		t.Error("Reset left state behind")
	}
}

func TestMinTableEvictsMinimum(t *testing.T) {
	mt, err := NewMinTable(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ev := mt.Insert(1, 10); ev {
		t.Error("eviction reported from an empty table")
	}
	mt.Insert(2, 5)
	k, c, ev := mt.Insert(3, 100)
	if !ev || k != 2 || c != 5 {
		t.Errorf("evicted (%d,%d,%v), want the minimum entry (2,5,true)", k, c, ev)
	}
	if mt.Find(2) != -1 || mt.Find(3) == -1 || mt.Find(1) == -1 {
		t.Error("table contents wrong after eviction")
	}
	idx := mt.Find(1)
	if got := mt.Add(idx, 7); got != 17 {
		t.Errorf("Add = %d, want 17", got)
	}
	mt.SetCount(idx, 0)
	if mt.counts[idx] != 0 {
		t.Error("SetCount did not take")
	}
	mt.Reset()
	if mt.Find(3) != -1 || len(mt.keys) != 2 {
		t.Error("Reset left state behind")
	}
}

func TestStochasticExactWhenTableFits(t *testing.T) {
	// With at least as many entries as distinct keys, the table is exact:
	// every key lands in a free slot and counts deterministically.
	s, err := NewStochastic(8, rng.NewXoshiro256(5))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		for k := int64(0); k < 8; k++ {
			idx, cnt := s.Observe(k)
			if idx < 0 || cnt != uint32(round+1) {
				t.Fatalf("key %d round %d: idx=%d count=%d", k, round, idx, cnt)
			}
		}
	}
	if s.Draws() != 0 {
		t.Errorf("Draws = %d, want 0 when the table never overflows", s.Draws())
	}
}

func TestStochasticReplacementIsProbabilisticAndCounted(t *testing.T) {
	s, _ := NewStochastic(4, rng.NewXoshiro256(6))
	stream, _ := zipfStream(7, 100, 20_000)
	for _, k := range stream {
		s.Observe(k)
	}
	if s.Draws() == 0 {
		t.Fatal("no draws despite table pressure")
	}
	// Heavy hitters should be tracked: key 0 dominates a squared-uniform
	// stream over 100 keys.
	if !slices.Contains(s.keys, 0) {
		t.Error("heaviest key not tracked")
	}
}

func TestStochasticDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []int64 {
		s, _ := NewStochastic(4, rng.NewXoshiro256(seed))
		stream, _ := zipfStream(8, 100, 5_000)
		for _, k := range stream {
			s.Observe(k)
		}
		out := make([]int64, s.Cap())
		for i := range out {
			out[i] = s.keys[i]
		}
		return out
	}
	a, b := run(9), run(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewMisraGries(0); err == nil {
		t.Error("MisraGries: expected entries error")
	}
	if _, err := NewMinTable(0); err == nil {
		t.Error("MinTable: expected entries error")
	}
	if _, err := NewStochastic(0, rng.NewXoshiro256(1)); err == nil {
		t.Error("Stochastic: expected entries error")
	}
	if _, err := NewStochastic(4, nil); err == nil {
		t.Error("Stochastic: expected source error")
	}
}
