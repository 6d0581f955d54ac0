package sketch

import (
	"testing"

	"catsim/internal/rng"
)

// The sketch benchmarks are the per-activation hot path of the modern
// trackers (CoMeT/ABACuS/DSAC); CI emits them as BENCH_sketch.json so the
// per-PR perf trajectory of this substrate is recorded.

func benchKeys(n int) []int64 {
	src := rng.NewXoshiro256(1)
	keys := make([]int64, n)
	for i := range keys {
		u := rng.Float64(src)
		keys[i] = int64(u * u * 65536)
	}
	return keys
}

func BenchmarkCountMinUpdate(b *testing.B) {
	c, _ := NewCountMin(512, 4, 1)
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(keys[i&4095])
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	c, _ := NewCountMin(512, 4, 1)
	keys := benchKeys(4096)
	for _, k := range keys {
		c.Update(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.hashMin(keys[i&4095])
	}
}

func BenchmarkMisraGriesObserve(b *testing.B) {
	m, _ := NewMisraGries(32)
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&4095]
		if idx := m.Find(k); idx >= 0 {
			m.Add(idx, 1)
		} else {
			m.Insert(k)
		}
	}
}

func BenchmarkMinTableInsert(b *testing.B) {
	t, _ := NewMinTable(32)
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&4095]
		if idx := t.Find(k); idx >= 0 {
			t.Add(idx, 1)
		} else {
			t.Insert(k, 1)
		}
	}
}

func BenchmarkStochasticObserve(b *testing.B) {
	s, _ := NewStochastic(32, rng.NewXoshiro256(2))
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(keys[i&4095])
	}
}
