package cache

import (
	"testing"

	"catsim/internal/rng"
)

func TestBasicHitMiss(t *testing.T) {
	c, err := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hit, _, _ := c.Access(0, false); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("warm access missed")
	}
	if hit, _, _ := c.Access(32, false); !hit {
		t.Error("same-line access missed")
	}
	if c.misses != 1 || c.hits != 2 {
		t.Errorf("%d misses, %d hits; want 1 and 2", c.misses, c.hits)
	}
}

func TestEvictionLRUAndWriteback(t *testing.T) {
	// Direct-mapped (ways beyond sets force conflicts): 4 sets, 1 way.
	c, err := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true) // dirty line at set 0
	// Conflicting line (same set): set count = 4, so +4 lines = 256 bytes.
	_, victim, wb := c.Access(256, false)
	if !wb || victim != 0 {
		t.Errorf("expected writeback of addr 0, got %v %v", victim, wb)
	}
	// Clean eviction: no writeback.
	_, _, wb = c.Access(512, false)
	if wb {
		t.Error("clean line must not write back")
	}
}

func TestWorkingSetFitsPerfectly(t *testing.T) {
	// The paper's 512 KB per-core LLC (Table I).
	c, err := New(Config{SizeBytes: 512 * 1024, LineBytes: 64, Ways: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Touch 256 KB twice: second pass must hit entirely.
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 256*1024; a += 64 {
			c.Access(a, false)
		}
	}
	if hr := c.HitRate(); hr < 0.49 {
		t.Errorf("hit rate %v, want ~0.5 (second pass all hits)", hr)
	}
}

func TestThrashingMisses(t *testing.T) {
	c, _ := New(Config{SizeBytes: 8192, LineBytes: 64, Ways: 2})
	src := rng.NewXoshiro256(5)
	for i := 0; i < 100000; i++ {
		c.Access(int64(rng.Intn(src, 1<<26))&^63, false)
	}
	if hr := c.HitRate(); hr > 0.01 {
		t.Errorf("hit rate %v for a 64 MB random stream over an 8 KB cache", hr)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 4096, LineBytes: 64, Ways: 0},
		{SizeBytes: 100, LineBytes: 64, Ways: 1},
		{SizeBytes: 4096, LineBytes: 48, Ways: 1},
		{SizeBytes: 64, LineBytes: 64, Ways: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}
