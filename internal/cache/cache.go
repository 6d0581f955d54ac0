// Package cache implements the last-level cache of the paper's system
// (Table I: 512 KB per core): a set-associative, write-back, write-allocate
// LRU cache. The synthetic workload presets are calibrated post-LLC, so the
// crosstalk experiments drive memory directly; the adaptive example uses
// the cache to turn a raw program reference stream into the memory traffic
// the controller sees.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes the cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Cache is a set-associative write-back cache. Not safe for concurrent use.
type Cache struct {
	cfg     Config
	sets    int
	offBits uint
	tags    []int64 // line tag per slot; -1 when invalid
	dirty   []bool
	lastUse []int64
	tick    int64
	hits    int64
	misses  int64
}

// New builds a cache; all dimensions must be powers of two.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: non-positive dimension %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines < cfg.Ways || cfg.SizeBytes%cfg.LineBytes != 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, cfg.Ways)
	}
	sets := lines / cfg.Ways
	for _, v := range []int{cfg.LineBytes, sets} {
		if v&(v-1) != 0 {
			return nil, fmt.Errorf("cache: dimension %d not a power of two", v)
		}
	}
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		offBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tags:    make([]int64, lines),
		dirty:   make([]bool, lines),
		lastUse: make([]int64, lines),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c, nil
}

// Access looks up addr. On a miss the line is allocated; if a dirty victim
// is evicted, its address is returned with writeback=true. The caller
// forwards misses (and writebacks) to the memory system.
func (c *Cache) Access(addr int64, write bool) (hit bool, victim int64, writeback bool) {
	c.tick++
	line := addr >> c.offBits
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line {
			c.hits++
			c.lastUse[base+w] = c.tick
			if write {
				c.dirty[base+w] = true
			}
			return true, 0, false
		}
	}
	c.misses++
	slot := base
	for w := 1; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == -1 {
			slot = base + w
			break
		}
		if c.lastUse[base+w] < c.lastUse[slot] {
			slot = base + w
		}
	}
	if c.tags[slot] >= 0 && c.dirty[slot] {
		victim = c.tags[slot] << c.offBits
		writeback = true
	}
	c.tags[slot] = line
	c.dirty[slot] = write
	c.lastUse[slot] = c.tick
	return false, victim, writeback
}

// HitRate returns the fraction of accesses that hit.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
