// Package cpu models the processor front end the paper's USIMM setup uses
// (Table I: 3.2 GHz cores, 128-entry ROB, fetch width 4, retire width 2):
// a core executes compute cycles between memory requests, can keep a
// limited number of reads outstanding (memory-level parallelism bounded by
// the ROB), and blocks on the oldest outstanding read when the window is
// full — the in-order-retirement behaviour that turns long bank stalls into
// execution-time overhead (ETO).
package cpu

import "fmt"

// DefaultWindow is the outstanding-read limit. A 128-entry ROB at IPC ~2
// with ~100 ns memory latency sustains roughly this many overlapping misses.
const DefaultWindow = 8

// DefaultCPUCyclesPerBusCycle relates the 3.2 GHz core clock to the
// 800 MHz memory bus clock.
const DefaultCPUCyclesPerBusCycle = 4

// Core tracks one core's progress in CPU cycles.
type Core struct {
	// Now is the core's current time in CPU cycles.
	Now int64

	window   []int64 // completion times (CPU cycles) of outstanding reads
	head     int     // ring-buffer head (oldest)
	count    int
	lastDone int64 // latest read completion seen
}

// NewCore returns a core with the given outstanding-read window.
func NewCore(window int) (*Core, error) {
	if window < 1 {
		return nil, fmt.Errorf("cpu: window must be at least 1, got %d", window)
	}
	return &Core{window: make([]int64, window)}, nil
}

// Reset rewinds the core to time zero with no outstanding reads, keeping
// the window slab. Run contexts use it to reuse cores across runs.
func (c *Core) Reset() {
	c.Now = 0
	c.head = 0
	c.count = 0
	c.lastDone = 0
}

// AdvanceGap spends gap CPU cycles of compute before the next request.
func (c *Core) AdvanceGap(gap int) {
	if gap > 0 {
		c.Now += int64(gap)
	}
}

// PrepareIssue blocks the core on the oldest outstanding read when the
// window is full (in-order ROB head), returning the issue time.
func (c *Core) PrepareIssue() int64 {
	if c.count == len(c.window) {
		oldest := c.window[c.head]
		c.head = (c.head + 1) % len(c.window)
		c.count--
		if oldest > c.Now {
			c.Now = oldest
		}
	}
	return c.Now
}

// NoteRead records an issued read completing at done (CPU cycles).
func (c *Core) NoteRead(done int64) {
	c.window[(c.head+c.count)%len(c.window)] = done
	c.count++
	if done > c.lastDone {
		c.lastDone = done
	}
}

// Drain returns the time at which all outstanding reads have completed.
func (c *Core) Drain() int64 {
	t := c.Now
	if c.lastDone > t {
		t = c.lastDone
	}
	return t
}
