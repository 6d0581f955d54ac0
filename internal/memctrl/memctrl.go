// Package memctrl is the event-driven memory-controller model: closed-page
// accesses over per-bank and per-channel resources with DDR3 timing,
// rank-level auto-refresh every tREFI, and on-demand victim-row refreshes
// injected by the crosstalk-mitigation schemes (which occupy the target
// bank for one row cycle per refreshed row and delay queued demand
// requests — the source of the paper's execution-time overhead).
//
// The model deliberately works at bank/channel occupancy granularity
// rather than per-command DDR cycles: CMRPO depends only on which rows are
// refreshed, and ETO on how long victim refreshes keep banks from demand
// requests, and bank occupancy captures both. Being closed-page, it needs
// only the bank of each access, so it is driven by flat bank index
// (dram.Geometry.Flat) and never sees a row or column.
package memctrl

import (
	"fmt"
	"math"
	"math/bits"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
)

// Stats aggregates controller activity (bus cycles and counts).
type Stats struct {
	Reads             int64
	Writes            int64
	WriteDrains       int64 // write-queue drain bursts
	ReadLatencySum    int64 // bus cycles, issue to data
	AutoRefreshes     int64
	VictimRefreshRows int64
	VictimRefreshBusy int64 // bus cycles of bank occupancy injected
}

// Sub returns the field-wise difference s - prev: the controller activity
// between two Stats() snapshots. The epoch engine samples Stats at epoch
// boundaries and uses Sub to report per-epoch reads, latency and
// victim-refresh occupancy.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:             s.Reads - prev.Reads,
		Writes:            s.Writes - prev.Writes,
		WriteDrains:       s.WriteDrains - prev.WriteDrains,
		ReadLatencySum:    s.ReadLatencySum - prev.ReadLatencySum,
		AutoRefreshes:     s.AutoRefreshes - prev.AutoRefreshes,
		VictimRefreshRows: s.VictimRefreshRows - prev.VictimRefreshRows,
		VictimRefreshBusy: s.VictimRefreshBusy - prev.VictimRefreshBusy,
	}
}

// Add returns the field-wise sum s + o. The sharded engine folds
// per-partition controller stats into system totals with it.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:             s.Reads + o.Reads,
		Writes:            s.Writes + o.Writes,
		WriteDrains:       s.WriteDrains + o.WriteDrains,
		ReadLatencySum:    s.ReadLatencySum + o.ReadLatencySum,
		AutoRefreshes:     s.AutoRefreshes + o.AutoRefreshes,
		VictimRefreshRows: s.VictimRefreshRows + o.VictimRefreshRows,
		VictimRefreshBusy: s.VictimRefreshBusy + o.VictimRefreshBusy,
	}
}

// Write-queue watermarks (Table I: capacity 64). Writes are posted into a
// per-channel queue and drained in bursts once the high watermark is
// reached, down to the low watermark — USIMM's write-drain policy. Reads
// therefore only contend with writes during drain bursts.
const (
	WriteQueueCap  = 64
	writeDrainHigh = 48
	writeDrainLow  = 16
)

// Controller owns the DRAM banks of one system. Its accesses name a bank
// by flat index (ReadFlat, WriteFlat, VictimRefresh): flat banks number
// each rank's banks contiguously and each channel's ranks contiguously,
// so a bank's rank and channel are shifts of its index. Read and Write
// take an addrmap.Coord instead and reduce it to its flat bank; they
// remain only for the end-to-end benchmark's layer ledger
// (bench/catbench), which replays recorded coordinates through them.
type Controller struct {
	geom      dram.Geometry
	timing    dram.Timing
	banks     []dram.Bank
	chanFree  []int64   // data-bus availability per channel
	nextRef   []int64   // next auto-refresh per rank (flattened ch*ranks+rk)
	writeQ    [][]int32 // posted writes per channel, as flat banks
	rankShift uint      // flat bank >> rankShift is its rank index into nextRef
	chanShift uint      // flat bank >> chanShift is its channel
	rowCycles int       // bank-busy cycles per victim-refreshed row
	stats     Stats
}

// New builds a controller for the geometry and timing: it allocates the
// bank, channel, rank and write-queue state, then ends in Reset.
func New(geom dram.Geometry, timing dram.Timing) (*Controller, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	if geom.TotalBanks() > math.MaxInt32 {
		return nil, fmt.Errorf("memctrl: %d banks overflow the write queue's 32-bit bank index", geom.TotalBanks())
	}
	// Every dimension is a power of two (Validate), so the shifts are exact.
	rankShift := uint(bits.TrailingZeros(uint(geom.BanksPerRk)))
	c := &Controller{
		geom:      geom,
		timing:    timing,
		banks:     make([]dram.Bank, geom.TotalBanks()),
		chanFree:  make([]int64, geom.Channels),
		nextRef:   make([]int64, geom.Channels*geom.RanksPerCh),
		writeQ:    make([][]int32, geom.Channels),
		rankShift: rankShift,
		chanShift: rankShift + uint(bits.TrailingZeros(uint(geom.RanksPerCh))),
	}
	for ch := range c.writeQ {
		c.writeQ[ch] = make([]int32, 0, WriteQueueCap)
	}
	c.Reset()
	return c, nil
}

// Reset puts the controller in its starting state without allocating:
// idle banks, free channels, staggered rank refresh clocks, empty write
// queues, the default victim-row cost and zeroed statistics. New ends in
// it, and run contexts use it to reuse the controller across repeated
// runs.
func (c *Controller) Reset() {
	clear(c.banks)
	clear(c.chanFree)
	for i := range c.nextRef {
		// Stagger rank refreshes as real controllers do.
		c.nextRef[i] = int64(c.timing.TREFI) * int64(i+1) / int64(len(c.nextRef)+1)
	}
	for ch := range c.writeQ {
		c.writeQ[ch] = c.writeQ[ch][:0]
	}
	c.rowCycles = c.timing.RowRefreshCycles()
	c.stats = Stats{}
}

// SetVictimRowCycles overrides the bank-busy cycles charged per victim-
// refreshed row. Scaled experiment runs use it to keep refresh-stall
// fractions representative when the refresh threshold is scaled down with
// the run length (see internal/experiments).
func (c *Controller) SetVictimRowCycles(cycles int) {
	if cycles < 1 {
		cycles = 1
	}
	c.rowCycles = cycles
}

// Stats returns accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// applyAutoRefresh lazily blocks all banks of rank r (flattened
// ch*ranks+rk, whose banks are flat r*BanksPerRk onward) for tRFC for
// every tREFI boundary that has passed.
func (c *Controller) applyAutoRefresh(at int64, r int) {
	for c.nextRef[r] <= at {
		start := c.nextRef[r]
		rank := c.banks[r<<c.rankShift : (r+1)<<c.rankShift]
		for i := range rank {
			rank[i].BlockFor(start, int64(c.timing.TRFC))
		}
		c.nextRef[r] += int64(c.timing.TREFI)
		c.stats.AutoRefreshes++
	}
}

// access performs one closed-page access to the flat bank and returns the
// data-completion time in bus cycles.
func (c *Controller) access(at int64, flat int, cas int) int64 {
	c.applyAutoRefresh(at, flat>>c.rankShift)
	b := &c.banks[flat]
	// Victim-refresh debt drains in bank idle time first.
	if b.RefreshDebt > 0 && at > b.FreeAt {
		drained := at - b.FreeAt
		if drained > b.RefreshDebt {
			drained = b.RefreshDebt
		}
		b.FreeAt += drained
		b.RefreshDebt -= drained
		c.stats.VictimRefreshBusy += drained
	}
	start := at
	if b.FreeAt > start {
		start = b.FreeAt
	}
	// Remaining debt interleaves with demand one row refresh at a time:
	// the request waits for the row in progress, never the whole burst.
	if b.RefreshDebt > 0 {
		step := int64(c.rowCycles)
		if step > b.RefreshDebt {
			step = b.RefreshDebt
		}
		start += step
		b.RefreshDebt -= step
		c.stats.VictimRefreshBusy += step
	}
	dataAt := start + int64(c.timing.TRCD) + int64(cas)
	// Channel data-bus contention: push the access until the burst fits.
	ch := flat >> c.chanShift
	if c.chanFree[ch] > dataAt {
		delta := c.chanFree[ch] - dataAt
		start += delta
		dataAt += delta
	}
	b.FreeAt = start + int64(c.timing.TRC)
	b.Activations++
	c.chanFree[ch] = dataAt + int64(c.timing.TBurst)
	return dataAt + int64(c.timing.TBurst)
}

// ReadFlat issues a demand read to the flat bank at bus cycle `at` and
// returns its completion.
func (c *Controller) ReadFlat(at int64, flat int) int64 {
	done := c.access(at, flat, c.timing.TCAS)
	c.stats.Reads++
	c.stats.ReadLatencySum += done - at
	return done
}

// WriteFlat posts a write to the flat bank into its channel's write queue
// (the caller does not wait). Once the queue reaches the high watermark it
// drains in a burst down to the low watermark, occupying banks and the
// channel data bus.
func (c *Controller) WriteFlat(at int64, flat int) {
	ch := flat >> c.chanShift
	c.writeQ[ch] = append(c.writeQ[ch], int32(flat))
	c.stats.Writes++
	if len(c.writeQ[ch]) >= writeDrainHigh {
		c.drainWrites(at, ch, writeDrainLow)
	}
}

// drainWrites applies queued writes for the channel until the queue length
// drops to target.
func (c *Controller) drainWrites(at int64, ch, target int) {
	q := c.writeQ[ch]
	if len(q) <= target {
		return
	}
	c.stats.WriteDrains++
	for _, flat := range q[:len(q)-target] {
		c.access(at, int(flat), c.timing.TCWD)
	}
	n := copy(q, q[len(q)-target:])
	c.writeQ[ch] = q[:n]
}

// Read is ReadFlat on coord's bank.
func (c *Controller) Read(at int64, coord addrmap.Coord) int64 {
	return c.ReadFlat(at, c.geom.Flat(coord.Bank))
}

// Write is WriteFlat on coord's bank.
func (c *Controller) Write(at int64, coord addrmap.Coord) { c.WriteFlat(at, c.geom.Flat(coord.Bank)) }

// FlushWrites drains every queued write (end of simulation).
func (c *Controller) FlushWrites(at int64) {
	for ch := range c.writeQ {
		c.drainWrites(at, ch, 0)
	}
}

// VictimRefresh queues rows*rowCycles of refresh work on the bank. The
// work drains in idle time and interleaves with demand row by row (see
// access), modelling a controller that breaks the victim-refresh burst
// into individual ACT/PRE pairs rather than locking the bank for the
// whole burst.
func (c *Controller) VictimRefresh(at int64, flat int, rows int) {
	if rows <= 0 {
		return
	}
	b := &c.banks[flat]
	b.RefreshDebt += int64(rows) * int64(c.rowCycles)
	b.VictimRefreshRows += int64(rows)
	c.stats.VictimRefreshRows += int64(rows)
}

// String summarises the controller state.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{banks=%d reads=%d writes=%d autoref=%d victimRows=%d}",
		len(c.banks), c.stats.Reads, c.stats.Writes, c.stats.AutoRefreshes, c.stats.VictimRefreshRows)
}
