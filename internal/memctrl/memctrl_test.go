package memctrl

import (
	"reflect"
	"testing"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/rng"
)

func newCtrl(t *testing.T) (*Controller, dram.Geometry, dram.Timing) {
	t.Helper()
	g, tm := dram.Default2Channel(), dram.DDR3_1600()
	c, err := New(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, tm
}

func coord(ch, rk, bk, row, col int) addrmap.Coord {
	return addrmap.Coord{Bank: dram.BankID{Channel: ch, Rank: rk, Bank: bk}, Row: row, Col: col}
}

func TestReadLatencyUncontended(t *testing.T) {
	c, _, tm := newCtrl(t)
	done := c.Read(0, coord(0, 0, 0, 10, 0))
	want := int64(tm.TRCD + tm.TCAS + tm.TBurst)
	if done != want {
		t.Errorf("read done at %d, want %d", done, want)
	}
}

func TestSameBankAccessesSerialise(t *testing.T) {
	c, _, tm := newCtrl(t)
	c.Read(0, coord(0, 0, 0, 10, 0))
	done := c.Read(1, coord(0, 0, 0, 99, 0))
	// Second access waits for tRC (closed-page row cycle).
	want := int64(tm.TRC + tm.TRCD + tm.TCAS + tm.TBurst)
	if done != want {
		t.Errorf("second read done at %d, want %d", done, want)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	c, _, tm := newCtrl(t)
	c.Read(0, coord(0, 0, 0, 10, 0))
	done := c.Read(1, coord(0, 0, 1, 10, 0))
	// Bank 1 is free; only the shared channel data bus can push it.
	max := int64(1 + tm.TRCD + tm.TCAS + 2*tm.TBurst)
	if done > max {
		t.Errorf("parallel-bank read done at %d, want <= %d", done, max)
	}
}

func TestChannelBusContention(t *testing.T) {
	c, _, tm := newCtrl(t)
	// Two simultaneous reads on different banks, same channel: the second
	// data burst must wait for the first.
	d1 := c.Read(0, coord(0, 0, 0, 1, 0))
	d2 := c.Read(0, coord(0, 0, 1, 1, 0))
	if d2 < d1+int64(tm.TBurst) {
		t.Errorf("bursts overlap on one channel: %d then %d", d1, d2)
	}
	// Different channels: no interaction.
	c2, _, _ := newCtrl(t)
	e1 := c2.Read(0, coord(0, 0, 0, 1, 0))
	e2 := c2.Read(0, coord(1, 0, 0, 1, 0))
	if e1 != e2 {
		t.Errorf("independent channels should complete together: %d vs %d", e1, e2)
	}
}

func TestVictimRefreshInterleavesWithDemand(t *testing.T) {
	c, g, tm := newCtrl(t)
	flat := g.Flat(dram.BankID{Channel: 0, Rank: 0, Bank: 0})
	const rows = 100
	c.VictimRefresh(0, flat, rows)
	// The demand read waits only for the row refresh in progress, not the
	// whole 100-row burst (per-row preemption).
	done := c.Read(0, coord(0, 0, 0, 5, 0))
	want := int64(tm.TRC) + int64(tm.TRCD+tm.TCAS+tm.TBurst)
	if done != want {
		t.Errorf("read done at %d, want %d (one row of blocking)", done, want)
	}
	if got := c.Stats().VictimRefreshRows; got != rows {
		t.Errorf("VictimRefreshRows = %d, want %d", got, rows)
	}
	// The remaining debt drains during idle time: a read far in the future
	// sees a free bank.
	done2 := c.Read(1_000_000, coord(0, 0, 0, 7, 0))
	if done2 != 1_000_000+int64(tm.TRCD+tm.TCAS+tm.TBurst) {
		t.Errorf("late read done at %d; idle drain failed", done2)
	}
	if c.banks[flat].RefreshDebt != 0 {
		t.Errorf("debt %d not drained", c.banks[flat].RefreshDebt)
	}
}

func TestVictimRefreshDebtConserved(t *testing.T) {
	// Every queued refresh cycle is eventually accounted as bank busy time
	// (idle drain or interleave), never lost.
	c, g, tm := newCtrl(t)
	flat := g.Flat(dram.BankID{Channel: 0, Rank: 0, Bank: 0})
	const rows = 50
	c.VictimRefresh(0, flat, rows)
	at := int64(0)
	for i := 0; i < 200 && c.banks[flat].RefreshDebt > 0; i++ {
		at += 5 // back-to-back demand: drain happens via interleaving
		c.Read(at, coord(0, 0, 0, i, 0))
	}
	busy := c.Stats().VictimRefreshBusy
	if busy != int64(rows*tm.TRC) {
		t.Errorf("busy cycles %d, want %d", busy, rows*tm.TRC)
	}
}

func TestVictimRefreshOtherBankUnaffected(t *testing.T) {
	c, g, tm := newCtrl(t)
	c.VictimRefresh(0, g.Flat(dram.BankID{Channel: 0, Rank: 0, Bank: 0}), 1000)
	done := c.Read(0, coord(0, 0, 3, 5, 0))
	if done != int64(tm.TRCD+tm.TCAS+tm.TBurst) {
		t.Errorf("unrelated bank delayed: done at %d", done)
	}
}

func TestAutoRefreshBlocksRank(t *testing.T) {
	c, _, tm := newCtrl(t)
	// Jump past several tREFI boundaries; the access right after a
	// boundary must see residual tRFC blocking.
	at := int64(tm.TREFI) * 10
	done := c.Read(at, coord(0, 0, 0, 1, 0))
	if done < at+int64(tm.TRCD+tm.TCAS+tm.TBurst) {
		t.Errorf("done %d before minimum latency", done)
	}
	if c.Stats().AutoRefreshes == 0 {
		t.Error("no auto-refreshes applied")
	}
}

// TestAvgReadLatency: the read-latency sum that the run's average is
// derived from counts bus cycles from issue to data.
func TestAvgReadLatency(t *testing.T) {
	c, _, tm := newCtrl(t)
	c.Read(0, coord(0, 0, 0, 1, 0))
	st := c.Stats()
	if want := int64(tm.TRCD + tm.TCAS + tm.TBurst); st.Reads != 1 || st.ReadLatencySum != want {
		t.Errorf("reads %d, latency sum %d cycles, want 1 and %d", st.Reads, st.ReadLatencySum, want)
	}
}

func TestWriteQueueDrainsAtHighWatermark(t *testing.T) {
	c, _, _ := newCtrl(t)
	// Post writes just below the high watermark: none applied yet.
	for i := 0; i < 47; i++ {
		c.Write(int64(i), coord(0, 0, i%8, i, 0))
	}
	if got := len(c.writeQ[0]); got != 47 {
		t.Fatalf("pending = %d, want 47", got)
	}
	if c.Stats().WriteDrains != 0 {
		t.Fatal("drain fired early")
	}
	// The 48th write triggers a drain down to the low watermark.
	c.Write(48, coord(0, 0, 0, 99, 0))
	if got := len(c.writeQ[0]); got != 16 {
		t.Errorf("pending after drain = %d, want 16", got)
	}
	if c.Stats().WriteDrains != 1 {
		t.Errorf("drains = %d, want 1", c.Stats().WriteDrains)
	}
}

func TestWriteDrainOccupiesBanks(t *testing.T) {
	c, _, tm := newCtrl(t)
	// Fill one bank's queue and force a drain; a read right after must
	// queue behind the drained writes.
	for i := 0; i < 48; i++ {
		c.Write(0, coord(0, 0, 0, i, 0))
	}
	done := c.Read(0, coord(0, 0, 0, 500, 0))
	if done <= int64(tm.TRC) {
		t.Errorf("read done at %d; expected it behind the write burst", done)
	}
}

func TestFlushWritesEmptiesQueues(t *testing.T) {
	c, _, _ := newCtrl(t)
	for i := 0; i < 10; i++ {
		c.Write(0, coord(0, 0, 0, i, 0))
		c.Write(0, coord(1, 0, 0, i, 0))
	}
	c.FlushWrites(100)
	if len(c.writeQ[0]) != 0 || len(c.writeQ[1]) != 0 {
		t.Error("flush left pending writes")
	}
}

func TestNewValidation(t *testing.T) {
	g := dram.Default2Channel()
	g.Channels = 3
	if _, err := New(g, dram.DDR3_1600()); err == nil {
		t.Error("expected geometry error")
	}
	tm := dram.DDR3_1600()
	tm.TRFC = 0
	if _, err := New(dram.Default2Channel(), tm); err == nil {
		t.Error("expected timing error")
	}
}

// TestStatsSubCoversEveryField guards the hand-enumerated delta: give
// every field a distinct value and check Sub against the zero snapshot
// returns it unchanged, so a future Stats field cannot silently vanish
// from the per-epoch samples.
func TestStatsSubCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	if got := s.Sub(Stats{}); got != s {
		t.Errorf("Sub(zero) = %+v, want %+v — a field is missing from Sub", got, s)
	}
}

// TestFlatBanksMatchCoords drives one controller through the flat-bank
// entries in time order and another through Read/Write(Coord), with each
// bank's Unflat, one channel at a time, over 2ch, 4ch (two ranks per
// channel) and ddr5. Channels share no state, so the two see the same
// read completions and end in equal Stats only if the controller puts
// each flat bank on its own channel. The rank and channel it derives from
// a flat bank by shifts are also checked against Unflat for every bank,
// which catches a wrong rank shift the two paths would share.
func TestFlatBanksMatchCoords(t *testing.T) {
	tm := dram.DDR3_1600()
	for _, tc := range []struct {
		name string
		geom dram.Geometry
	}{
		{"2ch", dram.Default2Channel()},
		{"4ch", dram.Default4Channel()},
		{"ddr5", dram.DDR5_8Channel()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.geom
			flat, err := New(g, tm)
			if err != nil {
				t.Fatal(err)
			}
			byCoord, err := New(g, tm)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < g.TotalBanks(); b++ {
				id := g.Unflat(b)
				if b>>flat.rankShift != id.Channel*g.RanksPerCh+id.Rank || b>>flat.chanShift != id.Channel {
					t.Fatalf("bank %d: rank index %d, channel %d; Unflat gives %+v",
						b, b>>flat.rankShift, b>>flat.chanShift, id)
				}
			}

			// Accesses spanning several tREFI, a quarter of them writes,
			// with an occasional victim refresh.
			type op struct {
				at          int64
				bank        int
				write       bool
				refreshRows int
			}
			src := rng.NewXoshiro256(3)
			ops := make([]op, 20000)
			at := int64(0)
			for i := range ops {
				r := src.Uint64()
				at += int64(r % 8)
				ops[i] = op{at: at, bank: int(r >> 8 % uint64(g.TotalBanks())), write: r>>40%4 == 0}
				if r>>48%64 == 0 {
					ops[i].refreshRows = 1 + int(r>>56%16)
				}
			}
			done := make([]int64, len(ops))
			for i, o := range ops {
				if o.write {
					flat.WriteFlat(o.at, o.bank)
				} else {
					done[i] = flat.ReadFlat(o.at, o.bank)
				}
				flat.VictimRefresh(o.at, o.bank, o.refreshRows)
			}
			flat.FlushWrites(at)
			for ch := 0; ch < g.Channels; ch++ {
				for i, o := range ops {
					id := g.Unflat(o.bank)
					if id.Channel != ch {
						continue
					}
					c := addrmap.Coord{Bank: id, Row: i % g.RowsPerBank}
					if o.write {
						byCoord.Write(o.at, c)
					} else if d := byCoord.Read(o.at, c); d != done[i] {
						t.Fatalf("op %d (bank %d): read done at %d through Coord, %d through the flat bank", i, o.bank, d, done[i])
					}
					byCoord.VictimRefresh(o.at, o.bank, o.refreshRows)
				}
			}
			byCoord.FlushWrites(at)
			st := flat.Stats()
			if st != byCoord.Stats() {
				t.Errorf("stats through Coord %+v, through flat banks %+v", byCoord.Stats(), st)
			}
			if st.WriteDrains == 0 || st.AutoRefreshes == 0 || st.VictimRefreshBusy == 0 {
				t.Errorf("the access mix missed a controller path: %+v", st)
			}
		})
	}
}
