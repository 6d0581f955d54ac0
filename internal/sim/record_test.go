package sim

import (
	"math"
	"math/bits"
	"reflect"
	"testing"

	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/mitigation"
	"catsim/internal/trace"
)

// recordShape is one closed-loop stream shape of the recorded-run matrix.
type recordShape struct {
	name string
	cfg  Config
}

// recordShapes covers every closed-loop stream shape a figure grid
// builds: a single workload, a per-core mix, each attack pattern with and
// without a delayed onset, channel-affine streams on the sequential
// engine, the 4-core Fig. 11 systems, and runs spanning many auto-refresh
// intervals. Two more pin the decoded records: the ddr5 preset, whose
// (bank, row) place is the widest of any preset, and a scrambled system,
// whose records hold logical rows the engine still scrambles. Every run
// but ddr5's checks protection (an oracle over ddr5's 2^25 rows would
// dwarf the test), and every run samples epochs, so the Results compare
// every metric.
func recordShapes(t *testing.T) []recordShape {
	t.Helper()
	lookup := func(name string) trace.Spec {
		wl, err := trace.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	base := Config{
		Geometry:        dram.Default2Channel(),
		Cores:           2,
		RequestsPerCore: 2000,
		Workload:        lookup("black"),
		Scheme:          SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
		Threshold:       64,
		EpochNS:         20_000,
		Seed:            11,
		CheckProtection: true,
	}
	shapes := []recordShape{{"single", base}}

	mix := base
	mix.Cores = 4
	mix.WorkloadPerCore = []trace.Spec{lookup("black"), lookup("libq"), lookup("comm1"), lookup("str")}
	shapes = append(shapes, recordShape{"mix", mix})

	for _, p := range []trace.Pattern{trace.PatternGaussian, trace.PatternDoubleSided, trace.PatternManySided, trace.PatternBankSweep} {
		for _, onset := range []float64{0, 0.25} {
			c := base
			c.Attack = &AttackConfig{Kernel: 1, Mode: trace.Heavy, Pattern: p}
			c.AttackOnsetFrac = onset
			name := "attack-" + p.String()
			if onset > 0 {
				name += "-onset"
			}
			shapes = append(shapes, recordShape{name, c})
		}
	}

	affine := base
	affine.ChannelAffine = true
	shapes = append(shapes, recordShape{"affine", affine})

	quad2 := base
	quad2.Cores, quad2.Geometry = 4, dram.QuadCore2Channel()
	quad4 := quad2
	quad4.Geometry, quad4.ChannelInterleaved = dram.QuadCore4Channel(), true
	shapes = append(shapes, recordShape{"quad-core/2ch", quad2}, recordShape{"quad-core/4ch", quad4})

	intervals := base
	intervals.IntervalNS = 10_000
	shapes = append(shapes, recordShape{"intervals", intervals})

	ddr5 := base
	ddr5.Geometry, ddr5.CheckProtection = dram.DDR5_8Channel(), false
	scrambled := base
	s, err := dram.NewStrideScrambler(base.Geometry.RowsPerBank, 9)
	if err != nil {
		t.Fatal(err)
	}
	scrambled.Scrambler = s
	return append(shapes, recordShape{"ddr5", ddr5}, recordShape{"scrambled", scrambled})
}

// TestRecordedRunsMatchGenerated: for every closed-loop shape, a run
// replaying a recording of its streams returns the DeepEqual Result of a
// run generating them — on a fresh context, and on a context dirtied by a
// generated run at another seed and a recorded run of another scheme —
// and a generated run after a recorded one on the same context still
// matches.
func TestRecordedRunsMatchGenerated(t *testing.T) {
	for _, sh := range recordShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			cfg := sh.cfg
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecording(0)
			if err := rec.Record(cfg); err != nil {
				t.Fatal(err)
			}
			if !rec.packed {
				t.Fatal("stream did not fit packed words")
			}
			// ddr5's 6-bit gap field sends most gaps to escape words.
			if sh.name == "ddr5" && len(rec.words) < cfg.Cores*cfg.RequestsPerCore*5/4 {
				t.Errorf("ddr5 recording: %d words for %d requests, want escape words", len(rec.words), cfg.Cores*cfg.RequestsPerCore)
			}
			fresh, err := NewContext().RunRecorded(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, fresh) {
				t.Fatal("recorded run on a fresh context differs from the generated run")
			}

			ctx := NewContext()
			otherSeed := cfg
			otherSeed.Seed++
			if _, err := ctx.Run(otherSeed); err != nil {
				t.Fatal(err)
			}
			baseline := cfg
			baseline.Scheme = SchemeSpec{Kind: mitigation.KindNone}
			wantBase, err := Run(baseline)
			if err != nil {
				t.Fatal(err)
			}
			gotBase, err := ctx.RunRecorded(baseline, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantBase, gotBase.Clone()) {
				t.Fatal("recorded baseline on a reused context differs from the generated one")
			}
			for _, recorded := range []*Recording{rec, nil} {
				got, err := ctx.RunRecorded(cfg, recorded)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got.Clone()) {
					t.Fatalf("run on a reused context (recorded %v) differs from the generated run", recorded != nil)
				}
			}
		})
	}
}

// TestRecordingRejectsOtherStreams: a recording replays only runs of the
// stream identity it was recorded for — same stream shape, same seed —
// on the sequential engine, and only generated closed-loop streams can be
// recorded at all.
func TestRecordingRejectsOtherStreams(t *testing.T) {
	cfg := recordShapes(t)[0].cfg
	rec := NewRecording(0)
	if err := rec.Record(cfg); err != nil {
		t.Fatal(err)
	}
	otherSeed := cfg
	otherSeed.Seed++
	otherShape := cfg
	otherShape.RequestsPerCore++
	otherAttack := cfg
	otherAttack.Attack = &AttackConfig{Kernel: 1, Mode: trace.Heavy}
	for name, c := range map[string]Config{
		"seed": otherSeed, "requests": otherShape, "attack": otherAttack,
	} {
		if _, err := NewContext().RunRecorded(c, rec); err == nil {
			t.Errorf("a recording replayed a run with another %s", name)
		}
	}
	if _, err := NewContext().RunRecorded(cfg, NewRecording(0)); err == nil {
		t.Error("an empty recording replayed a run")
	}
	// The sharded twin of a recorded affine run draws the same streams but
	// runs on the partitioned engine, which replays nothing.
	affine := cfg
	affine.ChannelAffine = true
	if err := rec.Record(affine); err != nil {
		t.Fatal(err)
	}
	sharded := affine
	sharded.Shards = 2
	if _, err := NewContext().RunRecorded(sharded, rec); err == nil {
		t.Error("a recording replayed a sharded run")
	}

	open, _ := contextCase(t, mitigation.KindDRCAT, false, "open")
	replay, _ := contextCase(t, mitigation.KindDRCAT, false, "replay")
	for name, c := range map[string]Config{"open-loop": open, "replay": replay, "sharded": sharded} {
		if err := NewRecording(0).Record(c); err == nil {
			t.Errorf("recorded a %s config", name)
		}
	}
}

// TestUnpackableStreamFallsBack: a request that does not fit a packed
// word (here a compute gap of 2^32 cycles or more), and a geometry whose
// places need more than 31 bits, leave the recording unpacked, and runs
// handed it generate their streams instead.
func TestUnpackableStreamFallsBack(t *testing.T) {
	cfg := recordShapes(t)[0].cfg
	cfg.Workload.GapMean = 1 << 31 // about one gap in seven reaches 2^32
	cfg.RequestsPerCore = 100
	cfg.EpochNS = 0
	rec := NewRecording(0)
	if err := rec.Record(cfg); err != nil {
		t.Fatal(err)
	}
	if !rec.recorded || rec.packed || len(rec.words) != 0 {
		t.Fatalf("gaps past 2^32 were packed (recorded %v, packed %v, %d words)", rec.recorded, rec.packed, len(rec.words))
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewContext().RunRecorded(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("run handed an unpacked recording differs from the generated run")
	}

	wide := recordShapes(t)[0].cfg
	wide.Geometry = dram.DDR5_8Channel()
	wide.Geometry.RowsPerBank <<= 32 - 25 // ddr5's 25-bit places, widened to 32
	if _, fits := newLayout(wide.Geometry); fits {
		t.Fatalf("%d banks × %d rows fit a word", wide.Geometry.TotalBanks(), wide.Geometry.RowsPerBank)
	}
	if err := rec.Record(wide); err != nil {
		t.Fatal(err)
	}
	if !rec.recorded || rec.packed || len(rec.words) != 0 || len(rec.starts) != 0 {
		t.Errorf("a geometry wider than a word's place was packed (recorded %v, packed %v, %d words)",
			rec.recorded, rec.packed, len(rec.words))
	}
}

// TestPackRanges pins the packed word's field ranges on a geometry of
// each gap-field width that matters: Default2Channel (11 bits), ddr5 (6
// bits, the widest preset), one whose places fill 31 bits (no gap field:
// every gap takes the escape) and one bank of one row (no place). Each
// takes (bank, row) at its extremes, gaps just under the escape, at it,
// past it and at 2^32 − 1, and must pack them in one word below the
// escape and two from it on, and unpack the same requests; a negative gap
// or one of 2^32 appends nothing.
func TestPackRanges(t *testing.T) {
	full := dram.DDR5_8Channel()
	full.RowsPerBank <<= 31 - 25
	tiny := dram.Geometry{Channels: 1, RanksPerCh: 1, BanksPerRk: 1, RowsPerBank: 1, ColBytes: 64, LineBytes: 64}
	for _, tc := range []struct {
		g       dram.Geometry
		gapBits uint
	}{{dram.Default2Channel(), 11}, {dram.DDR5_8Channel(), 6}, {full, 0}, {tiny, 31}} {
		l, fits := newLayout(tc.g)
		if !fits {
			t.Fatalf("%d banks × %d rows do not fit a word", tc.g.TotalBanks(), tc.g.RowsPerBank)
		}
		if want := uint32(1)<<tc.gapBits - 1; l.escape != want {
			t.Errorf("%d banks × %d rows: escape %d, want %d", tc.g.TotalBanks(), tc.g.RowsPerBank, l.escape, want)
		}
		gaps := []int{0, int(l.escape), int(l.escape) + 1, math.MaxUint32}
		if l.escape > 0 {
			gaps = append(gaps, int(l.escape)-1)
		}
		last, lastRow := tc.g.TotalBanks()-1, tc.g.RowsPerBank-1
		for _, gap := range gaps {
			for _, req := range []engine.DecodedRequest{
				{Gap: gap},
				{Bank: last, Row: lastRow, Gap: gap, Write: true},
				{Bank: last, Gap: gap},
				{Row: lastRow, Gap: gap, Write: true},
			} {
				words, ok := l.pack(nil, req)
				want := 1
				if uint32(gap) >= l.escape {
					want = 2
				}
				if !ok || len(words) != want {
					t.Errorf("%d rows: pack(%+v) = %d words (fits %v), want %d", tc.g.RowsPerBank, req, len(words), ok, want)
					continue
				}
				c := cursor{words: words, layout: l}
				if got := c.Next(); got != req || len(c.words) != 0 {
					t.Errorf("%d rows: unpack(pack(%+v)) = %+v, %d words left", tc.g.RowsPerBank, req, got, len(c.words))
				}
			}
		}
		for _, gap := range []int{-1, math.MaxUint32 + 1} {
			if words, ok := l.pack(nil, engine.DecodedRequest{Gap: gap}); ok || len(words) != 0 {
				t.Errorf("%d rows: a gap of %d packed into %d words", tc.g.RowsPerBank, gap, len(words))
			}
		}
	}
}

// FuzzRecordRoundTrip decodes its bytes into a geometry and per-core
// (bank, row, gap, write) requests, packs them as Record does, replays
// them through the cursors and requires every request back, each core's
// cursor ending exactly at its last request. A geometry whose places need
// more than 31 bits must refuse to pack, and a gap outside [0, 2^32) must
// stop the packing.
//
// Byte 0 holds the geometry's log2 channels (bits 0-1), ranks (bit 2) and
// banks (bits 3-5), byte 1 its log2 rows (low 5 bits) and byte 2 the core
// count (1-8). Each request is 8 bytes: flags (bit 0 write, bit 1 start
// the next core, bits 2-3 the gap's kind), bank (1 byte), row (3 bytes)
// and gap (3 bytes). The gap's kind picks the raw value, one within one
// of the escape, the value modulo the escape, or the value past 2^32 (or
// negative, when its top bit is set).
func FuzzRecordRoundTrip(f *testing.F) {
	// Default2Channel's shape with requests near the escape; a 64-bank
	// geometry with a core change; a 31-bit place; a place too wide for a
	// word; a gap past 2^32.
	f.Add([]byte{0x19, 16, 2, 0x04, 15, 0xff, 0xff, 0xff, 0x01, 0, 0, 0x03, 3, 0, 0, 1, 0x00, 0, 0, 0})
	f.Add([]byte{0x1b, 17, 4, 0x05, 63, 1, 2, 3, 0, 0, 1, 0x0a, 7, 0, 0, 0, 9, 0, 0})
	f.Add([]byte{0x3f, 20, 1, 0x01, 255, 0xff, 0xff, 0x1f, 0xff, 0xff, 0xff})
	f.Add([]byte{0x3f, 31, 1, 0x00, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{0x00, 4, 1, 0x0c, 0, 3, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g := dram.Geometry{
			Channels:    1 << (data[0] & 3),
			RanksPerCh:  1 << (data[0] >> 2 & 1),
			BanksPerRk:  1 << (data[0] >> 3 & 7),
			RowsPerBank: 1 << (data[1] & 31),
			ColBytes:    64,
			LineBytes:   64,
		}
		cores := 1 + int(data[2]%8)
		var r Recording
		fits := r.start(g)
		placeBits := bits.TrailingZeros(uint(g.TotalBanks())) + bits.TrailingZeros(uint(g.RowsPerBank))
		if fits != (placeBits <= 31) {
			t.Fatalf("%d-bit places: fit a word = %v", placeBits, fits)
		}
		if !fits {
			return
		}
		want := make([][]engine.DecodedRequest, cores)
		core := 0
		for data = data[3:]; len(data) >= 8; data = data[8:] {
			if data[0]&2 != 0 && core+1 < cores {
				core++
			}
			v := int(data[5]) | int(data[6])<<8 | int(data[7])<<16
			var gap int
			switch data[0] >> 2 & 3 {
			case 0:
				gap = v
			case 1:
				gap = int(r.layout.escape) - 1 + v%3
			case 2:
				gap = v % (int(r.layout.escape) + 1)
			case 3:
				gap = math.MaxUint32 + 1 + v
				if v&0x800000 != 0 {
					gap = -1 - v
				}
			}
			req := engine.DecodedRequest{
				Bank:  int(data[1]) % g.TotalBanks(),
				Row:   (int(data[2]) | int(data[3])<<8 | int(data[4])<<16) % g.RowsPerBank,
				Gap:   gap,
				Write: data[0]&1 != 0,
			}
			inRange := req.Gap >= 0 && req.Gap <= math.MaxUint32
			if ok := r.add(core, req); ok != inRange {
				t.Fatalf("add(%+v) = %v, want %v", req, ok, inRange)
			}
			if !inRange {
				return
			}
			want[core] = append(want[core], req)
		}
		r.end(cores)
		if len(r.starts) != cores+1 {
			t.Fatalf("%d core starts for %d cores", len(r.starts), cores)
		}
		for i := range want {
			c := r.cursor(i)
			for k, req := range want[i] {
				if len(c.words) == 0 {
					t.Fatalf("core %d: words end after %d of %d requests", i, k, len(want[i]))
				}
				if got := c.Next(); got != req {
					t.Fatalf("core %d request %d: got %+v, want %+v", i, k, got, req)
				}
			}
			if len(c.words) != 0 {
				t.Fatalf("core %d: %d words left after its %d requests", i, len(c.words), len(want[i]))
			}
		}
	})
}
