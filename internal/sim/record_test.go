package sim

import (
	"reflect"
	"testing"

	"catsim/internal/dram"
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
// intervals. Every run checks protection and samples epochs, so the
// Results compare every metric.
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
	return shapes
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
				t.Fatal("stream did not fit packed records")
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
// record (here a compute gap past 2^23 cycles) leaves the recording
// unpacked, and runs handed it generate their streams instead.
func TestUnpackableStreamFallsBack(t *testing.T) {
	cfg := recordShapes(t)[0].cfg
	cfg.Workload.GapMean = 1 << 26
	cfg.RequestsPerCore = 100
	cfg.EpochNS = 0
	rec := NewRecording(0)
	if err := rec.Record(cfg); err != nil {
		t.Fatal(err)
	}
	if rec.packed {
		t.Fatal("gaps past the packed range were packed")
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
}

// TestPackRanges pins the packed record's field ranges.
func TestPackRanges(t *testing.T) {
	const lineBytes = 64
	for _, tc := range []struct {
		req  trace.Request
		fits bool
	}{
		{trace.Request{Addr: 0, Gap: 0}, true},
		{trace.Request{Addr: maxLine * lineBytes, Gap: maxGap, Write: true}, true},
		{trace.Request{Addr: (maxLine + 1) * lineBytes, Gap: 1}, false},
		{trace.Request{Addr: 64, Gap: maxGap + 1}, false},
		{trace.Request{Addr: 32, Gap: 1}, false},
		{trace.Request{Addr: -64, Gap: 1}, false},
		{trace.Request{Addr: 64, Gap: -1}, false},
	} {
		rec, ok := pack(tc.req, lineBytes)
		if ok != tc.fits {
			t.Errorf("pack(%+v) fits = %v, want %v", tc.req, ok, tc.fits)
			continue
		}
		if ok {
			if got := unpack(rec, lineBytes); got != tc.req {
				t.Errorf("unpack(pack(%+v)) = %+v", tc.req, got)
			}
		}
	}
}
