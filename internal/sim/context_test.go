package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// contextCase builds one cell of the reuse matrix: a scheme kind on one
// engine path (sequential or channel-sharded) driving one workload shape
// (closed-loop, mixed open-loop, or trace replay).
func contextCase(t *testing.T, kind mitigation.Kind, sharded bool, shape string) (Config, bool) {
	t.Helper()
	wl, err := trace.Lookup("black")
	if err != nil {
		t.Fatal(err)
	}
	spec := SchemeSpec{Kind: kind}
	switch kind {
	case mitigation.KindNone, mitigation.KindPRA:
	case mitigation.KindPRCAT, mitigation.KindDRCAT:
		spec.Counters, spec.MaxLevels = 64, 11
	default:
		spec.Counters = 64
	}
	cfg := Config{
		Geometry:        dram.Default2Channel(),
		Cores:           4,
		RequestsPerCore: 2000,
		Workload:        wl,
		Scheme:          spec,
		Threshold:       64,
		EpochNS:         20_000,
		Seed:            11,
		CheckProtection: true,
		// Small enough that the scaled victim-refresh cost rounds to zero:
		// SetVictimRowCycles(0) must still be applied (it clamps to the
		// 1-cycle floor), on rebuild and reuse alike.
		ThresholdScale: 0.01,
	}
	if sharded {
		cfg.Shards = 2
		cfg.ChannelAffine = true
	}
	switch shape {
	case "closed":
		// Attack blend plus a delayed onset, so the reuse path has to
		// rewind the whole generator stack (synthetic, attack, phase
		// switch), not just the synthetic stream.
		cfg.Attack = &AttackConfig{Kernel: 1, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided}
		cfg.AttackOnsetFrac = 0.25
	case "open":
		ol, err := workload.Lookup("ol-mixed-attack")
		if err != nil {
			t.Fatal(err)
		}
		ol.Requests = 4000
		cfg.OpenLoop = &ol
	case "replay":
		if sharded {
			// Replay streams replay exactly as captured; ChannelAffine (and
			// therefore sharding) is rejected by validation.
			return Config{}, false
		}
		src := cfg
		container, err := Capture(src)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cores, cfg.RequestsPerCore = 0, 0
		cfg.Workload = trace.Spec{}
		cfg.Replay = container
	}
	return cfg, true
}

// TestContextReuseByteIdentical is the run-context contract: for every
// scheme kind, engine path and workload shape, a Context whose state was
// dirtied by interleaved runs with a different seed and a different scheme
// kind must return the byte-identical Result a brand-new context produces
// — DeepEqual on the struct and byte-equal JSON.
func TestContextReuseByteIdentical(t *testing.T) {
	for _, kind := range mitigation.Kinds() {
		for _, sharded := range []bool{false, true} {
			for _, shape := range []string{"closed", "open", "replay"} {
				name := kind.String() + "/"
				if sharded {
					name += "sharded/"
				} else {
					name += "seq/"
				}
				name += shape
				t.Run(name, func(t *testing.T) {
					cfg, ok := contextCase(t, kind, sharded, shape)
					if !ok {
						t.Skip("invalid combination")
					}
					want, err := NewContext().Run(cfg)
					if err != nil {
						t.Fatal(err)
					}

					// Dirty every reusable layer: a different scheme kind at a
					// different seed (the scheme rebuilds, the streams rewind),
					// then the original scheme at that seed (rebuilt again), so
					// the final run must reset both in place.
					otherSeed := cfg
					otherSeed.Seed = 12
					otherKind := otherSeed
					otherKind.Scheme = SchemeSpec{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11}
					if kind == mitigation.KindDRCAT {
						otherKind.Scheme = SchemeSpec{Kind: mitigation.KindSCA, Counters: 64}
					}
					ctx := NewContext()
					for _, dirty := range []Config{cfg, otherKind, otherSeed} {
						if _, err := ctx.Run(dirty); err != nil {
							t.Fatal(err)
						}
					}
					reused, err := ctx.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					reused = reused.Clone()
					if !reflect.DeepEqual(want, reused) {
						t.Fatalf("reused context differs from a brand-new one:\n got %+v\nwant %+v", reused, want)
					}
					wj, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					rj, err := json.Marshal(reused)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wj, rj) {
						t.Fatalf("reused context JSON differs:\n got %s\nwant %s", rj, wj)
					}
				})
			}
		}
	}
}

// TestContextShapeChangeRebuilds locks the other half of the contract: a
// context fed a different shape (scheme, threshold, workload, geometry)
// mid-sequence still matches one-shot runs for every step.
func TestContextShapeChangeRebuilds(t *testing.T) {
	base, _ := contextCase(t, mitigation.KindDRCAT, false, "closed")
	steps := []Config{base}

	shifted := base
	shifted.Threshold = 128
	steps = append(steps, shifted)

	otherScheme := base
	otherScheme.Scheme = SchemeSpec{Kind: mitigation.KindCoMeT, Counters: 64, Ways: 4}
	steps = append(steps, otherScheme)

	otherWL, err := trace.Lookup("comm1")
	if err != nil {
		t.Fatal(err)
	}
	otherStreams := base
	otherStreams.Workload = otherWL
	otherStreams.Attack = nil
	otherStreams.AttackOnsetFrac = 0
	steps = append(steps, otherStreams)

	steps = append(steps, base) // and back

	// Engine-path switches: the same streams pinned to their channels as
	// one partition, then as two (Shards: 2), then the unpinned base again.
	// The stack must rebuild whenever the partition count changes.
	affine := base
	affine.ChannelAffine = true
	sharded := affine
	sharded.Shards = 2
	steps = append(steps, affine, sharded, base)

	// A run without the oracle leaves the last one built in place: the
	// next protection run must reuse it only for the threshold and
	// geometry it was built for, not the previous run's. First T=16 then
	// T=512, then 16Ki-row banks then the 64Ki-row default.
	sca := base
	sca.Scheme = SchemeSpec{Kind: mitigation.KindSCA, Counters: 64}
	lowT := sca
	lowT.Threshold = 16
	unchecked := sca
	unchecked.Threshold = 512
	unchecked.CheckProtection = false
	checked := unchecked
	checked.CheckProtection = true
	gs, err := dram.ParseGeometry("2ch:rows=16Ki")
	if err != nil {
		t.Fatal(err)
	}
	fewRows := checked
	fewRows.Geometry = gs.Geometry()
	steps = append(steps, lowT, unchecked, checked, fewRows, unchecked, checked)

	ctx := NewContext()
	for i, cfg := range steps {
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := ctx.Run(cfg)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got = got.Clone(); !reflect.DeepEqual(want, got) {
			t.Fatalf("step %d: context result differs from one-shot Run", i)
		}
	}
}

// TestContextRecoversFromFailedRun: a run whose scheme fails to build
// after the controller was already reset leaves the stack half-built, and
// the next run on that context must still match a one-shot Run. Runner
// pools hand such a context to the next job.
func TestContextRecoversFromFailedRun(t *testing.T) {
	for _, kind := range []mitigation.Kind{mitigation.KindPRA, mitigation.KindCoMeT, mitigation.KindDRCAT} {
		t.Run(kind.String(), func(t *testing.T) {
			good, _ := contextCase(t, kind, false, "closed")
			bad := good
			// 3 counters cannot divide the bank's rows: Build fails.
			bad.Scheme = SchemeSpec{Kind: mitigation.KindSCA, Counters: 3}
			want, err := Run(good)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewContext()
			if _, err := ctx.Run(good); err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.Run(bad); err == nil {
				t.Fatal("SCA with 3 counters built")
			}
			got, err := ctx.Run(good)
			if err != nil {
				t.Fatal(err)
			}
			if got = got.Clone(); !reflect.DeepEqual(want, got) {
				t.Fatal("run after a failed run differs from one-shot Run")
			}
		})
	}
}

// TestContextSteadyStateAllocs pins the zero-alloc reuse property on the
// closed-loop sweep path and on open-loop jobs, with and without the
// oracle (the oracle-on case is a protection sweep's cell): after warmup,
// a repeated same-shape run through one context must not allocate on the
// hot path — a seed sweep generating its streams, a figure grid's runs
// replaying one recording, and a server's open-loop jobs at rotating
// seeds. A small fixed tolerance absorbs runtime noise (timer/GC
// bookkeeping) and the open-loop Result's tenant table, not per-run
// growth.
func TestContextSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		shape    string
		recorded bool
	}{
		{"closed", false},
		{"closed", true},
		{"open", false}, // recordings hold closed-loop streams only
	} {
		shape, recorded := tc.shape, tc.recorded
		for _, check := range []bool{false, true} {
			cfg, _ := contextCase(t, mitigation.KindDRCAT, false, shape)
			cfg.CheckProtection = check
			cfg.EpochNS = 0
			var rec *Recording
			if recorded {
				rec = NewRecording(0)
				if err := rec.Record(cfg); err != nil {
					t.Fatal(err)
				}
			}
			ctx := NewContext()
			seed := uint64(1)
			run := func() {
				if !recorded {
					cfg.Seed = seed
					seed++
				}
				if _, err := ctx.RunRecorded(cfg, rec); err != nil {
					t.Fatal(err)
				}
			}
			run() // build
			run() // settle slab growth
			if allocs := testing.AllocsPerRun(10, run); allocs > 2 {
				t.Errorf("%s recorded=%v CheckProtection=%v: steady-state context run allocates %.1f times per run, want <= 2",
					shape, recorded, check, allocs)
			}
		}
	}
}
