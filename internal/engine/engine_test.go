package engine

import (
	"reflect"
	"runtime/debug"
	"testing"

	"catsim/internal/addrmap"
	"catsim/internal/cpu"
	"catsim/internal/dram"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/trace"
)

// harness bundles one engine configuration with the components the
// assertions interrogate after the run.
type harness struct {
	cfg    Config
	ctrl   *memctrl.Controller
	scheme mitigation.Scheme
}

// makeHarness builds a fresh, fully deterministic engine setup: identical
// parameters always produce identical request streams and component
// state, so two harnesses are comparable run for run. sched selects a
// reference scheduler (heapSched, linearSched); nil runs the production
// tournament.
func makeHarness(t testing.TB, cores, requests int, threshold uint32, sched func(int) scheduler, batch bool, epochCPU int64) *harness {
	t.Helper()
	geom := dram.Default2Channel()
	timing := dram.DDR3_1600()
	policy, err := addrmap.NewRowInterleaved(geom)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := memctrl.New(geom, timing)
	if err != nil {
		t.Fatal(err)
	}
	spec := mitigation.SchemeSpec{Kind: mitigation.KindDRCAT, Threshold: threshold, Params: mitigation.Params{}}
	spec.Params.SetInt("counters", 64)
	spec.Params.SetInt("levels", 11)
	scheme, err := mitigation.Build(spec, geom.TotalBanks(), geom.RowsPerBank)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := trace.Lookup("black")
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]CoreSlot, cores)
	for i := range slots {
		c, err := cpu.NewCore(cpu.DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewSynthetic(wl, geom.TotalBytes(), geom.LineBytes, 7+uint64(i)*0x1000193)
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = CoreSlot{CPU: c, Gen: gen, Requests: requests}
	}
	cpuNS := 1000.0 / (float64(timing.BusMHz) * float64(cpu.DefaultCPUCyclesPerBusCycle))
	return &harness{
		cfg: Config{
			Cores:       slots,
			Ctrl:        ctrl,
			Policy:      policy,
			Geometry:    geom,
			Scheme:      scheme,
			CPUPerBus:   cpu.DefaultCPUCyclesPerBusCycle,
			IntervalCPU: 2_000_000,
			EpochCPU:    epochCPU,
			CPUCycleNS:  cpuNS,
			BusCycleNS:  1000.0 / float64(timing.BusMHz),
			Batch:       batch,
			newSched:    sched,
		},
		ctrl:   ctrl,
		scheme: scheme,
	}
}

// TestSchedulersEquivalent is the scheduler-equivalence contract: every
// scheduler (heap, tournament, linear) with and without batch-advance must
// replay the exact causal order of the historical per-request O(cores)
// scan — same per-bank activation counts, same controller statistics,
// same scheme activity, same end time.
func TestSchedulersEquivalent(t *testing.T) {
	variants := []struct {
		name  string
		sched func(int) scheduler
		batch bool
	}{
		{"heap", heapSched, false},
		{"heap_batch", heapSched, true},
		{"tournament", nil, false},
		{"tournament_batch", nil, true},
		{"linear_batch", linearSched, true},
	}
	for _, cores := range []int{1, 2, 5, 16} {
		ref := makeHarness(t, cores, 5000, 512, linearSched, false, 0)
		rr, err := Run(ref.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			h := makeHarness(t, cores, 5000, 512, v.sched, v.batch, 0)
			hr, err := Run(h.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hr, rr) {
				t.Errorf("cores=%d %s: result %+v != linear reference %+v", cores, v.name, hr, rr)
			}
			if h.ctrl.Stats() != ref.ctrl.Stats() {
				t.Errorf("cores=%d %s: controller stats diverge: %+v vs %+v",
					cores, v.name, h.ctrl.Stats(), ref.ctrl.Stats())
			}
			if h.scheme.Counts() != ref.scheme.Counts() {
				t.Errorf("cores=%d %s: scheme counts diverge", cores, v.name)
			}
		}
	}
}

// TestTournamentBeyond4096Cores: the tournament sizes its packed index
// from the core count, so a 4100-core production run (13 index bits) must
// replay the linear reference's causal order exactly.
func TestTournamentBeyond4096Cores(t *testing.T) {
	const cores, requests = 4100, 4
	ref := makeHarness(t, cores, requests, 512, linearSched, false, 0)
	rr, err := Run(ref.cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := makeHarness(t, cores, requests, 512, nil, true, 0)
	hr, err := Run(h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hr, rr) {
		t.Error("4100-core tournament result diverges from the linear reference")
	}
	if h.ctrl.Stats() != ref.ctrl.Stats() {
		t.Errorf("controller stats diverge: %+v vs %+v", h.ctrl.Stats(), ref.ctrl.Stats())
	}
	if h.scheme.Counts() != ref.scheme.Counts() {
		t.Error("scheme counts diverge")
	}
}

// TestEpochSamplingDoesNotPerturb locks the sampling contract: any epoch
// length (including none) yields an identical end state, and the samples
// add up to the run totals.
func TestEpochSamplingDoesNotPerturb(t *testing.T) {
	base := makeHarness(t, 3, 4000, 512, nil, true, 0)
	br, err := Run(base.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, epochCPU := range []int64{100_000, 777_777, 5_000_000} {
		h := makeHarness(t, 3, 4000, 512, nil, true, epochCPU)
		r, err := Run(h.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.EndCPU != br.EndCPU {
			t.Errorf("epoch=%d: end %d != unsampled %d", epochCPU, r.EndCPU, br.EndCPU)
		}
		if !reflect.DeepEqual(r.PerBankActs, br.PerBankActs) {
			t.Errorf("epoch=%d: per-bank activations diverge", epochCPU)
		}
		if h.ctrl.Stats() != base.ctrl.Stats() {
			t.Errorf("epoch=%d: controller stats diverge", epochCPU)
		}
		if h.scheme.Counts() != base.scheme.Counts() {
			t.Errorf("epoch=%d: scheme counts diverge", epochCPU)
		}
		if len(r.Samples) == 0 {
			t.Fatalf("epoch=%d: no samples", epochCPU)
		}
		var acts, reads, writes int64
		lastEnd := 0.0
		for i, s := range r.Samples {
			if s.Epoch != i {
				t.Errorf("epoch=%d: sample %d has index %d", epochCPU, i, s.Epoch)
			}
			if s.EndNS < lastEnd {
				t.Errorf("epoch=%d: EndNS not monotone at %d", epochCPU, i)
			}
			lastEnd = s.EndNS
			acts += s.Activations
			reads += s.Reads
			writes += s.Writes
		}
		if acts != h.scheme.Counts().Activations {
			t.Errorf("epoch=%d: sample activations sum %d != total %d",
				epochCPU, acts, h.scheme.Counts().Activations)
		}
		st := h.ctrl.Stats()
		if reads != st.Reads || writes != st.Writes {
			t.Errorf("epoch=%d: sample reads/writes %d/%d != totals %d/%d",
				epochCPU, reads, writes, st.Reads, st.Writes)
		}
	}
}

// TestSnapshotterSampled checks that a Snapshotter scheme's occupancy
// reaches the samples.
func TestSnapshotterSampled(t *testing.T) {
	h := makeHarness(t, 2, 4000, 512, nil, true, 500_000)
	r, err := Run(h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Samples[len(r.Samples)-1]
	if last.CountersCap == 0 {
		t.Fatal("DRCAT implements Snapshotter; CountersCap must be positive")
	}
	if last.CountersLive <= 0 || last.CountersLive > last.CountersCap {
		t.Errorf("live counters %d out of (0, %d]", last.CountersLive, last.CountersCap)
	}
	if last.TreeDepth < 1 {
		t.Errorf("tree depth %d, want >= 1 after traffic", last.TreeDepth)
	}
}

// allocsForRun measures total heap allocations of one complete engine
// run, setup included. The collector is paused for the measurement: a GC
// cycle landing mid-run occasionally charges a runtime-internal malloc to
// the loop, which would trip the zero gate below with a false positive
// (program-level allocation counts are deterministic — verified with
// MemProfileRate=1 — so anything GC-timing-dependent is runtime noise).
func allocsForRun(t testing.TB, requests int) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, func() {
		h := makeHarness(t, 2, requests, 512, nil, true, 0)
		if _, err := Run(h.cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// steadyStateExtra returns how many more allocations a run of 22000
// requests per slot makes than one of 2000. Under -race the runtime now
// and then charges a stray internal allocation to one measurement, so it
// measures up to three times and returns a positive count only when every
// attempt saw one; a real per-request allocation shows up as thousands on
// every attempt.
func steadyStateExtra(t *testing.T, allocs func(testing.TB, int) float64) float64 {
	t.Helper()
	var extra float64
	for attempt := 0; attempt < 3; attempt++ {
		small := allocs(t, 2000)
		if extra = allocs(t, 22000) - small; extra <= 0 {
			break
		}
	}
	return extra
}

// TestSteadyStateZeroAllocs is the engine's alloc gate: the per-request
// loop must not allocate. Comparing two runs that differ only in request
// count cancels the setup allocations exactly, so any nonzero difference
// is hot-path garbage.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if extra := steadyStateExtra(t, allocsForRun); extra > 0 {
		t.Errorf("steady-state loop allocated %.0f times over 40000 extra requests on every attempt (want 0)", extra)
	}
}

func TestConfigValidation(t *testing.T) {
	h := makeHarness(t, 1, 10, 512, nil, false, 0)
	bad := []func(c *Config){
		func(c *Config) { c.Cores = nil },
		func(c *Config) { c.Ctrl = nil },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Scheme = nil },
		func(c *Config) { c.CPUPerBus = 0 },
		func(c *Config) { c.EpochCPU = -1 },
		func(c *Config) { c.IntervalCPU = -1 },
		func(c *Config) { c.Cores[0].Requests = 0 },
		func(c *Config) { c.Cores[0].Gen = nil },
	}
	for i, mutate := range bad {
		cfg := h.cfg
		cfg.Cores = append([]CoreSlot(nil), h.cfg.Cores...)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}
