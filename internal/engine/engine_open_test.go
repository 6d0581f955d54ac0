package engine

import (
	"reflect"
	"runtime/debug"
	"testing"

	"catsim/internal/trace"
)

// pacedSource adapts a closed-loop generator into an open-loop stream by
// stamping deterministic, mildly irregular arrival times — the minimal
// OpenSource the engine contract tests need.
type pacedSource struct {
	gen  trace.Generator
	now  int64
	step int64
	i    int64
}

func (p *pacedSource) Name() string { return "paced:" + p.gen.Name() }

func (p *pacedSource) Next() (trace.Request, int64) {
	r := p.gen.Next()
	p.i++
	p.now += p.step + p.i%7
	return r, p.now
}

// addOpenSlots attaches n deterministic open-loop sources to a harness.
func addOpenSlots(t testing.TB, h *harness, n, requests int, step int64) {
	t.Helper()
	wl, err := trace.Lookup("comm1")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		gen, err := trace.NewSynthetic(wl, h.cfg.Geometry.TotalBytes(),
			h.cfg.Geometry.LineBytes, 1000+uint64(j)*0x9E3779B9)
		if err != nil {
			t.Fatal(err)
		}
		h.cfg.Open = append(h.cfg.Open, OpenSlot{
			Gen:      &pacedSource{gen: gen, step: step + int64(j)},
			Requests: requests,
		})
	}
}

// TestOpenSlotsSchedulerEquivalent extends the scheduler-equivalence
// contract to open-loop slots: every scheduler, batched or not, must
// replay the linear reference's causal order for open-only and mixed
// core+open configurations — including the lazy arrival-key
// initialisation the tournament tree requires.
func TestOpenSlotsSchedulerEquivalent(t *testing.T) {
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
	for _, cores := range []int{0, 1, 3} {
		ref := makeHarness(t, max(cores, 1), 3000, 512, linearSched, false, 0)
		if cores == 0 {
			ref.cfg.Cores = nil
		}
		addOpenSlots(t, ref, 2, 3000, 40)
		rr, err := Run(ref.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			h := makeHarness(t, max(cores, 1), 3000, 512, v.sched, v.batch, 0)
			if cores == 0 {
				h.cfg.Cores = nil
			}
			addOpenSlots(t, h, 2, 3000, 40)
			hr, err := Run(h.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hr, rr) {
				t.Errorf("cores=%d %s: result diverges from linear reference", cores, v.name)
			}
			if h.ctrl.Stats() != ref.ctrl.Stats() {
				t.Errorf("cores=%d %s: controller stats diverge", cores, v.name)
			}
			if h.scheme.Counts() != ref.scheme.Counts() {
				t.Errorf("cores=%d %s: scheme counts diverge", cores, v.name)
			}
		}
	}
}

// TestOpenSlotsEpochInvariant: epoch sampling stays pure observation with
// open-loop traffic in the mix.
func TestOpenSlotsEpochInvariant(t *testing.T) {
	base := makeHarness(t, 1, 2000, 512, nil, true, 0)
	addOpenSlots(t, base, 2, 2000, 55)
	br, err := Run(base.cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := makeHarness(t, 1, 2000, 512, nil, true, 20_000)
	addOpenSlots(t, h, 2, 2000, 55)
	r, err := Run(h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.EndCPU != br.EndCPU || !reflect.DeepEqual(r.PerBankActs, br.PerBankActs) {
		t.Error("epoch sampling perturbed an open-loop run")
	}
	if h.ctrl.Stats() != base.ctrl.Stats() {
		t.Error("controller stats diverge under sampling")
	}
	if len(r.Samples) < 2 {
		t.Fatalf("expected multiple epochs, got %d", len(r.Samples))
	}
}

// countingAttr tallies attribution callbacks.
type countingAttr struct {
	acts     int64
	refreshN int64
	rows     int64
}

func (a *countingAttr) OnActivate(bank, row int) { a.acts++ }
func (a *countingAttr) OnRefresh(bank, lo, hi int) {
	a.refreshN++
	a.rows += int64(hi - lo + 1)
}

// TestAttributorSeesEveryEvent: the attribution hook observes exactly one
// activation per request and every refreshed row the scheme reports.
func TestAttributorSeesEveryEvent(t *testing.T) {
	h := makeHarness(t, 2, 3000, 128, nil, true, 0)
	addOpenSlots(t, h, 1, 3000, 30)
	attr := &countingAttr{}
	h.cfg.Attr = attr
	if _, err := Run(h.cfg); err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * 3000); attr.acts != want {
		t.Errorf("attributed %d activations, want %d", attr.acts, want)
	}
	if got := h.scheme.Counts().RowsRefreshed; attr.rows != got {
		t.Errorf("attributed %d refreshed rows, scheme reports %d", attr.rows, got)
	}
	if attr.rows == 0 {
		t.Error("no refresh traffic at threshold 128 — test is vacuous")
	}
}

// TestAttributorDoesNotPerturb: attaching an attributor changes nothing
// observable.
func TestAttributorDoesNotPerturb(t *testing.T) {
	plain := makeHarness(t, 2, 2000, 512, nil, true, 0)
	pr, err := Run(plain.cfg)
	if err != nil {
		t.Fatal(err)
	}
	attr := makeHarness(t, 2, 2000, 512, nil, true, 0)
	attr.cfg.Attr = &countingAttr{}
	ar, err := Run(attr.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, ar) || plain.ctrl.Stats() != attr.ctrl.Stats() {
		t.Error("attributor perturbed the run")
	}
}

// regressingSource emits one backwards arrival to exercise the engine's
// monotonicity clamp.
type regressingSource struct{ inner pacedSource }

func (r *regressingSource) Name() string { return "regressing" }
func (r *regressingSource) Next() (trace.Request, int64) {
	req, at := r.inner.Next()
	if r.inner.i == 10 {
		return req, at - 500 // time runs backwards once
	}
	return req, at
}

func TestOpenSlotClampsNonMonotoneArrivals(t *testing.T) {
	h := makeHarness(t, 1, 100, 512, nil, true, 0)
	wl, err := trace.Lookup("comm1")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewSynthetic(wl, h.cfg.Geometry.TotalBytes(), h.cfg.Geometry.LineBytes, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.cfg.Open = []OpenSlot{{Gen: &regressingSource{inner: pacedSource{gen: gen, step: 100}}, Requests: 100}}
	if _, err := Run(h.cfg); err != nil {
		t.Fatalf("non-monotone source broke the run: %v", err)
	}
}

func TestOpenSlotValidation(t *testing.T) {
	h := makeHarness(t, 1, 10, 512, nil, false, 0)
	h.cfg.Cores = nil
	if _, err := Run(h.cfg); err == nil {
		t.Error("no cores and no open slots accepted")
	}
	h.cfg.Open = []OpenSlot{{Gen: nil, Requests: 10}}
	if _, err := Run(h.cfg); err == nil {
		t.Error("nil open generator accepted")
	}
	wl, _ := trace.Lookup("comm1")
	gen, err := trace.NewSynthetic(wl, h.cfg.Geometry.TotalBytes(), h.cfg.Geometry.LineBytes, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.cfg.Open = []OpenSlot{{Gen: &pacedSource{gen: gen, step: 10}, Requests: 0}}
	if _, err := Run(h.cfg); err == nil {
		t.Error("zero-budget open slot accepted")
	}
}

// allocsForOpenRun mirrors allocsForRun for the open-loop path.
func allocsForOpenRun(t testing.TB, requests int) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, func() {
		h := makeHarness(t, 1, 100, 512, nil, true, 0)
		addOpenSlots(t, h, 2, requests, 25)
		attr := &countingAttr{}
		h.cfg.Attr = attr
		if _, err := Run(h.cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpenSteadyStateZeroAllocs extends the alloc gate to the open-loop
// request path (attribution hook attached): no per-request garbage.
func TestOpenSteadyStateZeroAllocs(t *testing.T) {
	if extra := steadyStateExtra(t, allocsForOpenRun); extra > 0 {
		t.Errorf("open-loop steady state allocated %.0f times over 40000 extra requests on every attempt (want 0)", extra)
	}
}
