package runner

import (
	"context"
	"reflect"
	"testing"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/sim"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// oneByOne is the reference every Grid is held to: each cell, and its
// baseline when paired, run one by one on a fresh context, with no
// recording, cache or pool.
func oneByOne(t testing.TB, cells []Cell) []CellResult {
	t.Helper()
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		res, err := sim.NewContext().Run(c.Config)
		if err != nil {
			t.Fatalf("%s: %v", c.Tag, err)
		}
		out[i] = CellResult{Tag: c.Tag, Result: res}
		if c.Pair {
			base, err := sim.NewContext().Run(baselineConfig(c.Config))
			if err != nil {
				t.Fatalf("%s baseline: %v", c.Tag, err)
			}
			out[i].Baseline, out[i].ETO = base, eto(res, base)
		}
	}
	return out
}

// memoGrid builds a grid for the stream-memo tests: two paired schemes
// over ten workloads (ten shared keys, more than the eight workers of the
// parallel case), one cell whose seed no other cell uses, and two
// identical open-loop cells, which cannot be recorded.
func memoGrid(t *testing.T) (cells []Cell, shared int) {
	t.Helper()
	names := trace.WorkloadNames()[:10]
	for _, spec := range []sim.SchemeSpec{
		{Kind: mitigation.KindSCA, Counters: 64},
		{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
	} {
		for i, name := range names {
			wl, err := trace.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, Cell{
				Tag: spec.Label(512) + "/" + name,
				Config: sim.Config{
					Cores: 2, RequestsPerCore: 2000, Workload: wl,
					Scheme: spec, Threshold: 512, ThresholdScale: 0.03,
					IntervalNS: 2e6, Seed: 1 + uint64(i),
				},
				Pair: true,
			})
		}
	}
	lone := cells[0]
	lone.Tag, lone.Config.Seed = "lone", 99
	cells = append(cells, lone)
	ol, err := workload.Lookup("ol-poisson")
	if err != nil {
		t.Fatal(err)
	}
	open := cells[0]
	open.Tag, open.Config.Cores, open.Config.OpenLoop = "open", 0, &ol
	return append(cells, open, open), len(names)
}

// TestStreamMemoRecordsEachSharedKeyOnce: at Parallel 1 and 8 every
// stream key shared by several cells is recorded exactly once and lent to
// each of its cells, single-cell keys and open-loop cells never record,
// no more recordings are live at once than cells can be in flight (one,
// sequentially), every recording is released, and the results equal each
// cell run on its own.
func TestStreamMemoRecordsEachSharedKeyOnce(t *testing.T) {
	cells, shared := memoGrid(t)
	want := oneByOne(t, cells)
	for _, p := range []int{1, 8} {
		m := newStreamMemo(cells)
		got, err := (&Engine{Parallel: p, Contexts: NewContextPool()}).grid(context.Background(), cells, m)
		if err != nil {
			t.Fatal(err)
		}

		uses := map[*streamKey]int{}
		for _, k := range m.keyOf {
			if k != nil {
				uses[k]++
			}
		}
		if len(uses) != shared {
			t.Errorf("parallel %d: %d shared keys, want %d", p, len(uses), shared)
		}
		for _, n := range uses {
			if n != 2 {
				t.Errorf("parallel %d: a key lent to %d cells, want 2", p, n)
			}
		}
		if m.records != shared {
			t.Errorf("parallel %d: %d recordings for %d shared keys", p, m.records, shared)
		}
		for _, i := range []int{len(cells) - 3, len(cells) - 2, len(cells) - 1} {
			if m.keyOf[i] != nil {
				t.Errorf("parallel %d: cell %s shares a recording", p, cells[i].Tag)
			}
		}
		if m.peak < 1 || m.peak > p {
			t.Errorf("parallel %d: %d recordings live at once", p, m.peak)
		}
		if m.live != 0 {
			t.Errorf("parallel %d: %d recordings never released", p, m.live)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel %d: grid results differ from the cells run one by one", p)
		}
	}
}

// TestStreamMemoSkipsCachedCells: a grid whose every run the cache
// already holds draws no streams at all.
func TestStreamMemoSkipsCachedCells(t *testing.T) {
	cells, _ := memoGrid(t)
	e := &Engine{Parallel: 8, Cache: NewCache()}
	if _, err := e.Grid(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	m := newStreamMemo(cells)
	got, err := e.grid(context.Background(), cells, m)
	if err != nil {
		t.Fatal(err)
	}
	if m.records != 0 {
		t.Errorf("a fully cached grid recorded %d streams", m.records)
	}
	if !reflect.DeepEqual(got, oneByOne(t, cells)) {
		t.Error("cached grid results differ from the cells run one by one")
	}
}

// hammerCells is catbench hammer64's grid at the given size, its
// threshold and refresh interval scaled by scale (hammer64 runs 64 cores
// × 20,000 requests at scale 0.05): black under heavy kernel-3 double-
// and many-sided attacks, every scheme of its lineup paired with its
// baseline, oracle on. Each pattern is one stream key shared by all five
// schemes.
func hammerCells(cores, reqPerCore int, scale float64) []Cell {
	wl, _ := trace.Lookup("black")
	var cells []Cell
	for _, p := range []trace.Pattern{trace.PatternDoubleSided, trace.PatternManySided} {
		for _, spec := range []sim.SchemeSpec{
			{Kind: mitigation.KindSCA, Counters: 128},
			{Kind: mitigation.KindDRCAT, Counters: 64, MaxLevels: 11},
			{Kind: mitigation.KindCoMeT, Counters: 2048, Ways: 4},
			{Kind: mitigation.KindABACuS, Counters: 1024},
			{Kind: mitigation.KindStochastic, Counters: 64},
		} {
			cfg := sim.Config{
				Geometry:        dram.Default2Channel(),
				Timing:          dram.DDR3_1600(),
				Cores:           cores,
				RequestsPerCore: reqPerCore,
				Workload:        wl,
				Attack:          &sim.AttackConfig{Kernel: 3, Mode: trace.Heavy, Pattern: p},
				Scheme:          spec,
				Threshold:       uint32(32768*scale + 0.5),
				ThresholdScale:  scale,
				IntervalNS:      dram.RefreshIntervalNS() * scale,
				Seed:            1,
				CheckProtection: true,
			}
			cells = append(cells, Cell{Tag: spec.Label(cfg.Threshold) + "/" + p.String(), Config: cfg, Pair: true})
		}
	}
	return cells
}

// TestHammerGridReplaysTwoRecordings: a hammer64-shaped grid at Parallel 1
// and 4, on a cache and a context pool as catbench runs it, records each
// attack pattern's streams once — 2 recordings for 10 paired cells — and
// returns the DeepEqual results of every cell and baseline run one by one
// on a fresh context. Every scheme refreshes victims (ABACuS across
// banks), so the replayed runs exercise each scheme's refresh path.
func TestHammerGridReplaysTwoRecordings(t *testing.T) {
	cells := hammerCells(8, 2000, 1.0/256)
	want := oneByOne(t, cells)
	for _, r := range want {
		if r.Result.Counts.RefreshEvents == 0 {
			t.Errorf("%s issued no victim refreshes", r.Tag)
		}
	}
	for _, p := range []int{1, 4} {
		m := newStreamMemo(cells)
		e := &Engine{Parallel: p, Cache: NewCache(), Contexts: NewContextPool()}
		got, err := e.grid(context.Background(), cells, m)
		if err != nil {
			t.Fatal(err)
		}
		if m.records != 2 {
			t.Errorf("parallel %d: %d recordings, want 2", p, m.records)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel %d: grid results differ from the cells run one by one", p)
		}
	}
}

// BenchmarkGrid runs hammer64's grid shape at reduced size (64 cores ×
// 500 requests at threshold 128, 10 paired cells over 2 stream keys) on a
// fresh Cache and ContextPool at Parallel 1, as each catbench pass does,
// and reports the wall time per simulated request of the runs the grid
// executed and the recordings it made.
func BenchmarkGrid(b *testing.B) {
	const cores, reqPerCore = 64, 500
	cells := hammerCells(cores, reqPerCore, 1.0/256)
	var runs, records int
	for b.Loop() {
		cache := NewCache()
		m := newStreamMemo(cells)
		e := &Engine{Parallel: 1, Cache: cache, Contexts: NewContextPool()}
		if _, err := e.grid(context.Background(), cells, m); err != nil {
			b.Fatal(err)
		}
		runs += len(cache.Runs())
		records += m.records
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(runs*cores*reqPerCore), "ns/req")
	b.ReportMetric(float64(records)/float64(b.N), "recordings/grid")
}
