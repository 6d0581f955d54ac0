package experiments

import (
	"reflect"
	"testing"

	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// memoGrid builds a grid for the stream-memo tests: two paired schemes
// over ten workloads (ten shared keys, more than the eight workers of the
// parallel case), one cell whose seed no other cell uses, and two
// identical open-loop cells, which cannot be recorded.
func memoGrid(t *testing.T, o *Options) (cells []runner.Cell, shared int) {
	t.Helper()
	o.Scale = 0.001 // a few thousand requests per core
	o.Workloads = trace.WorkloadNames()[:10]
	if err := o.fill(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []mitigation.Kind{mitigation.KindSCA, mitigation.KindDRCAT} {
		cs, err := o.workloadCells(spec.String(), simSchemeSpec(spec, 64), 32768, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cs...)
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
	return append(cells, open, open), len(o.Workloads)
}

// TestStreamMemoRecordsEachSharedKeyOnce: at Parallel 1 and 8 every
// stream key shared by several cells is recorded exactly once and lent to
// each of its cells, single-cell keys and open-loop cells never record,
// no more recordings are live at once than cells can be in flight (one,
// sequentially), every recording is released, and the results equal the
// plain runner grid's.
func TestStreamMemoRecordsEachSharedKeyOnce(t *testing.T) {
	for _, p := range []int{1, 8} {
		o := para(p)
		o.NoCache = true
		cells, shared := memoGrid(t, &o)
		m := newStreamMemo(cells)
		got, err := o.runGrid(cells, m, nil)
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

		want, err := o.engine().Grid(o.Context, cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel %d: memo grid results differ from the plain runner grid", p)
		}
	}
}

// TestStreamMemoSkipsCachedCells: a grid whose every run the cache
// already holds draws no streams at all.
func TestStreamMemoSkipsCachedCells(t *testing.T) {
	o := para(8)
	o.Cache = runner.NewCache()
	cells, _ := memoGrid(t, &o)
	want, err := o.runGrid(cells, newStreamMemo(cells), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := newStreamMemo(cells)
	got, err := o.runGrid(cells, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.records != 0 {
		t.Errorf("a fully cached grid recorded %d streams", m.records)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("cached grid results differ from the first run's")
	}
}
