package runner

import (
	"sync"

	"catsim/internal/sim"
)

// streamMemo draws each closed-loop request stream that several cells of
// one grid share once, and lends the recording (sim.Recording) to every
// cell that shares it. Cells run stream-key-major (order), so a key's
// cells are dispatched together and only a few recordings are live at a
// time: a key is recorded single-flight by the first of its cells that
// has a run to execute, and released when its last cell finishes, its
// slab going back to a free list. Slabs are sized to the grid's largest
// key, so a released one serves any later key; at about 4 bytes a request
// (sim.Recording), a key of 64 cores × 20,000 requests fills 5 MB.
//
// A cell whose streams no other cell shares, and a config that cannot be
// recorded (replay, open-loop, sharded), generates its streams as always.
type streamMemo struct {
	order []int        // execution order: cell indices grouped by key, keys by first cell
	keyOf []*streamKey // per cell; nil where the cell generates its own streams
	slab  int          // words per recording

	mu      sync.Mutex
	free    []*sim.Recording
	records int // recordings made
	live    int // recordings held by keys
	peak    int // most recordings live at once
}

type streamKey struct {
	once sync.Once
	rec  *sim.Recording // set by once; nil when recording failed or after release
	left int            // cells not yet finished; guarded by streamMemo.mu
}

// newStreamMemo groups cells by stream identity (sim.SameStream).
func newStreamMemo(cells []Cell) *streamMemo {
	m := &streamMemo{keyOf: make([]*streamKey, len(cells))}
	type group struct {
		cfg   sim.Config
		cells []int
	}
	var groups []*group
	bySeed := map[uint64][]*group{} // recordable groups, by seed
	for i, c := range cells {
		var g *group
		recordable := sim.Recordable(c.Config)
		if recordable {
			for _, h := range bySeed[c.Config.Seed] {
				if sim.SameStream(h.cfg, c.Config) {
					g = h
					break
				}
			}
		}
		if g == nil {
			g = &group{cfg: c.Config}
			groups = append(groups, g)
			if recordable {
				bySeed[c.Config.Seed] = append(bySeed[c.Config.Seed], g)
			}
		}
		g.cells = append(g.cells, i)
	}
	for _, g := range groups {
		m.order = append(m.order, g.cells...)
		if len(g.cells) < 2 {
			continue
		}
		k := &streamKey{left: len(g.cells)}
		for _, i := range g.cells {
			m.keyOf[i] = k
		}
		m.slab = max(m.slab, g.cfg.Cores*g.cfg.RequestsPerCore)
	}
	return m
}

// acquire returns the recording cell i replays, recording cfg's streams
// if the cell is its key's first taker; nil when the cell generates its
// own streams. A failed recording returns nil too: the cell's own runs
// then report the error.
func (m *streamMemo) acquire(i int, cfg sim.Config) *sim.Recording {
	k := m.keyOf[i]
	if k == nil {
		return nil
	}
	k.once.Do(func() {
		rec := m.take()
		ok := rec.Record(cfg) == nil
		// Under mu: release reads k.rec, also for cells that skip acquire.
		m.mu.Lock()
		defer m.mu.Unlock()
		if ok {
			k.rec = rec
		} else {
			m.put(rec)
		}
	})
	return k.rec
}

// release marks cell i finished, freeing its key's recording after the
// key's last cell.
func (m *streamMemo) release(i int) {
	k := m.keyOf[i]
	if k == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k.left--
	if k.left == 0 && k.rec != nil {
		m.put(k.rec)
		k.rec = nil
	}
}

func (m *streamMemo) take() *sim.Recording {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records++
	m.live++
	m.peak = max(m.peak, m.live)
	if n := len(m.free); n > 0 {
		rec := m.free[n-1]
		m.free = m.free[:n-1]
		return rec
	}
	return sim.NewRecording(m.slab)
}

// put returns a recording to the free list; call with m.mu held.
func (m *streamMemo) put(rec *sim.Recording) {
	m.live--
	m.free = append(m.free, rec)
}
