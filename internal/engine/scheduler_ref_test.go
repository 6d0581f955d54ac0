package engine

// Reference schedulers for the equivalence tests and benchmarks. Neither
// runs in production: a test selects one through Config.newSched.

// heapSched and linearSched adapt the reference constructors to
// Config.newSched.
func heapSched(n int) scheduler   { return newHeapScheduler(n) }
func linearSched(n int) scheduler { return newLinearScheduler(n) }

// heapScheduler is a binary min-heap over core indices keyed by
// (clock, index). pos tracks each core's heap slot so update/remove work
// on arbitrary cores without a search; no operation allocates.
type heapScheduler struct {
	now  []int64 // core index -> clock
	heap []int32 // heap slot -> core index
	pos  []int32 // core index -> heap slot (-1 once removed)
}

func newHeapScheduler(n int) *heapScheduler {
	h := &heapScheduler{
		now:  make([]int64, n),
		heap: make([]int32, n),
		pos:  make([]int32, n),
	}
	// All clocks are 0, so slot order = index order already satisfies the
	// heap property under the (clock, index) key.
	for i := range h.heap {
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

// less orders core a before core b under the (clock, index) key.
func (h *heapScheduler) less(a, b int32) bool {
	return h.now[a] < h.now[b] || (h.now[a] == h.now[b] && a < b)
}

func (h *heapScheduler) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *heapScheduler) siftUp(slot int) {
	for slot > 0 {
		parent := (slot - 1) / 2
		if !h.less(h.heap[slot], h.heap[parent]) {
			return
		}
		h.swap(slot, parent)
		slot = parent
	}
}

func (h *heapScheduler) siftDown(slot int) {
	n := len(h.heap)
	for {
		min, l, r := slot, 2*slot+1, 2*slot+2
		if l < n && h.less(h.heap[l], h.heap[min]) {
			min = l
		}
		if r < n && h.less(h.heap[r], h.heap[min]) {
			min = r
		}
		if min == slot {
			return
		}
		h.swap(slot, min)
		slot = min
	}
}

func (h *heapScheduler) pick() int {
	if len(h.heap) == 0 {
		return -1
	}
	return int(h.heap[0])
}

// bound returns the exact second-smallest key: in a binary min-heap it is
// the smaller of the root's children.
func (h *heapScheduler) bound(int) (int64, int32) {
	switch {
	case len(h.heap) < 2:
		return int64(1)<<62 - 1, int32(1) << 30
	case len(h.heap) == 2 || h.less(h.heap[1], h.heap[2]):
		return h.now[h.heap[1]], h.heap[1]
	default:
		return h.now[h.heap[2]], h.heap[2]
	}
}

func (h *heapScheduler) update(i int, now int64) {
	h.now[i] = now
	slot := int(h.pos[i])
	h.siftDown(slot)
	h.siftUp(slot)
}

func (h *heapScheduler) remove(i int) {
	slot := int(h.pos[i])
	last := len(h.heap) - 1
	h.swap(slot, last)
	h.heap = h.heap[:last]
	h.pos[i] = -1
	if slot < last {
		h.siftDown(slot)
		h.siftUp(slot)
	}
}

// linearScheduler is the O(cores) reference scan: smallest clock wins,
// first index on ties (strict < while scanning in index order).
type linearScheduler struct {
	now   []int64
	alive []bool
}

func newLinearScheduler(n int) *linearScheduler {
	l := &linearScheduler{now: make([]int64, n), alive: make([]bool, n)}
	for i := range l.alive {
		l.alive[i] = true
	}
	return l
}

func (l *linearScheduler) pick() int {
	best := -1
	for i, alive := range l.alive {
		if !alive {
			continue
		}
		if best < 0 || l.now[i] < l.now[best] {
			best = i
		}
	}
	return best
}

func (l *linearScheduler) update(i int, now int64) { l.now[i] = now }

func (l *linearScheduler) remove(i int) { l.alive[i] = false }

// bound scans for the best key excluding core i (reference implementation;
// the linear scheduler exists for equivalence tests, not speed).
func (l *linearScheduler) bound(i int) (int64, int32) {
	best := -1
	for j, alive := range l.alive {
		if !alive || j == i {
			continue
		}
		if best < 0 || l.now[j] < l.now[best] {
			best = j
		}
	}
	if best < 0 {
		return int64(1)<<62 - 1, int32(1) << 30
	}
	return l.now[best], int32(best)
}
