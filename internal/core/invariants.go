package core

import "fmt"

// Leaf describes one active counter and the row range it governs, as
// recovered by walking the tree. Diagnostics, tests, and the examples use
// it to show tree shapes; the hot path never materialises it.
type Leaf struct {
	Counter int    // heap slot of the counter
	Lo, Hi  int    // inclusive row range
	Depth   int    // tree level of the leaf
	Value   uint32 // current counter value
	Weight  uint8  // DRCAT weight register
}

// Leaves returns the active counters in row order.
func (t *Tree) Leaves() []Leaf {
	var out []Leaf
	var walk func(i, depth int)
	walk = func(i, depth int) {
		if t.state[i] == slotInternal {
			walk(2*i+1, depth+1)
			walk(2*i+2, depth+1)
			return
		}
		// Slot i is the (i+1-2^depth)-th node of its level, left to right.
		size := t.cfg.Rows >> depth
		lo := (i + 1 - 1<<depth) * size
		out = append(out, Leaf{Counter: i, Lo: lo, Hi: lo + size - 1, Depth: depth,
			Value: t.value[i], Weight: t.weight[i]})
	}
	walk(0, 0)
	return out
}

// CheckInvariants verifies the structural soundness of the tree:
//
//  1. the root slot is populated, every other populated slot hangs off an
//     internal parent, and every internal node has both children, so the
//     leaves partition [0, Rows) exactly;
//  2. no populated slot lies at or beyond maxUsed, the bound of the slab
//     scans;
//  3. the leaf count equals the active-counter count, which is at most M;
//  4. order lists every internal node exactly once;
//  5. threshold indices are within the ladder; and
//  6. no counter value exceeds the refresh threshold T.
//
// It returns the first violation found, or nil. Tests call it after every
// mutation batch; it is deliberately exhaustive rather than fast.
func (t *Tree) CheckInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: invariant violated: "+format, args...)
	}
	if t.state[0] == slotAbsent {
		return fail("root slot is empty")
	}
	leaves, internal := 0, 0
	for i, s := range t.state {
		if s == slotAbsent {
			continue
		}
		if i > 0 && t.state[(i-1)/2] != slotInternal {
			return fail("slot %d is an orphan: its parent is not an internal node", i)
		}
		if i >= t.maxUsed {
			return fail("slot %d populated beyond the scan bound %d", i, t.maxUsed)
		}
		if s == slotInternal {
			internal++
			if r := 2*i + 2; r >= len(t.state) || t.state[r-1] == slotAbsent || t.state[r] == slotAbsent {
				return fail("internal node %d is missing a child", i)
			}
			continue
		}
		leaves++
		if int(t.thIdx[i]) >= t.cfg.MaxLevels {
			return fail("counter %d threshold index %d out of ladder", i, t.thIdx[i])
		}
		if t.value[i] > t.cfg.RefreshThreshold {
			return fail("counter %d value %d exceeds T=%d", i, t.value[i], t.cfg.RefreshThreshold)
		}
	}
	if leaves != t.nCtrs || t.nCtrs > t.cfg.Counters {
		return fail("%d leaves but %d active counters (M=%d)", leaves, t.nCtrs, t.cfg.Counters)
	}
	if len(t.order) != internal {
		return fail("order lists %d nodes, %d are internal", len(t.order), internal)
	}
	seen := make(map[int32]bool, len(t.order))
	for k, i := range t.order {
		if i < 0 || int(i) >= len(t.state) || t.state[i] != slotInternal || seen[i] {
			return fail("order[%d] = %d is not a distinct internal node", k, i)
		}
		seen[i] = true
	}
	return nil
}
