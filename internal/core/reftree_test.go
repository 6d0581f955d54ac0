package core

import (
	"fmt"
	"strings"
)

// refTree is the differential reference for Tree: a direct transcription
// of the paper's Fig. 5 SRAM layout — an array I of intermediate nodes
// carrying left/right pointers plus leaf flags, an array C of counters,
// and an array W of weight registers. Row-range boundaries are not
// stored; they are recovered during pointer-chasing traversal. It runs
// Algorithm 1 and DRCAT's §V-B reconfiguration on that layout, sharing
// only Config, the ladders and Stats with Tree, and the differential
// tests in tree_test.go require the two to agree on every access.
type refTree struct {
	cfg       Config
	ladder    []uint32
	lambda    int
	weightCap uint8

	inodes   []inode
	counters []counterState
	weights  []uint8
	nInodes  int
	nCtrs    int
	full     bool

	stats Stats
}

// inode is one row of the intermediate-node array I (paper Fig. 5b): two
// successor pointers plus flags telling whether each successor is another
// intermediate node (the paper's flag polarity) or a leaf counter.
type inode struct {
	left, right         int32
	leftNode, rightNode bool
}

// counterState is one row of the counter array C plus the per-counter level
// register l_i of Algorithm 1. depth is the true tree depth (used for range
// recovery and the L-level cap); thIdx indexes the split-threshold ladder
// and is forced to L-1 for every counter once the tree is fully built.
type counterState struct {
	value uint32
	depth uint8
	thIdx uint8
}

// newRefTree builds a reference CAT in its initial (pre-split) shape.
func newRefTree(cfg Config) (*refTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ladder := cfg.Ladder
	if ladder == nil {
		ladder = NewLadder(cfg.Counters, cfg.MaxLevels, cfg.RefreshThreshold)
	}
	t := &refTree{
		cfg:       cfg,
		ladder:    ladder,
		lambda:    cfg.preSplit(),
		weightCap: cfg.weightCap(),
		inodes:    make([]inode, cfg.Counters-1+1), // M-1 max; +1 avoids a zero-length array for M=1
		counters:  make([]counterState, cfg.Counters),
		weights:   make([]uint8, cfg.Counters),
	}
	t.rebuild()
	return t, nil
}

// rebuild restores the pre-split uniform tree with zeroed counters.
func (t *refTree) rebuild() {
	t.nInodes = 0
	t.nCtrs = 0
	t.full = false
	for i := range t.weights {
		t.weights[i] = 0
	}
	leaves := 1 << (t.lambda - 1)
	t.buildUniform(leaves)
	if t.nCtrs == t.cfg.Counters {
		t.markFull()
	}
}

// buildUniform allocates a complete subtree with the given number of leaves
// and returns a reference to it (index plus is-node flag).
func (t *refTree) buildUniform(leaves int) (idx int32, isNode bool) {
	if leaves == 1 {
		ci := int32(t.nCtrs)
		t.nCtrs++
		t.counters[ci] = counterState{
			value: 0,
			depth: uint8(t.lambda - 1),
			thIdx: uint8(t.lambda - 1),
		}
		return ci, false
	}
	ni := int32(t.nInodes)
	t.nInodes++
	l, ln := t.buildUniform(leaves / 2)
	r, rn := t.buildUniform(leaves / 2)
	t.inodes[ni] = inode{left: l, right: r, leftNode: ln, rightNode: rn}
	return ni, true
}

// markFull implements lines 23-25 of Algorithm 1.
func (t *refTree) markFull() {
	t.full = true
	for i := 0; i < t.nCtrs; i++ {
		t.counters[i].thIdx = uint8(t.cfg.MaxLevels - 1)
	}
}

// locate descends from the root to the leaf covering row, returning the
// counter index, the covered range [lo, hi], the leaf depth, and the parent
// linkage needed by a split (parent == -1 when the leaf is the root).
func (t *refTree) locate(row int) (ci int32, lo, hi, depth int, parent int32, rightSide bool) {
	lo, hi = 0, t.cfg.Rows-1
	parent = -1
	if t.nInodes == 0 {
		return 0, lo, hi, 0, parent, false
	}
	var ref int32 // current intermediate node
	for d := 0; ; d++ {
		n := &t.inodes[ref]
		mid := lo + (hi-lo)/2
		if row <= mid {
			hi = mid
			if n.leftNode {
				parent = ref
				ref = n.left
				continue
			}
			return n.left, lo, hi, d + 1, ref, false
		}
		lo = mid + 1
		if n.rightNode {
			parent = ref
			ref = n.right
			continue
		}
		return n.right, lo, hi, d + 1, ref, true
	}
}

// sramCost is the paper's SRAM-access count for a lookup ending at the
// given leaf depth.
func (t *refTree) sramCost(leafDepth int) int {
	c := leafDepth - (t.lambda - 1) + 2
	if c < 2 {
		c = 2
	}
	return c
}

// Access records one activation of row (Algorithm 1), returning the row
// range to refresh when a counter reaches the threshold.
func (t *refTree) Access(row int) (refLo, refHi int, refresh bool) {
	if row < 0 || row >= t.cfg.Rows {
		panic(fmt.Sprintf("core: row %d out of range [0,%d)", row, t.cfg.Rows))
	}
	t.stats.Accesses++
	ci, lo, hi, depth, parent, rightSide := t.locate(row)
	t.stats.SRAMAccesses += int64(t.sramCost(depth))
	if depth > t.stats.MaxDepth {
		t.stats.MaxDepth = depth
	}

	c := &t.counters[ci]
	if c.value < t.ladder[c.thIdx] {
		c.value++
	}
	for c.value >= t.ladder[c.thIdx] {
		if int(c.thIdx) < t.cfg.MaxLevels-1 {
			// Split, then re-walk: with equal consecutive ladder rungs
			// the new leaf may split again immediately.
			t.split(ci, lo, hi, depth, parent, rightSide)
			ci, lo, hi, depth, parent, rightSide = t.locate(row)
			c = &t.counters[ci]
			continue
		}
		c.value = 0
		t.stats.RefreshEvents++
		refLo, refHi = lo-1, hi+1
		if refLo < 0 {
			refLo = 0
		}
		if refHi > t.cfg.Rows-1 {
			refHi = t.cfg.Rows - 1
		}
		t.stats.RowsRefreshed += int64(refHi - refLo + 1)
		if t.cfg.Policy == DRCAT {
			t.noteRefresh(ci)
		}
		return refLo, refHi, true
	}
	return 0, 0, false
}

// split activates a new counter as a clone of counter ci (RCM, Algorithm 1
// lines 15-22), linking a fresh intermediate-node row into the parent.
func (t *refTree) split(ci int32, lo, hi, depth int, parent int32, rightSide bool) {
	if t.nCtrs >= t.cfg.Counters || lo == hi {
		t.counters[ci].thIdx = uint8(t.cfg.MaxLevels - 1)
		return
	}
	nc := int32(t.nCtrs)
	t.nCtrs++
	ni := int32(t.nInodes)
	t.nInodes++

	t.stats.Splits++
	old := &t.counters[ci]
	newDepth := depth + 1
	th := old.thIdx + 1
	t.counters[nc] = counterState{value: old.value, depth: uint8(newDepth), thIdx: th}
	old.depth = uint8(newDepth)
	old.thIdx = th

	// The old counter keeps the lower half [lo, mid]; the new counter takes
	// [mid+1, hi] (Algorithm 1 lines 17-20).
	t.inodes[ni] = inode{left: ci, right: nc, leftNode: false, rightNode: false}
	if parent >= 0 {
		p := &t.inodes[parent]
		if rightSide {
			p.right, p.rightNode = ni, true
		} else {
			p.left, p.leftNode = ni, true
		}
	}
	if t.cfg.Policy == DRCAT {
		t.weights[nc] = t.weights[ci]
	}
	if t.nCtrs == t.cfg.Counters {
		t.markFull()
	}
}

// OnIntervalBoundary rebuilds the tree (PRCAT) or clears counter values
// (DRCAT).
func (t *refTree) OnIntervalBoundary() {
	if t.cfg.Policy == PRCAT {
		t.rebuild()
		t.stats.Rebuilds++
		return
	}
	for i := 0; i < t.nCtrs; i++ {
		t.counters[i].value = 0
	}
}

// noteRefresh ages every other weight register, bumps the hot one and,
// when it saturates, attempts one merge+split reconfiguration.
func (t *refTree) noteRefresh(hot int32) {
	w := t.weights
	for i := 0; i < t.nCtrs; i++ {
		if int32(i) == hot {
			continue
		}
		if w[i] > 0 {
			w[i]--
		}
	}
	if w[hot] < t.weightCap {
		w[hot]++
	}
	if w[hot] < t.weightCap {
		return
	}
	if t.reconfigure(hot) {
		t.stats.Reconfigs++
	}
}

// reconfigure merges the first cold sibling pair in I's row order and
// splits the hot counter, reusing the released counter and
// intermediate-node row.
func (t *refTree) reconfigure(hot int32) bool {
	if t.nInodes < 2 {
		return false
	}
	hotC := &t.counters[hot]
	if int(hotC.depth) >= t.cfg.MaxLevels-1 {
		return false
	}

	// Step 1: find an intermediate node whose children are two cold leaves.
	merge := int32(-1)
	for i := 0; i < t.nInodes; i++ {
		n := &t.inodes[i]
		if n.leftNode || n.rightNode {
			continue
		}
		if t.weights[n.left] == 0 && t.weights[n.right] == 0 &&
			n.left != hot && n.right != hot {
			merge = int32(i)
			break
		}
	}
	if merge <= 0 {
		return false // no candidate, or the candidate is the root
	}

	mergeParent, mergeRight, ok := t.findParent(merge, true)
	if !ok {
		return false
	}
	hotParent, hotRight, hok := t.findParent(hot, false)
	if !hok {
		return false
	}
	if hotParent == merge {
		return false
	}

	// Merge: promote the right child, release the left, keep the maximum.
	m := t.inodes[merge]
	promoted, released := m.right, m.left
	if t.counters[released].value > t.counters[promoted].value {
		t.counters[promoted].value = t.counters[released].value
	}
	t.counters[promoted].depth--
	p := &t.inodes[mergeParent]
	if mergeRight {
		p.right, p.rightNode = promoted, false
	} else {
		p.left, p.leftNode = promoted, false
	}

	// Step 2: reuse the released row and counter to split the hot counter.
	t.counters[released] = counterState{
		value: hotC.value,
		depth: hotC.depth + 1,
		thIdx: hotC.thIdx,
	}
	hotC.depth++
	t.inodes[merge] = inode{left: hot, right: released, leftNode: false, rightNode: false}
	hp := &t.inodes[hotParent]
	if hotRight {
		hp.right, hp.rightNode = merge, true
	} else {
		hp.left, hp.leftNode = merge, true
	}

	// Step 3: start the new pair with weight 1.
	t.weights[hot] = 1
	t.weights[released] = 1
	return true
}

// findParent scans I for the row pointing at target. isNode selects
// whether target is an intermediate node or a leaf counter.
func (t *refTree) findParent(target int32, isNode bool) (parent int32, right bool, ok bool) {
	for i := 0; i < t.nInodes; i++ {
		n := &t.inodes[i]
		if n.left == target && n.leftNode == isNode {
			return int32(i), false, true
		}
		if n.right == target && n.rightNode == isNode {
			return int32(i), true, true
		}
	}
	return -1, false, false
}

// Leaves returns the active counters in row order, recovering each range
// by walking the pointers. Leaf.Counter is the counter-array index.
func (t *refTree) Leaves() []Leaf {
	if t.nInodes == 0 {
		return []Leaf{{Counter: 0, Lo: 0, Hi: t.cfg.Rows - 1, Depth: 0,
			Value: t.counters[0].value, Weight: t.weights[0]}}
	}
	var out []Leaf
	var rec func(ref int32, isNode bool, lo, hi, depth int)
	rec = func(ref int32, isNode bool, lo, hi, depth int) {
		if !isNode {
			out = append(out, Leaf{Counter: int(ref), Lo: lo, Hi: hi, Depth: depth,
				Value: t.counters[ref].value, Weight: t.weights[ref]})
			return
		}
		n := &t.inodes[ref]
		mid := lo + (hi-lo)/2
		rec(n.left, n.leftNode, lo, mid, depth+1)
		rec(n.right, n.rightNode, mid+1, hi, depth+1)
	}
	rec(0, true, 0, t.cfg.Rows-1, 0)
	return out
}

// DumpTable renders the SRAM arrays in the layout of the paper's Fig. 5:
// the intermediate-node array I (L-ptr, R-ptr, leaf flags — shown with the
// paper's polarity, where flag 1 marks an intermediate successor), the
// counter array C, and the weight array W.
func (t *refTree) DumpTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I (%d rows)          L-ptr  R-ptr  L-node  R-node\n", t.nInodes)
	for i := 0; i < t.nInodes; i++ {
		n := &t.inodes[i]
		fmt.Fprintf(&b, "  I%-3d               %-6s %-6s %d       %d\n",
			i, refName(n.left, n.leftNode), refName(n.right, n.rightNode),
			boolBit(n.leftNode), boolBit(n.rightNode))
	}
	fmt.Fprintf(&b, "C (%d active of %d)   value  depth  T-index  weight\n", t.nCtrs, t.cfg.Counters)
	for i := 0; i < t.nCtrs; i++ {
		c := &t.counters[i]
		fmt.Fprintf(&b, "  C%-3d               %-6d %-6d %-8d %d\n",
			i, c.value, c.depth, c.thIdx, t.weights[i])
	}
	return b.String()
}

func refName(idx int32, isNode bool) string {
	if isNode {
		return fmt.Sprintf("I%d", idx)
	}
	return fmt.Sprintf("C%d", idx)
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}
