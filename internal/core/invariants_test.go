package core

import (
	"strings"
	"testing"

	"catsim/internal/rng"
)

// TestCheckInvariantsCatchesCorruption corrupts a grown DRCAT tree one
// field at a time and expects CheckInvariants to report each violation.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, tr *Tree)
		want    string
	}{
		{"value above T", func(t *testing.T, tr *Tree) {
			tr.value[tr.Leaves()[0].Counter] = tr.cfg.RefreshThreshold + 1
		}, "exceeds T"},
		{"threshold index out of range", func(t *testing.T, tr *Tree) {
			tr.thIdx[tr.Leaves()[0].Counter] = uint8(tr.cfg.MaxLevels)
		}, "out of ladder"},
		{"orphan slot", func(t *testing.T, tr *Tree) {
			// Give the first leaf that could still split a child.
			for _, l := range tr.Leaves() {
				if l.Depth < tr.cfg.MaxLevels-1 {
					tr.state[2*l.Counter+1] = slotLeaf
					return
				}
			}
			t.Fatal("no leaf above the depth cap")
		}, "orphan"},
		{"missing child", func(t *testing.T, tr *Tree) {
			tr.state[2] = slotAbsent // the root's right child
		}, "missing a child"},
		{"scan bound too low", func(t *testing.T, tr *Tree) {
			tr.maxUsed = 1
		}, "beyond the scan bound"},
		{"order entry dropped", func(t *testing.T, tr *Tree) {
			tr.order = tr.order[:len(tr.order)-1]
		}, "order lists"},
		{"nCtrs off by one", func(t *testing.T, tr *Tree) {
			tr.nCtrs++
		}, "active counters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Rows: 1 << 12, Counters: 16, MaxLevels: 10, RefreshThreshold: 64, Policy: DRCAT}
			tree := mustTree(t, cfg)
			src := rng.NewXoshiro256(5)
			// A hot spot that moves every 4096 accesses over uniform
			// background traffic, so DRCAT merges and splits.
			for i := 0; i < 1<<15; i++ {
				row := (i >> 12) * 997 % cfg.Rows
				if i%4 == 3 {
					row = rng.Intn(src, cfg.Rows)
				}
				tree.Access(row)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			if tree.Stats().Reconfigs == 0 {
				t.Fatal("traffic produced no reconfigurations")
			}
			tc.corrupt(t, tree)
			err := tree.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckInvariants() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
