package core

import (
	"strings"
	"testing"
)

func TestDumpTableShowsFig5Layout(t *testing.T) {
	// Build a small reference tree and check the dump names every
	// allocated row in the paper's Fig. 5 notation.
	cfg := Config{Rows: 1 << 8, Counters: 8, MaxLevels: 6, RefreshThreshold: 64, PreSplit: 1}
	tree, err := newRefTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64*4; i++ {
		tree.Access(3)
	}
	dump := tree.DumpTable()
	for _, want := range []string{"I0", "C0", "L-ptr", "R-ptr", "value", "weight"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestStorageBitsMatchesPaperAccounting(t *testing.T) {
	// Paper §V-B: "PRCAT uses 2 bytes per counter for T=16K" (14 counter
	// bits rounded to 16 with the 2-bit weight register in DRCAT).
	prcat := mustTree(t, Config{Rows: 1 << 16, Counters: 64, MaxLevels: 11,
		RefreshThreshold: 16384, Policy: PRCAT})
	drcat := mustTree(t, Config{Rows: 1 << 16, Counters: 64, MaxLevels: 11,
		RefreshThreshold: 16384, Policy: DRCAT})
	// 64 counters * 14 bits + 63 inode rows * (2*6 ptr bits + 2 flags).
	wantPRCAT := 64*14 + 63*14
	if got := prcat.StorageBits(); got != wantPRCAT {
		t.Errorf("PRCAT storage = %d bits, want %d", got, wantPRCAT)
	}
	// DRCAT adds the 2-bit weight register per counter: 16 bits/counter,
	// the paper's "first 16 bits for the counter and the two last bits".
	if got := drcat.StorageBits() - prcat.StorageBits(); got != 64*2 {
		t.Errorf("DRCAT weight overhead = %d bits, want 128", got)
	}
}
