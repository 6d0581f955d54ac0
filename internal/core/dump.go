package core

// StorageBits returns the on-chip storage the tree occupies in the SRAM
// layout of the paper's Fig. 5, following its accounting (§IV-C, §V-B):
// each counter is log2(T) bits plus the weight register for DRCAT; each
// intermediate-node row holds two log2(M) pointers and two flags.
func (t *Tree) StorageBits() int {
	m := t.cfg.Counters
	counterBits := bitsFor(t.cfg.RefreshThreshold)
	if t.cfg.Policy == DRCAT {
		wb := t.cfg.WeightBits
		if wb == 0 {
			wb = 2
		}
		counterBits += wb
	}
	ptrBits := 1
	for 1<<ptrBits < m {
		ptrBits++
	}
	nodeRowBits := 2*ptrBits + 2
	return m*counterBits + (m-1)*nodeRowBits
}

func bitsFor(v uint32) int {
	bits := 0
	for 1<<bits < int(v) {
		bits++
	}
	return bits
}
