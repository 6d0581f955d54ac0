package dram

// Bank tracks the availability of one DRAM bank for the event-driven
// controller model. Under the closed-page policy every demand access is an
// ACTIVATE/column/PRECHARGE sequence, so a bank is described completely by
// the cycle at which it next becomes free, plus bookkeeping for activation
// counting (the input to the crosstalk-mitigation schemes).
type Bank struct {
	// FreeAt is the bus cycle at which the bank can accept a new ACTIVATE.
	FreeAt int64

	// RefreshDebt is outstanding victim-refresh work in bus cycles. The
	// controller drains it in idle time and interleaves it with demand one
	// row at a time, so a demand request never waits behind a whole
	// refresh burst — only behind the row refresh in progress (the convoy
	// avoidance real TRR implementations use).
	RefreshDebt int64

	// Activations counts row ACTIVATEs since construction (statistics).
	Activations int64

	// VictimRefreshRows counts rows refreshed on demand by a mitigation
	// scheme since construction (statistics).
	VictimRefreshRows int64
}

// BlockFor occupies the bank for n cycles starting no earlier than now,
// without recording an activation. Auto-refresh uses it; victim refreshes
// instead add to RefreshDebt, which the controller interleaves with
// demand. The mitigation scheme decides whether refresh ACTIVATEs feed
// back into the counters — the paper's schemes do not count refresh
// operations.
func (b *Bank) BlockFor(now int64, n int64) (busyUntil int64) {
	start := now
	if b.FreeAt > start {
		start = b.FreeAt
	}
	b.FreeAt = start + n
	return b.FreeAt
}
