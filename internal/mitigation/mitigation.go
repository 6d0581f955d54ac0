// Package mitigation defines the common interface for wordline-crosstalk
// mitigation schemes and implements the baselines the paper compares
// against:
//
//   - SCA   (Static Counter Assignment, §III-B): M uniform group counters
//     per bank; when a group counter reaches T the whole group plus its two
//     adjacent rows are refreshed.
//   - PRA   (Probabilistic Row Activation, §II): on every activation the
//     memory controller refreshes the two adjacent victim rows with
//     probability p, using a hardware PRNG.
//   - Counter cache (Kim, Nair & Qureshi, CAL 2015): one exact counter per
//     row stored in reserved DRAM with an on-chip set-associative cache.
//   - CAT adapters wrapping internal/core's PRCAT and DRCAT trees.
//   - None: no mitigation (the ETO baseline).
//
// Beyond the paper's 2018 contemporaries, the package implements the
// modern tracker lineage on the internal/sketch substrate:
//
//   - CoMeT (Bostancı et al., HPCA 2024): per-bank count-min-sketch row
//     tracking with an exact recent-aggressor table.
//   - ABACuS (Olgun et al., USENIX Security 2024): one Misra-Gries summary
//     of activation counters shared across all banks, refreshing the
//     victims of a hot row ID in every bank at once.
//   - Stochastic (DSAC-style, Hong et al. 2023): per-bank stochastic
//     approximate counters — cheap, but probabilistic rather than
//     guaranteed, which sim's missed-victim metric quantifies.
//
// Schemes are driven per bank by the system simulator and report the counts
// the energy model (internal/energy) converts into CMRPO.
package mitigation

import "fmt"

// RefreshRange is an inclusive range of rows a scheme asks the memory
// controller to refresh within one bank.
type RefreshRange struct {
	Lo, Hi int
}

// Rows returns the number of rows in the range.
func (r RefreshRange) Rows() int { return r.Hi - r.Lo + 1 }

// Kind identifies a scheme family for the energy model.
type Kind int

// Scheme families.
const (
	KindNone Kind = iota
	KindSCA
	KindPRA
	KindPRCAT
	KindDRCAT
	KindCounterCache
	KindCoMeT
	KindABACuS
	KindStochastic

	kindEnd // sentinel: every valid Kind is below this
)

// families is the one table of scheme families, indexed by Kind; each
// entry is the builder the family's file declares. Every kind below
// kindEnd has one, and the mitigation and energy tests iterate Kinds(),
// so a kind without a name, a builder or an energy model fails loudly
// instead of silently falling through.
var families = [kindEnd]Builder{
	KindNone:         noneBuilder,
	KindSCA:          scaBuilder,
	KindPRA:          praBuilder,
	KindPRCAT:        prcatBuilder,
	KindDRCAT:        drcatBuilder,
	KindCounterCache: counterCacheBuilder,
	KindCoMeT:        cometBuilder,
	KindABACuS:       abacusBuilder,
	KindStochastic:   stochasticBuilder,
}

// Valid reports whether k is a scheme family.
func (k Kind) Valid() bool { return k >= 0 && k < kindEnd }

// Kinds returns every scheme family in declaration order.
func Kinds() []Kind {
	out := make([]Kind, kindEnd)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the family name; unknown kinds render as "Kind(n)!?",
// which deliberately stands out in labels and tables.
func (k Kind) String() string {
	if k.Valid() {
		return families[k].Name
	}
	return fmt.Sprintf("Kind(%d)!?", int(k))
}

// Counts aggregates the scheme activity the energy model consumes.
type Counts struct {
	Activations   int64 // row activations observed
	RefreshEvents int64 // victim-refresh commands issued
	RowsRefreshed int64 // rows refreshed by those commands
	SRAMAccesses  int64 // on-chip SRAM reads+writes (counter structures)
	PRNGBits      int64 // random bits drawn (PRA)
	ExtraMemAcc   int64 // extra DRAM accesses (counter-cache misses)
}

// Sub returns the field-wise difference c - prev: the activity that
// happened between two Counts() snapshots. The epoch engine uses it to
// turn cumulative counters into per-epoch deltas.
func (c Counts) Sub(prev Counts) Counts {
	return Counts{
		Activations:   c.Activations - prev.Activations,
		RefreshEvents: c.RefreshEvents - prev.RefreshEvents,
		RowsRefreshed: c.RowsRefreshed - prev.RowsRefreshed,
		SRAMAccesses:  c.SRAMAccesses - prev.SRAMAccesses,
		PRNGBits:      c.PRNGBits - prev.PRNGBits,
		ExtraMemAcc:   c.ExtraMemAcc - prev.ExtraMemAcc,
	}
}

// Add returns the field-wise sum c + o: the merged activity of disjoint
// scheme instances (the sharded engine's per-partition fold).
func (c Counts) Add(o Counts) Counts {
	return Counts{
		Activations:   c.Activations + o.Activations,
		RefreshEvents: c.RefreshEvents + o.RefreshEvents,
		RowsRefreshed: c.RowsRefreshed + o.RowsRefreshed,
		SRAMAccesses:  c.SRAMAccesses + o.SRAMAccesses,
		PRNGBits:      c.PRNGBits + o.PRNGBits,
		ExtraMemAcc:   c.ExtraMemAcc + o.ExtraMemAcc,
	}
}

// Snapshot is an instantaneous view of a scheme's tracking state, sampled
// by the epoch engine at epoch boundaries.
type Snapshot struct {
	// Live is the number of occupied tracking entries across all banks:
	// active tree counters (CAT), valid cache tags (counter cache),
	// nonzero group counters (SCA), RAT entries (CoMeT) or summary
	// entries (ABACuS).
	Live int
	// Cap is the total entry capacity across all banks.
	Cap int
	// Depth is the deepest tree level observed so far (CAT only).
	Depth int
	// Reconfigs counts DRCAT merge+split reconfigurations so far.
	Reconfigs int64
}

// Snapshotter is optionally implemented by schemes that can report their
// tracking occupancy. Snapshot must be a pure read: sampling at an epoch
// boundary must not perturb the simulation (the engine's epoch-length
// invariance test holds every implementation to this).
type Snapshotter interface {
	Snapshot() Snapshot
}

// Scheme is one crosstalk-mitigation mechanism covering every bank of a
// system. OnActivate may return zero or more ranges to refresh; the returned
// slice is only valid until the next call. Implementations are not safe for
// concurrent use.
type Scheme interface {
	// Name is the label used in the paper's figures, e.g. "DRCAT_64".
	Name() string
	// Kind reports the scheme family for energy modelling.
	Kind() Kind
	// CountersPerBank reports M for counter-based schemes, 0 otherwise.
	CountersPerBank() int
	// OnActivate records an activation of row in bank and returns the
	// victim ranges the controller must refresh.
	OnActivate(bank, row int) []RefreshRange
	// OnIntervalBoundary signals that an auto-refresh interval elapsed
	// (every row was refreshed by the regular mechanism).
	OnIntervalBoundary()
	// Counts returns accumulated activity.
	Counts() Counts
	// ResetRun rewinds every counter, table and private PRNG stream to
	// the state the kind's builder produces for the same spec with the
	// given seed; families without a private stream ignore the seed.
	// Constructors that set up more than zeroed storage end in it, so
	// each starting-state rule is written once; a run context
	// (sim.Context) calls it to reuse a scheme across repeated runs.
	ResetRun(seed uint64)
}

// BankRefresh pairs a refresh range with the bank it applies to, for
// schemes whose decisions span banks.
type BankRefresh struct {
	Bank  int
	Range RefreshRange
}

// CrossBank is implemented by schemes (ABACuS) whose shared counters
// trigger refreshes in banks other than the one being activated.
// PendingCrossBank returns the refreshes for those other banks accumulated
// by the last OnActivate; the activating bank's ranges are still returned
// by OnActivate itself. The returned slice is only valid until the next
// OnActivate, which clears it — consume it once per activation.
//
// CrossBank couples state across every bank, which makes the scheme
// incompatible with the channel-partitioned engine: implementing this
// interface commits the scheme to the sequential reference engine (its
// cross-shard refreshes are the serialized commit point), and its builder
// must therefore never declare ShardSafe. The engine rejects CrossBank
// schemes in sharded runs, and the mitigation shard-safety test locks the
// family table against the contradiction.
type CrossBank interface {
	PendingCrossBank() []BankRefresh
}

// None is the no-mitigation baseline used to measure ETO.
type None struct {
	counts Counts
}

// NewNone returns the do-nothing scheme.
func NewNone() *None { return &None{} }

// Name implements Scheme.
func (n *None) Name() string { return "None" }

// Kind implements Scheme.
func (n *None) Kind() Kind { return KindNone }

// CountersPerBank implements Scheme.
func (n *None) CountersPerBank() int { return 0 }

// OnActivate implements Scheme.
func (n *None) OnActivate(bank, row int) []RefreshRange {
	n.counts.Activations++
	return nil
}

// OnIntervalBoundary implements Scheme.
func (n *None) OnIntervalBoundary() {}

// Counts implements Scheme.
func (n *None) Counts() Counts { return n.counts }

// ResetRun implements Scheme (the baseline's only state is counts).
func (n *None) ResetRun(uint64) { n.counts = Counts{} }

// appendVictims appends single-row refresh ranges for the two rows
// adjacent to row (clamped to the bank's rows) and accounts one refresh
// event plus the refreshed rows — the exact-victim refresh shape shared by
// PRA, the counter cache and the per-row trackers (CoMeT, ABACuS, DSAC).
func appendVictims(scratch []RefreshRange, row, rows int, counts *Counts) []RefreshRange {
	counts.RefreshEvents++
	if row > 0 {
		scratch = append(scratch, RefreshRange{Lo: row - 1, Hi: row - 1})
		counts.RowsRefreshed++
	}
	if row < rows-1 {
		scratch = append(scratch, RefreshRange{Lo: row + 1, Hi: row + 1})
		counts.RowsRefreshed++
	}
	return scratch
}

func clampRange(lo, hi, rows int) RefreshRange {
	if lo < 0 {
		lo = 0
	}
	if hi > rows-1 {
		hi = rows - 1
	}
	return RefreshRange{Lo: lo, Hi: hi}
}

var noneBuilder = Builder{
	Name:      "None",
	ShardSafe: true, // stateless
	Label:     func(SchemeSpec) string { return "None" },
	Build:     func(SchemeSpec, int, int) (Scheme, error) { return NewNone(), nil },
}
