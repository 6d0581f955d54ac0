// Package engine is the epoch-driven simulation core behind sim.Run: it
// advances a set of cores through their request streams in causal order
// via a loser-tree (tournament) scheduler (log2(cores) packed-key compares
// per pick, with batch draining amortizing one pick over a run of requests),
// drives the memory controller and the crosstalk-mitigation scheme, and —
// when an epoch length is configured — slices the run into fixed-duration
// epochs, snapshotting per-epoch metrics (activations, victim refreshes,
// read latency, tracking-structure occupancy via mitigation.Snapshotter,
// oracle-measured missed victims) without perturbing the simulation.
//
// Closed-loop cores and open-loop arrival slots share one request body:
// only the issue clock, the read/write completion and the next scheduler
// key depend on the slot kind. The scheduler picks the slot with the
// smallest (clock, index) key, epoch sampling is a pure read of scheme and
// controller statistics, and the steady-state request path performs no
// allocations (locked by the engine's alloc-gate tests and benchmarked by
// `make bench-engine`). sim.Context drives RunInPlace and RunSharded;
// experiments consume the per-epoch Samples through sim.Result.Epochs.
package engine

import (
	"fmt"

	"catsim/internal/addrmap"
	"catsim/internal/cpu"
	"catsim/internal/dram"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/trace"
)

// CoreSlot couples one core's front end with its request stream and
// budget.
type CoreSlot struct {
	CPU *cpu.Core
	Gen trace.Generator
	// Requests is the number of requests the core issues before retiring.
	Requests int
}

// OpenSource is an open-loop request stream: each request carries its own
// absolute arrival time in CPU cycles instead of deriving timing from a
// core's retire loop. Arrival times must be non-decreasing (the engine
// clamps a regression to keep the schedule causal, but sources should not
// rely on that).
type OpenSource interface {
	// Next returns the next request and its arrival time in CPU cycles.
	Next() (trace.Request, int64)
	Name() string
}

// OpenSlot couples one open-loop source with its request budget. Open
// slots schedule alongside cores in the same (clock, index) order — open
// slot j occupies scheduler index len(Cores)+j — so epochs, interval
// boundaries and bank contention interleave causally with closed-loop
// traffic. Open requests hit the controller at their arrival time: there
// is no issue window and no retire backpressure, which is the point of an
// open-loop model.
type OpenSlot struct {
	Gen OpenSource
	// Requests is the number of arrivals the slot issues before retiring.
	Requests int
}

// Attributor observes every activation and victim refresh in tracked row
// space — the hook per-tenant workload attribution rides. Both methods
// run on the request hot path and must not allocate.
type Attributor interface {
	// OnActivate sees each activation's flat bank and tracked row.
	OnActivate(bank, row int)
	// OnRefresh sees each victim-refresh range (inclusive rows).
	OnRefresh(bank, lo, hi int)
}

// Config wires pre-built components into one engine run. The engine owns
// the event loop only: callers construct (and afterwards interrogate) the
// controller, scheme and oracle themselves.
type Config struct {
	Cores []CoreSlot
	// Open attaches open-loop arrival streams next to the closed-loop
	// cores (either side may be empty, not both).
	Open []OpenSlot
	// Attr, when non-nil, observes every activation and victim refresh
	// (per-tenant attribution).
	Attr     Attributor
	Ctrl     *memctrl.Controller
	Policy   addrmap.Policy
	Geometry dram.Geometry
	Scheme   mitigation.Scheme
	// Oracle, when non-nil, receives every activation and refresh (the
	// protection harness).
	Oracle *mitigation.Oracle
	// Scrambler maps logical to physical rows; IgnoreScrambler feeds the
	// scheme logical rows (the misconfiguration the tests show unsafe).
	Scrambler       dram.Scrambler
	IgnoreScrambler bool

	CPUPerBus int // CPU cycles per bus cycle
	// IntervalCPU is the auto-refresh interval in CPU cycles (0 = no
	// interval boundaries).
	IntervalCPU int64
	// EpochCPU is the metric-sampling epoch length in CPU cycles (0 = no
	// sampling). Sampling is observation only: any epoch length yields an
	// identical end state.
	EpochCPU int64
	// OnSample, when non-nil, is invoked synchronously with each epoch
	// sample the moment it is flushed — the trailing partial epoch
	// included — so callers can stream epochs out as the run progresses
	// instead of reading Result.Samples post-hoc. The callback sees the
	// exact Sample values appended to Result.Samples, in the same order,
	// and must not block for long: it runs on the simulation goroutine.
	// Pure observation; it cannot perturb the run.
	OnSample func(Sample)
	// CPUCycleNS and BusCycleNS convert cycle counts into the nanosecond
	// timestamps and latencies reported in Samples.
	CPUCycleNS float64
	BusCycleNS float64

	// Batch drains each core's requests in a run while its clock stays
	// below the next-best core's — the exact condition under which the
	// scheduler would pick it again — amortizing one pick/update pair over
	// the whole run. Observationally identical to per-request scheduling;
	// locked by the scheduler equivalence test.
	Batch bool

	// Channels, when non-nil, confines the run to the half-open channel
	// range [Lo, Hi): a decoded request outside it fails the run loudly.
	// RunSharded sets it on every partition so a mis-pinned stream can
	// never silently corrupt another shard's banks.
	Channels *ChannelRange

	// Scratch, when non-nil, supplies the run's working memory so repeated
	// runs reuse their slabs (see Scratch). The Result then aliases the
	// Scratch and is valid only until its next run. Nil keeps the historic
	// behavior: every run allocates fresh.
	Scratch *Scratch

	// newSched, when non-nil, builds the run's scheduler in place of the
	// tournament tree: the hook through which the equivalence tests and
	// benchmarks run the reference schedulers. Always nil in production.
	newSched func(n int) scheduler
}

// ChannelRange is a half-open interval [Lo, Hi) of channel indices.
type ChannelRange struct{ Lo, Hi int }

func (c *Config) validate() error {
	switch {
	case len(c.Cores) == 0 && len(c.Open) == 0:
		return fmt.Errorf("engine: need at least one core or open-loop source")
	case c.Ctrl == nil:
		return fmt.Errorf("engine: need a memory controller")
	case c.Policy == nil:
		return fmt.Errorf("engine: need an address-mapping policy")
	case c.Scheme == nil:
		return fmt.Errorf("engine: need a mitigation scheme")
	case c.CPUPerBus < 1:
		return fmt.Errorf("engine: CPUPerBus must be at least 1")
	case c.IntervalCPU < 0 || c.EpochCPU < 0:
		return fmt.Errorf("engine: negative interval or epoch length")
	}
	// Validate the geometry at run entry: Flat/TotalBanks silently mis-map
	// (or panic) on degenerate dimensions, so fail with a clear error
	// before any simulation state is touched.
	if err := c.Geometry.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if r := c.Channels; r != nil && (r.Lo < 0 || r.Hi <= r.Lo || r.Hi > c.Geometry.Channels) {
		return fmt.Errorf("engine: channel range [%d,%d) out of [0,%d)", r.Lo, r.Hi, c.Geometry.Channels)
	}
	for i, cs := range c.Cores {
		if cs.CPU == nil || cs.Gen == nil {
			return fmt.Errorf("engine: core %d missing CPU or generator", i)
		}
		if cs.Requests < 1 {
			return fmt.Errorf("engine: core %d needs at least one request", i)
		}
	}
	for j, os := range c.Open {
		if os.Gen == nil {
			return fmt.Errorf("engine: open slot %d missing generator", j)
		}
		if os.Requests < 1 {
			return fmt.Errorf("engine: open slot %d needs at least one request", j)
		}
	}
	return nil
}

// Sample is one epoch's worth of time-series metrics. Activity fields are
// deltas over the epoch; oracle exposure and snapshot fields are the state
// at the epoch's end.
type Sample struct {
	// Epoch is the zero-based epoch index; EndNS its end timestamp (the
	// epoch boundary, or the run end for the final partial epoch).
	Epoch int     `json:"epoch"`
	EndNS float64 `json:"end_ns"`

	// Scheme activity during the epoch.
	Activations   int64 `json:"activations"`
	RefreshEvents int64 `json:"refresh_events"`
	RowsRefreshed int64 `json:"rows_refreshed"`

	// Controller activity during the epoch.
	Reads            int64   `json:"reads"`
	Writes           int64   `json:"writes"`
	AvgReadLatencyNS float64 `json:"avg_read_latency_ns"`
	// VictimBusyCycles is bus cycles of bank occupancy injected by victim
	// refreshes during the epoch.
	VictimBusyCycles int64 `json:"victim_busy_cycles"`

	// Tracking-structure occupancy at epoch end (zero unless the scheme
	// implements mitigation.Snapshotter).
	CountersLive int   `json:"counters_live"`
	CountersCap  int   `json:"counters_cap"`
	TreeDepth    int   `json:"tree_depth"`
	Reconfigs    int64 `json:"reconfigs"`

	// Oracle exposure at epoch end, cumulative (protection runs only).
	MissedVictimRows  int64 `json:"missed_victim_rows"`
	ExposedVictimRows int64 `json:"exposed_victim_rows"`

	// latencySum is the integer read-latency sum behind AvgReadLatencyNS
	// (bus cycles). Kept unexported — invisible to JSON — so the sharded
	// merge can recompute the merged epoch's average from exact integer
	// sums instead of a lossy float round-trip.
	latencySum int64
}

// Result is what one engine run measures beyond the state the caller can
// read back from the controller, scheme and oracle.
type Result struct {
	// EndCPU is the CPU cycle at which every core drained.
	EndCPU int64
	// PerBankActs counts activations per flat bank index.
	PerBankActs []int64
	// Samples holds one entry per elapsed epoch (nil when EpochCPU is 0).
	Samples []Sample
}

// sampler accumulates epoch samples: it keeps the previous scheme and
// controller statistics and emits their deltas at each boundary.
type sampler struct {
	cfg        *Config
	snap       mitigation.Snapshotter // nil when unimplemented
	samples    []Sample
	nextCPU    int64
	lastCPU    int64 // last flushed boundary
	prevCounts mitigation.Counts
	prevStats  memctrl.Stats
}

// newSampler arms scr's sampler for this run, reusing the sample backing
// grown by previous runs through the same Scratch.
func newSampler(cfg *Config, scr *Scratch) *sampler {
	if cfg.EpochCPU <= 0 {
		return nil
	}
	s := &scr.smp
	*s = sampler{cfg: cfg, nextCPU: cfg.EpochCPU, samples: scr.samples[:0]}
	s.snap, _ = cfg.Scheme.(mitigation.Snapshotter)
	s.prevCounts = cfg.Scheme.Counts()
	s.prevStats = cfg.Ctrl.Stats()
	return s
}

// flush closes the epoch ending at endCPU. Pure observation: it reads
// scheme/controller/oracle state and never mutates any of them.
func (s *sampler) flush(endCPU int64) {
	counts := s.cfg.Scheme.Counts()
	stats := s.cfg.Ctrl.Stats()
	dc := counts.Sub(s.prevCounts)
	ds := stats.Sub(s.prevStats)
	out := Sample{
		Epoch:            len(s.samples),
		EndNS:            float64(endCPU) * s.cfg.CPUCycleNS,
		Activations:      dc.Activations,
		RefreshEvents:    dc.RefreshEvents,
		RowsRefreshed:    dc.RowsRefreshed,
		Reads:            ds.Reads,
		Writes:           ds.Writes,
		VictimBusyCycles: ds.VictimRefreshBusy,
		latencySum:       ds.ReadLatencySum,
	}
	if ds.Reads > 0 {
		out.AvgReadLatencyNS = float64(ds.ReadLatencySum) / float64(ds.Reads) * s.cfg.BusCycleNS
	}
	if s.snap != nil {
		sn := s.snap.Snapshot()
		out.CountersLive = sn.Live
		out.CountersCap = sn.Cap
		out.TreeDepth = sn.Depth
		out.Reconfigs = sn.Reconfigs
	}
	if s.cfg.Oracle != nil {
		out.MissedVictimRows = s.cfg.Oracle.MissedVictimRows()
		out.ExposedVictimRows = s.cfg.Oracle.ExposedVictimRows()
	}
	s.samples = append(s.samples, out)
	s.lastCPU = endCPU
	s.prevCounts, s.prevStats = counts, stats
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(out)
	}
}

// Run executes the event loop to completion.
func Run(cfg Config) (Result, error) {
	return RunInPlace(&cfg)
}

// RunInPlace is Run minus the config value copy: the caller retains
// ownership of cfg, which the engine only reads. Run contexts hold a
// persistent Config and call this so a repeated run does not re-allocate
// the escaping copy Run's by-value parameter would.
func RunInPlace(cfg *Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	scr := cfg.Scratch
	if scr == nil {
		scr = &Scratch{}
	}
	endCPU, smp, err := runLoop(cfg, scr)
	if err != nil {
		return Result{}, err
	}
	cfg.Ctrl.FlushWrites(endCPU / int64(cfg.CPUPerBus))

	res := Result{EndCPU: endCPU, PerBankActs: scr.perBank}
	if smp != nil {
		// Closed after the write flush, so drain-time write traffic lands
		// in the trailing epoch.
		res.Samples = smp.finish(endCPU, scr)
	}
	return res, nil
}

// finish closes the trailing partial epoch at endCPU — a run ending exactly
// on a boundary emits no empty tail — and keeps the grown sample backing in
// scr for the next run.
func (s *sampler) finish(endCPU int64, scr *Scratch) []Sample {
	if endCPU > s.lastCPU || len(s.samples) == 0 {
		s.flush(endCPU)
	}
	scr.samples = s.samples
	return s.samples
}

// runLoop executes the event loop until every slot drains: it issues all
// requests and drains the cores' outstanding reads, but performs no
// terminal write flush and emits no trailing epoch sample. Finalization
// differs between the sequential path (Run flushes at its own end) and the
// sharded path (RunSharded flushes every partition's write queue at the
// global end, so drain timing matches a single merged run). scr.perBank
// receives the per-bank activation tally.
func runLoop(cfg *Config, scr *Scratch) (int64, *sampler, error) {
	scr.perBank = grow(scr.perBank, cfg.Geometry.TotalBanks())
	perBank := scr.perBank
	nc := len(cfg.Cores)
	no := len(cfg.Open)
	n := nc + no
	sched := scr.scheduler(cfg, n)
	scr.left = grow(scr.left, n)
	left := scr.left
	for i := range cfg.Cores {
		left[i] = cfg.Cores[i].Requests
	}
	// Open-slot pending state: each slot holds its next request and
	// arrival time. Slots start scheduled at clock 0 like cores and are
	// lazily bumped to their true arrival on first pick — the tournament
	// scheduler only permits updating the current winner, so the keys
	// cannot be pre-seeded before the loop.
	scr.pendReq = grow(scr.pendReq, no)
	scr.pendAt = grow(scr.pendAt, no)
	scr.schedAt = grow(scr.schedAt, no)
	pendReq, pendAt, schedAt := scr.pendReq, scr.pendAt, scr.schedAt
	for j := range cfg.Open {
		left[nc+j] = cfg.Open[j].Requests
		pendReq[j], pendAt[j] = cfg.Open[j].Gen.Next()
	}
	var openEnd int64
	crossBank, hasCrossBank := cfg.Scheme.(mitigation.CrossBank)
	smp := newSampler(cfg, scr)
	nextInterval := cfg.IntervalCPU
	chLo, chHi := 0, cfg.Geometry.Channels
	if cfg.Channels != nil {
		chLo, chHi = cfg.Channels.Lo, cfg.Channels.Hi
	}

	remaining := n
	for remaining > 0 {
		// Advance the slot with the smallest local clock (keeps bank and
		// channel contention causally ordered across cores and arrival
		// streams). Selection times are non-decreasing, so they double as
		// the global clock the epoch sampler slices. now is the picked
		// slot's scheduler clock: a core's local time, or an open slot's
		// pending arrival.
		ci := sched.pick()
		var cs *CoreSlot // nil for an open slot
		j := ci - nc     // open-slot index; negative for a core
		var now int64
		if j < 0 {
			cs = &cfg.Cores[ci]
			now = cs.CPU.Now
		} else if now = pendAt[j]; schedAt[j] < now {
			// The open slot is scheduled at a stale (earlier) clock; bump
			// it to the pending arrival and re-pick. Legal: ci is the
			// current winner.
			schedAt[j] = now
			sched.update(ci, now)
			continue
		}
		// In batch mode, keep draining this slot while its key stays
		// strictly below the best other slot's — exactly when pick would
		// select it again — paying one pick/bound/update for the whole run
		// instead of per request. The scheduler is static during the run,
		// so the bound fetched here stays valid until the update below.
		var boundClock int64
		var boundIdx int32
		if cfg.Batch {
			boundClock, boundIdx = sched.bound(ci)
		}
	drain:
		if smp != nil {
			for now >= smp.nextCPU {
				smp.flush(smp.nextCPU)
				smp.nextCPU += cfg.EpochCPU
			}
		}
		// Issue clock: a core issues once its window admits the request;
		// an open request hits the controller at its arrival time.
		var req trace.Request
		var issueCPU int64
		if cs != nil {
			req = cs.Gen.Next()
			cs.CPU.AdvanceGap(req.Gap)
			issueCPU = cs.CPU.PrepareIssue()
		} else {
			req, issueCPU = pendReq[j], now
			openEnd = max(openEnd, issueCPU)
		}

		// Auto-refresh interval boundary (burst semantics, §V).
		for cfg.IntervalCPU > 0 && issueCPU >= nextInterval {
			cfg.Scheme.OnIntervalBoundary()
			if cfg.Oracle != nil {
				cfg.Oracle.RefreshAll()
			}
			nextInterval += cfg.IntervalCPU
		}

		coord := cfg.Policy.Decode(req.Addr)
		if coord.Bank.Channel < chLo || coord.Bank.Channel >= chHi {
			return 0, smp, fmt.Errorf("engine: slot %d request for channel %d outside shard channels [%d,%d)",
				ci, coord.Bank.Channel, chLo, chHi)
		}
		flat := cfg.Geometry.Flat(coord.Bank)
		perBank[flat]++
		issueBus := issueCPU / int64(cfg.CPUPerBus)

		// Crosstalk couples physically adjacent wordlines: track (and
		// refresh) in physical row space unless misconfigured.
		trackRow := coord.Row
		physRow := coord.Row
		if cfg.Scrambler != nil {
			physRow = cfg.Scrambler.ToPhysical(coord.Row)
			if !cfg.IgnoreScrambler {
				trackRow = physRow
			}
		}
		ranges := cfg.Scheme.OnActivate(flat, trackRow)
		if cfg.Oracle != nil {
			cfg.Oracle.Activate(flat, physRow)
		}
		if cfg.Attr != nil {
			cfg.Attr.OnActivate(flat, trackRow)
		}
		// Completion: a core tracks its outstanding reads (writes are
		// posted); an open slot only extends the run's end.
		if req.Write {
			cfg.Ctrl.Write(issueBus, coord)
		} else {
			doneCPU := cfg.Ctrl.Read(issueBus, coord) * int64(cfg.CPUPerBus)
			if cs != nil {
				cs.CPU.NoteRead(doneCPU)
			} else {
				openEnd = max(openEnd, doneCPU)
			}
		}
		// The victim refresh queues behind the triggering activation.
		for _, rr := range ranges {
			cfg.Ctrl.VictimRefresh(issueBus, flat, rr.Rows())
			if cfg.Oracle != nil {
				cfg.Oracle.Refresh(flat, rr)
			}
			if cfg.Attr != nil {
				cfg.Attr.OnRefresh(flat, rr.Lo, rr.Hi)
			}
		}
		if hasCrossBank {
			// Shared-counter schemes (ABACuS) refresh the same victims in
			// the other banks too.
			for _, bf := range crossBank.PendingCrossBank() {
				cfg.Ctrl.VictimRefresh(issueBus, bf.Bank, bf.Range.Rows())
				if cfg.Oracle != nil {
					cfg.Oracle.Refresh(bf.Bank, bf.Range)
				}
				if cfg.Attr != nil {
					cfg.Attr.OnRefresh(bf.Bank, bf.Range.Lo, bf.Range.Hi)
				}
			}
		}
		left[ci]--
		if left[ci] == 0 {
			sched.remove(ci)
			remaining--
			continue
		}
		// Next scheduler key: a core's advanced clock, or the open slot's
		// next arrival.
		if cs != nil {
			now = cs.CPU.Now
		} else {
			pendReq[j], pendAt[j] = cfg.Open[j].Gen.Next()
			// Clamp a non-monotone source so the schedule stays causal.
			now = max(pendAt[j], issueCPU)
			pendAt[j], schedAt[j] = now, now
		}
		if cfg.Batch && (now < boundClock || (now == boundClock && int32(ci) < boundIdx)) {
			goto drain
		}
		sched.update(ci, now)
	}

	endCPU := openEnd
	for i := range cfg.Cores {
		endCPU = max(endCPU, cfg.Cores[i].CPU.Drain())
	}
	return endCPU, smp, nil
}
