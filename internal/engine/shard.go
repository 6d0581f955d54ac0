package engine

import (
	"fmt"
	"sync"

	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
)

// This file is the shard orchestrator: RunSharded executes one logical
// simulation as N channel-partitions, each a complete engine Config (its
// own controller, scheme instance, oracle and the slots confined to its
// channel range) driven by the same event loop as the sequential engine,
// with the partitions spread over a bounded number of goroutines.
//
// The determinism contract, in two parts:
//
//  1. State partitions exactly. Every simulated structure a partition
//     touches — bank state, per-channel bus, per-rank refresh schedule,
//     per-bank scheme counters, oracle rows — is owned by that partition
//     alone (Config.Channels makes a violation a loud error), so no
//     execution interleaving can alter any partition's dynamics.
//  2. The merge is a pure fold in channel order. Per-epoch Samples align
//     at fixed clock boundaries (k·EpochCPU): activity deltas add, the
//     read-latency average is recomputed from exact integer sums, and
//     occupancy snapshots carry each partition's last sample forward; the
//     final write-queue flush happens at the global end time on every
//     partition, exactly where the sequential engine flushes.
//
// Partitions run unsynchronised until the merge, so RunSharded(parts, w)
// returns the same Result for every w and any GOMAXPROCS, and equals Run
// on the merged configuration whenever no auto-refresh interval boundary
// fires mid-run (each partition advances its interval clock from its own
// traffic — the per-channel-controller view of a multi-channel system;
// the sequential engine resets all banks at once).
// Cross-bank schemes (mitigation.CrossBank) and shared-PRNG schemes
// cannot partition and are rejected — sim serializes them instead.

// shardOut is one partition's loop output, pre-merge.
type shardOut struct {
	endCPU     int64
	perBank    []int64
	smp        *sampler
	boundaries int // samples flushed at exact epoch boundaries (rest is the trailing tail)
	pristine   mitigation.Snapshot
	flushDelta memctrl.Stats
	err        error
}

// RunSharded runs each partition's event loop and merges the results in
// channel order (see the determinism contract above). Every partition must
// carry its own Ctrl and Scheme, a Channels range confined to disjoint
// ascending channel intervals, and identical timing/geometry parameters.
// workers bounds the goroutine count: partitions are assigned to workers
// in contiguous channel-order blocks, and workers <= 0 means one goroutine
// per partition.
func RunSharded(parts []Config, workers int) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("engine: sharded run needs at least one partition")
	}
	base := &parts[0]
	ctrls := map[*memctrl.Controller]int{}
	schemes := map[mitigation.Scheme]int{}
	nextCh := 0
	for p := range parts {
		cfg := &parts[p]
		if err := cfg.validate(); err != nil {
			return Result{}, fmt.Errorf("partition %d: %w", p, err)
		}
		if cfg.Geometry != base.Geometry || cfg.CPUPerBus != base.CPUPerBus ||
			cfg.IntervalCPU != base.IntervalCPU || cfg.EpochCPU != base.EpochCPU ||
			cfg.CPUCycleNS != base.CPUCycleNS || cfg.BusCycleNS != base.BusCycleNS {
			return Result{}, fmt.Errorf("engine: partition %d differs from partition 0 in geometry or timing", p)
		}
		if cfg.Channels == nil {
			return Result{}, fmt.Errorf("engine: partition %d has no channel range", p)
		}
		if cfg.Channels.Lo < nextCh {
			return Result{}, fmt.Errorf("engine: partition %d channels [%d,%d) overlap or break channel order",
				p, cfg.Channels.Lo, cfg.Channels.Hi)
		}
		nextCh = cfg.Channels.Hi
		if cfg.Attr != nil {
			return Result{}, fmt.Errorf("engine: partition %d: per-tenant attribution requires the sequential engine", p)
		}
		if _, cross := cfg.Scheme.(mitigation.CrossBank); cross {
			return Result{}, fmt.Errorf("engine: partition %d: cross-bank scheme %v cannot be sharded", p, cfg.Scheme.Kind())
		}
		if prev, dup := ctrls[cfg.Ctrl]; dup {
			return Result{}, fmt.Errorf("engine: partitions %d and %d share a controller", prev, p)
		}
		ctrls[cfg.Ctrl] = p
		if prev, dup := schemes[cfg.Scheme]; dup {
			return Result{}, fmt.Errorf("engine: partitions %d and %d share a scheme instance", prev, p)
		}
		schemes[cfg.Scheme] = p
	}
	if workers <= 0 || workers > len(parts) {
		workers = len(parts)
	}

	outs := make([]shardOut, len(parts))
	for p := range parts {
		// Each full-size scheme instance reports the channels it never
		// touches at their as-built state; the merge subtracts the
		// duplicates (see mergeSamples).
		if snap, ok := parts[p].Scheme.(mitigation.Snapshotter); ok {
			outs[p].pristine = snap.Snapshot()
		}
	}
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < workers; w++ {
		n := len(parts) / workers
		if w < len(parts)%workers {
			n++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for p := lo; p < hi; p++ {
				pristine := outs[p].pristine
				outs[p] = runPartition(&parts[p])
				outs[p].pristine = pristine
			}
		}(start, start+n)
		start += n
	}
	wg.Wait()

	for p := range outs {
		if outs[p].err != nil {
			return Result{}, outs[p].err
		}
	}

	globalEnd := int64(0)
	for p := range outs {
		if outs[p].endCPU > globalEnd {
			globalEnd = outs[p].endCPU
		}
	}
	// Flush every partition's write queue at the global end — the moment
	// the sequential engine would flush the single merged queue — and
	// capture the drain-time stats for the trailing epoch sample.
	for p := range parts {
		before := parts[p].Ctrl.Stats()
		parts[p].Ctrl.FlushWrites(globalEnd / int64(base.CPUPerBus))
		outs[p].flushDelta = parts[p].Ctrl.Stats().Sub(before)
	}

	res := Result{EndCPU: globalEnd, PerBankActs: make([]int64, base.Geometry.TotalBanks())}
	for p := range outs {
		for b, v := range outs[p].perBank {
			res.PerBankActs[b] += v
		}
	}
	if base.EpochCPU > 0 {
		res.Samples = mergeSamples(base, outs, globalEnd)
	}
	return res, nil
}

// runPartition drives one partition's loop to drain and closes its
// trailing epoch (pre-flush: the orchestrator folds drain-time write
// traffic into the merged tail afterwards).
func runPartition(cfg *Config) shardOut {
	var out shardOut
	scr := cfg.Scratch
	if scr == nil {
		scr = &Scratch{}
	}
	out.endCPU, out.smp, out.err = runLoop(cfg, scr)
	if out.err != nil {
		return out
	}
	out.perBank = scr.perBank
	if out.smp != nil {
		out.boundaries = len(out.smp.samples)
		out.smp.finish(out.endCPU, scr)
	}
	return out
}

// mergeSamples folds the partitions' epoch series into the sequence the
// sequential engine would have produced: boundary epochs align at fixed
// clocks, each partition's tail (its activity past its last boundary)
// lands in the epoch containing it, activity deltas add, the read-latency
// average is recomputed from summed integer cycles, and occupancy
// snapshots carry forward. Snapshot sums subtract the (P-1) duplicate
// reports of untouched channels' as-built state, so CountersLive and
// Reconfigs match the single-instance view exactly.
func mergeSamples(base *Config, outs []shardOut, globalEnd int64) []Sample {
	boundaries := 0
	for p := range outs {
		if outs[p].boundaries > boundaries {
			boundaries = outs[p].boundaries
		}
	}
	total := boundaries
	trailing := globalEnd > int64(boundaries)*base.EpochCPU || boundaries == 0
	if trailing {
		total++
	}
	samples := make([]Sample, total)
	for e := range samples {
		s := &samples[e]
		s.Epoch = e
		if e < boundaries {
			s.EndNS = float64(int64(e+1)*base.EpochCPU) * base.CPUCycleNS
		} else {
			s.EndNS = float64(globalEnd) * base.CPUCycleNS
		}
		live, depth := 0, 0
		var reconfigs int64
		for p := range outs {
			o := &outs[p]
			n := len(o.smp.samples)
			if e < n {
				ps := &o.smp.samples[e]
				s.Activations += ps.Activations
				s.RefreshEvents += ps.RefreshEvents
				s.RowsRefreshed += ps.RowsRefreshed
				s.Reads += ps.Reads
				s.Writes += ps.Writes
				s.VictimBusyCycles += ps.VictimBusyCycles
				s.latencySum += ps.latencySum
			}
			last := e
			if last >= n {
				last = n - 1
			}
			ps := &o.smp.samples[last]
			live += ps.CountersLive
			if p == 0 {
				s.CountersCap = ps.CountersCap
			}
			if ps.TreeDepth > depth {
				depth = ps.TreeDepth
			}
			reconfigs += ps.Reconfigs
			s.MissedVictimRows += ps.MissedVictimRows
			s.ExposedVictimRows += ps.ExposedVictimRows
			if p > 0 {
				live -= o.pristine.Live
				reconfigs -= o.pristine.Reconfigs
			}
		}
		s.CountersLive = live
		s.TreeDepth = depth
		s.Reconfigs = reconfigs
	}
	if trailing {
		tail := &samples[total-1]
		for p := range outs {
			fd := &outs[p].flushDelta
			tail.Reads += fd.Reads
			tail.Writes += fd.Writes
			tail.VictimBusyCycles += fd.VictimRefreshBusy
			tail.latencySum += fd.ReadLatencySum
		}
	}
	for e := range samples {
		if s := &samples[e]; s.Reads > 0 {
			s.AvgReadLatencyNS = float64(s.latencySum) / float64(s.Reads) * base.BusCycleNS
		}
	}
	return samples
}
