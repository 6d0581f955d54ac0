// Package catsim is a from-scratch Go reproduction of "Mitigating Wordline
// Crosstalk using Adaptive Trees of Counters" (Seyedzadeh, Jones, Melhem —
// ISCA 2018): the Counter-based Adaptive Tree (CAT) rowhammer/crosstalk
// mitigation with its PRCAT and DRCAT deployment schemes, the SCA, PRA and
// counter-cache baselines, and the full simulation substrate (DDR3 memory
// system, synthetic MSC-like workloads, energy and reliability models)
// needed to regenerate every table and figure of the paper's evaluation.
//
// Beyond the paper, the repository carries the modern tracker generation
// on the internal/sketch approximate-counting substrate — CoMeT
// (count-min-sketch row tracking), ABACuS (all-bank shared counters) and
// DSAC-style stochastic counting — plus a protection harness: adversarial
// attack patterns (double-sided, many-sided, bank-sweep) and an
// oracle-checked missed-victim rate, swept across schemes and thresholds
// by the figx experiment.
//
// This package is a thin facade over the internal packages for downstream
// users; see README.md for the architecture and cmd/experiments for the
// reproduction harness.
//
// Every scheme is described by a declarative, serializable spec — a kind,
// a refresh threshold and named parameters — and built through one
// registry:
//
//	spec, _ := catsim.ParseScheme("comet:threshold=32768,counters=512,depth=4")
//	scheme, _ := catsim.Build(spec, catsim.Default2Channel())
//
// The adaptive tree itself — the same implicit-heap tree each PRCAT/DRCAT
// scheme runs per bank — is also directly constructible:
//
//	tree, _ := catsim.NewTree(catsim.TreeConfig{
//	    Rows: 65536, Counters: 64, MaxLevels: 11,
//	    RefreshThreshold: 32768, Policy: catsim.DRCAT,
//	})
//	lo, hi, refresh := tree.Access(row) // refresh => refresh rows lo..hi
package catsim

import (
	"io"

	"catsim/internal/core"
	"catsim/internal/dram"
	"catsim/internal/experiments"
	"catsim/internal/mitigation"
	"catsim/internal/runner"
	"catsim/internal/server"
	"catsim/internal/sim"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// Tree is one Counter-based Adaptive Tree instance (one per DRAM bank).
type Tree = core.Tree

// TreeConfig parameterises a CAT (N rows, M counters, L levels, T, policy).
type TreeConfig = core.Config

// Tree policies (what happens at auto-refresh interval boundaries).
const (
	// PRCAT rebuilds the tree every interval (paper §V-A).
	PRCAT = core.PRCAT
	// DRCAT keeps the learned shape and reconfigures dynamically (§V-B).
	DRCAT = core.DRCAT
)

// NewTree builds a CAT in its initial pre-split shape.
func NewTree(cfg TreeConfig) (*Tree, error) { return core.NewTree(cfg) }

// NewLadder returns the default split-threshold ladder for M counters, L
// levels and refresh threshold T (the paper's published values for the
// canonical M=64, L=10 configuration, resampled elsewhere).
func NewLadder(m, l int, t uint32) []uint32 { return core.NewLadder(m, l, t) }

// Scheme is a crosstalk-mitigation mechanism covering all banks.
type Scheme = mitigation.Scheme

// SchemeSpec is a declarative, serializable scheme description: a kind
// ("comet"), a refresh threshold and named parameters. It round-trips
// through a compact string form (ParseScheme / String) and JSON, and
// implements flag.Value for CLI -scheme flags.
type SchemeSpec = mitigation.SchemeSpec

// SchemeParams holds a spec's named parameters as exact decimal strings.
type SchemeParams = mitigation.Params

// ParseScheme parses the compact spec form "kind:key=value,...", e.g.
// "comet:threshold=32768,counters=512,depth=4,seed=7". Kinds and the
// figure-label aliases ("cc", "dsac") match case-insensitively; parameter
// names are validated against the kind's registered builder.
func ParseScheme(s string) (SchemeSpec, error) { return mitigation.ParseSpec(s) }

// Build constructs the scheme a spec describes for a DRAM geometry via
// the mitigation builder registry. Every kind except "none" requires the
// spec to carry a refresh threshold.
func Build(spec SchemeSpec, geom Geometry) (Scheme, error) {
	return mitigation.Build(spec, geom.TotalBanks(), geom.RowsPerBank)
}

// NewCAT builds a PRCAT/DRCAT scheme with one tree per bank from a full
// TreeConfig. A custom split-threshold ladder has no spec form, so this is
// the one scheme constructor beside Build; every spec-expressible CAT
// builds as Build("prcat:..."/"drcat:...").
func NewCAT(banks int, cfg TreeConfig) (Scheme, error) {
	return mitigation.NewCAT(banks, cfg)
}

// Geometry describes a DRAM system; Default2Channel is the paper's
// dual-core baseline (16 GB, 16 banks, 64K rows/bank).
type Geometry = dram.Geometry

// Default2Channel returns the paper's Table I geometry.
func Default2Channel() Geometry { return dram.Default2Channel() }

// GeometrySpec is a declarative, serializable geometry description: a
// named preset plus field overrides. It round-trips through a compact
// string form (ParseGeometry / String) and JSON, and implements
// flag.Value for CLI -geometry flags.
type GeometrySpec = dram.GeometrySpec

// GeometryPreset is one named entry of the geometry preset table.
type GeometryPreset = dram.GeometryPreset

// ParseGeometry parses the compact geometry form "preset" or
// "preset:key=value,...", e.g. "ddr5:channels=8,ranks=2,banks=32,rows=128Ki".
// Preset names match case-insensitively; sizes accept Ki/Mi suffixes.
func ParseGeometry(s string) (GeometrySpec, error) { return dram.ParseGeometry(s) }

// Geometries lists the geometry presets in presentation order.
func Geometries() []GeometryPreset { return dram.Geometries() }

// SimConfig configures a full-system simulation run.
type SimConfig = sim.Config

// SimResult is the outcome of one run (CMRPO breakdown, timing, counts).
type SimResult = sim.Result

// Run executes one full-system simulation.
func Run(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// RunPair runs a scheme against its no-mitigation baseline and reports the
// execution-time overhead.
func RunPair(cfg SimConfig) (sim.PairResult, error) { return sim.RunPair(cfg) }

// Workloads returns the paper's 18 named synthetic workload models.
func Workloads() []trace.Spec { return trace.Workloads() }

// WorkloadConfig is one open-loop workload: an arrival process (Poisson,
// bursty on/off, diurnal phases) fanned out over one or more sources, all
// drawing from a shared multi-tenant cohort. Attach one via
// SimConfig.OpenLoop; per-tenant attribution lands in SimResult.Tenants.
type WorkloadConfig = workload.Config

// TenantStat is one tenant's attribution from an open-loop run: its
// owned-row activations, the victim-refresh rows that landed in its span,
// and (on protection runs) its share of oracle exposure.
type TenantStat = workload.TenantStat

// ArrivalSpec describes an open-loop arrival process (Poisson, bursty
// on/off, or a diurnal phase schedule).
type ArrivalSpec = workload.ArrivalSpec

// ParseArrival parses the compact arrival grammar, e.g.
// "poisson:rate=2.8e8" or "bursty:rate=2.8e8,on=0.25,burst=50000".
func ParseArrival(s string) (ArrivalSpec, error) { return workload.ParseArrival(s) }

// AttackerSpec embeds one attacker tenant in a cohort: a fraction of all
// arrivals runs a kernel-attack generator instead of benign traffic.
type AttackerSpec = workload.AttackerSpec

// Attack patterns for AttackerSpec (and the protection harness).
const (
	// PatternGaussian runs the paper's Gaussian kernel attacks (the zero value).
	PatternGaussian = trace.PatternGaussian
	// PatternDoubleSided hammers aggressor pairs around each victim.
	PatternDoubleSided = trace.PatternDoubleSided
)

// OpenWorkloads returns the named open-loop presets (the ol-* names).
func OpenWorkloads() []WorkloadConfig { return workload.Presets() }

// LookupOpenWorkload finds an open-loop preset by name.
func LookupOpenWorkload(name string) (WorkloadConfig, error) { return workload.Lookup(name) }

// TraceContainer is a captured set of request streams in the versioned
// (v1, checksummed) trace file format: closed-loop per-core streams timed
// by inter-request gaps and open-loop streams timed by absolute arrivals.
type TraceContainer = trace.Container

// Capture records the exact request sequence Run(cfg) would consume —
// without simulating the memory system — into a container that replays
// byte-identically: Run with SimConfig.Replay set to the container (and
// the same seed/threshold/scheme) returns the same SimResult as the live
// run, under any scheme spec.
func Capture(cfg SimConfig) (*TraceContainer, error) { return sim.Capture(cfg) }

// WriteTrace writes a container in the v1 format, checksum included.
func WriteTrace(w io.Writer, c *TraceContainer) error { return trace.WriteContainer(w, c) }

// ReadTrace parses a v1 trace file, verifying version and checksum.
func ReadTrace(r io.Reader) (*TraceContainer, error) { return trace.ReadContainer(r) }

// Server is the long-running simulation service: a bounded job queue over
// the deterministic simulator with per-epoch NDJSON/SSE streaming, a
// cross-request cache keyed by canonical CacheKey, and snapshot/resume
// durability. See cmd/catsim-server for the CLI front end.
type Server = server.Server

// ServerOptions configures a Server (workers, queue depth, snapshot path
// and cadence).
type ServerOptions = server.Options

// JobRequest is the POST /v1/jobs body: a declarative simulation job
// reusing the scheme/geometry/workload spec grammars.
type JobRequest = server.JobRequest

// NewServer builds a simulation service, restoring state from
// ServerOptions.SnapshotPath if the snapshot exists.
func NewServer(o ServerOptions) (*Server, error) { return server.New(o) }

// ExperimentOptions configures the figure/table generators.
type ExperimentOptions = experiments.Options

// Report is the structured result of one experiment table: a column
// schema, rows of typed cells and per-report metadata. Renderers turn
// streams of Reports into text tables, JSON or CSV.
type Report = experiments.Report

// ExperimentInfo describes one registered experiment generator.
type ExperimentInfo struct {
	Name        string
	Description string
}

// Experiments lists every registered table/figure generator in canonical
// order. ReproduceAll, RunExperiment and the cmd/experiments CLI all
// iterate this same registry.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.Experiments() {
		out = append(out, ExperimentInfo{Name: e.Name, Description: e.Description})
	}
	return out
}

// RunExperiment regenerates one registered experiment (see Experiments)
// as text to w.
func RunExperiment(w io.Writer, name string, o ExperimentOptions) error {
	if o.Cache == nil && !o.NoCache {
		o.Cache = runner.NewCache()
	}
	if o.Progress == nil {
		o.Progress = w
	}
	return experiments.RunExperiment(name, o, experiments.NewTextRenderer(w))
}

// ReproduceAll regenerates every registered table and figure to w by
// iterating the experiment registry (see cmd/experiments for per-figure
// control and JSON/CSV output). Simulation cells run concurrently
// (o.Parallel caps the worker pool) and one result cache is shared across
// all figures, so e.g. Fig. 9 reuses Fig. 8's paired runs and every
// no-mitigation baseline is computed exactly once.
func ReproduceAll(w io.Writer, o ExperimentOptions) error {
	if o.Cache == nil && !o.NoCache {
		o.Cache = runner.NewCache()
	}
	if o.Progress == nil {
		o.Progress = w
	}
	return experiments.RunAll(o, experiments.NewTextRenderer(w))
}
