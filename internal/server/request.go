package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"catsim/internal/dram"
	"catsim/internal/mitigation"
	"catsim/internal/sim"
	"catsim/internal/trace"
	"catsim/internal/workload"
)

// JobRequest is the POST /v1/jobs body: a declarative simulation job
// reusing the library's spec grammars verbatim — the scheme spec
// (mitigation.ParseSpec), the geometry spec (dram.ParseGeometry) and the
// workload name registries (closed-loop trace presets and open-loop ol-*
// cohorts). Zero-valued fields take the documented defaults, so two
// requests that differ only in spelled-out defaults normalise to the same
// canonical job. Validation failures surface as HTTP 400 with the same
// valid-set listings the CLIs print on exit 2.
type JobRequest struct {
	// Scheme is the mitigation scheme spec, e.g.
	// "drcat:counters=64,levels=11" or "comet:threshold=32768,counters=512".
	// A threshold inside the spec overrides the Threshold field.
	Scheme string `json:"scheme"`
	// Geometry is the DRAM geometry spec, e.g. "ddr5:channels=8"
	// ("" = the paper's 2ch baseline).
	Geometry string `json:"geometry,omitempty"`
	// Workload names a closed-loop trace workload ("black", "comm1", ...)
	// or an open-loop cohort preset ("ol-poisson", "ol-bursty", ...).
	Workload string `json:"workload"`
	// Cores is the closed-loop core count (default 2; ignored for
	// open-loop workloads).
	Cores int `json:"cores,omitempty"`
	// Requests is the per-core request budget (open-loop: the total
	// arrival budget). Default 6000. A closed-loop job's total,
	// Cores × Requests, is capped at 10,000,000.
	Requests int `json:"requests,omitempty"`
	// Attacker embeds an attacker tenant issuing this fraction of
	// arrivals (open-loop workloads only).
	Attacker float64 `json:"attacker,omitempty"`
	// Threshold is the refresh threshold T before scaling (default 32768;
	// a threshold in the scheme spec wins).
	Threshold uint32 `json:"threshold,omitempty"`
	// Scale shortens the run: thresholds and the auto-refresh interval
	// are scaled by it (default 0.01; 1 = one full 64 ms interval).
	Scale float64 `json:"scale,omitempty"`
	// Seed seeds the workload and scheme PRNG streams (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// EpochNS slices the run into fixed epochs of this many nanoseconds;
	// each completed epoch streams out as one sample. 0 disables
	// sampling (the stream then carries only the final result). Epochs
	// shorter than the scaled auto-refresh interval / 4096 are rejected.
	EpochNS float64 `json:"epoch_ns,omitempty"`
	// Epochs is a convenience alternative to EpochNS: the scaled
	// auto-refresh interval divided into this many epochs. Mutually
	// exclusive with EpochNS.
	Epochs int `json:"epochs,omitempty"`
	// Oracle attaches the crosstalk oracle (protection accounting).
	Oracle bool `json:"oracle,omitempty"`
	// Affine pins core i's stream to channel i mod channels
	// (sim.Config.ChannelAffine); required for sharded runs.
	Affine bool `json:"affine,omitempty"`
	// Shards requests the channel-partitioned engine (0 = sequential).
	Shards int `json:"shards,omitempty"`
}

// maxRequests bounds a single job's total request budget (closed-loop:
// cores × per-core requests) so one POST cannot park a worker for hours;
// sweeps that large belong in cmd/experiments.
const maxRequests = 10_000_000

// maxEpochs bounds sampling: an epoch shorter than the scaled auto-refresh
// interval over maxEpochs is rejected, so one job cannot record (and hold,
// snapshot and stream) an unbounded number of samples.
const maxEpochs = 4096

// maxTrackedRows bounds a job's geometry by its total row count (banks ×
// rows per bank), which the controller, the scheme and the oracle size
// their tables by, so one POST cannot make a worker allocate without
// bound. It admits every registered preset (the largest, ddr5, has 2^25).
const maxTrackedRows = 1 << 26

// decodeJobRequest decodes a POST /v1/jobs body: exactly one JSON object,
// with no unknown fields and nothing but whitespace after it.
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobRequest{}, errors.New("unexpected data after the job object")
	}
	return req, nil
}

// normalize applies the documented defaults in place, so equal jobs
// spelled differently produce identical configs (and cache keys), and so
// snapshots persist the resolved request.
func (r *JobRequest) normalize() {
	if r.Cores == 0 {
		r.Cores = 2
	}
	if r.Requests == 0 {
		r.Requests = 6000
	}
	if r.Threshold == 0 {
		r.Threshold = 32768
	}
	if r.Scale == 0 {
		r.Scale = 0.01
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// Config validates the request and builds the sim.Config it describes.
// The derivation matches cmd/replay's: thresholds and the auto-refresh
// interval scale together, so a server job and a direct CLI run of the
// same parameters produce byte-identical Results.
func (r *JobRequest) Config() (sim.Config, error) {
	r.normalize()
	switch {
	case r.Workload == "":
		return sim.Config{}, fmt.Errorf("missing workload (closed-loop: %s; open-loop: %s)",
			joinNames(trace.WorkloadNames()), joinNames(workload.Names()))
	case r.Scheme == "":
		return sim.Config{}, fmt.Errorf("missing scheme spec (e.g. %q; valid kinds via an invalid kind error)",
			"drcat:counters=64,levels=11")
	case r.Scale <= 0 || r.Scale > 1:
		return sim.Config{}, fmt.Errorf("scale %g out of (0, 1]", r.Scale)
	case r.Requests < 1 || r.Requests > maxRequests:
		return sim.Config{}, fmt.Errorf("requests %d out of [1, %d]", r.Requests, maxRequests)
	case r.EpochNS < 0:
		return sim.Config{}, fmt.Errorf("epoch_ns %g must not be negative", r.EpochNS)
	case r.Epochs < 0:
		return sim.Config{}, fmt.Errorf("epochs %d must not be negative", r.Epochs)
	case r.Epochs > 0 && r.EpochNS > 0:
		return sim.Config{}, fmt.Errorf("epochs and epoch_ns are mutually exclusive")
	}

	ms, err := mitigation.ParseSpec(r.Scheme)
	if err != nil {
		return sim.Config{}, err
	}
	spec, err := sim.FromSpec(ms)
	if err != nil {
		return sim.Config{}, err
	}
	threshold := r.Threshold
	if ms.Threshold != 0 {
		threshold = ms.Threshold
	}
	cfg := sim.Config{
		Geometry:        dram.Default2Channel(),
		Scheme:          spec,
		Threshold:       uint32(float64(threshold) * r.Scale),
		ThresholdScale:  r.Scale,
		IntervalNS:      dram.RefreshIntervalNS() * r.Scale,
		Seed:            r.Seed,
		CheckProtection: r.Oracle,
		ChannelAffine:   r.Affine,
		Shards:          r.Shards,
		EpochNS:         r.EpochNS,
	}
	if cfg.Threshold < 1 {
		return sim.Config{}, fmt.Errorf("threshold %d at scale %g rounds to zero", threshold, r.Scale)
	}
	if r.Epochs > 0 {
		cfg.EpochNS = cfg.IntervalNS / float64(r.Epochs)
	}
	if minNS := cfg.IntervalNS / maxEpochs; cfg.EpochNS > 0 && cfg.EpochNS < minNS {
		return sim.Config{}, fmt.Errorf("epochs of %g ns are shorter than the %g ns minimum (interval / %d)",
			cfg.EpochNS, minNS, maxEpochs)
	}
	if r.Geometry != "" {
		gs, err := dram.ParseGeometry(r.Geometry)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Geometry = gs.Geometry()
		if rows := cfg.Geometry.TotalBanks() * cfg.Geometry.RowsPerBank; rows > maxTrackedRows {
			return sim.Config{}, fmt.Errorf("geometry %q tracks %d rows, above the %d-row limit",
				r.Geometry, rows, maxTrackedRows)
		}
	}

	if ol, err := workload.Lookup(r.Workload); err == nil {
		ol.Requests = r.Requests
		if r.Attacker > 0 {
			ol.Cohort.Attacker = &workload.AttackerSpec{
				Fraction: r.Attacker, Mode: trace.Heavy, Pattern: trace.PatternDoubleSided,
			}
		}
		cfg.OpenLoop = &ol
	} else {
		wl, err := trace.Lookup(r.Workload)
		if err != nil {
			return sim.Config{}, fmt.Errorf("unknown workload %q (closed-loop: %s; open-loop: %s)",
				r.Workload, joinNames(trace.WorkloadNames()), joinNames(workload.Names()))
		}
		if r.Attacker > 0 {
			return sim.Config{}, fmt.Errorf("attacker needs an open-loop workload, got closed-loop %q", r.Workload)
		}
		if r.Cores > maxRequests/r.Requests {
			return sim.Config{}, fmt.Errorf("%d cores × %d requests exceeds the %d-request job budget",
				r.Cores, r.Requests, maxRequests)
		}
		cfg.Cores = r.Cores
		cfg.RequestsPerCore = r.Requests
		cfg.Workload = wl
	}
	// Surface config-level errors (bad core/shard combinations, geometry
	// validation) at submission time as 400s, not as failed jobs.
	return cfg, sim.Validate(cfg)
}

func joinNames(names []string) string { return strings.Join(names, " ") }
