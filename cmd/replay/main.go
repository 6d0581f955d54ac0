// Command replay drives the versioned trace pipeline end to end: it
// captures the exact request sequence a simulation would consume into a v1
// trace file, and replays such a file under any mitigation scheme with a
// byte-identical Result.
//
// Three modes share one set of workload/scheme flags:
//
//	replay -workload ol-poisson -scheme drcat:counters=64,levels=11 -json
//	    live run: build the workload, simulate, print the Result
//
//	replay -capture -workload ol-poisson -o trace.v1
//	    capture: record the request sequence (no memory simulation)
//
//	replay -trace trace.v1 -scheme drcat:counters=64,levels=11 -json
//	    replay: simulate the captured sequence under the given scheme
//
// Live and capture runs build their config as a catsim-server job with
// the same parameters (server.JobRequest.Config): the same defaults,
// bounds and derivation, so `make server-check` can diff the two. A live
// run and a replay of the same capture configuration produce identical
// Results — `make replay-check` diffs their JSON byte for byte.
// Keep the workload flags on the replay invocation: they rebuild the
// tenant cohort for per-tenant attribution (no randomness is drawn).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"catsim/internal/dram"
	"catsim/internal/server"
	"catsim/internal/sim"
	"catsim/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and executes one mode, returning the process exit code
// (2 for usage errors, matching flag's convention).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName    = fs.String("workload", "ol-poisson", "workload name: an open-loop preset (ol-*) or a closed-loop trace workload")
		requests  = fs.Int("requests", 6000, "open-loop request budget (closed-loop: requests per core)")
		cores     = fs.Int("cores", 2, "closed-loop cores (ignored for open-loop workloads)")
		attacker  = fs.Float64("attacker", 0, "embed an attacker tenant issuing this fraction of arrivals (open-loop only)")
		scheme    = fs.String("scheme", "drcat:counters=64,levels=11", "mitigation scheme spec")
		threshold = fs.Uint("threshold", 32768, "refresh threshold T (before scaling)")
		scale     = fs.Float64("scale", 0.01, "run scale (1 = one full 64 ms interval)")
		seed      = fs.Uint64("seed", 1, "random seed (must match the capture's on replay)")
		oracle    = fs.Bool("oracle", false, "attach the crosstalk oracle (per-tenant exposure attribution)")
		asJSON    = fs.Bool("json", false, "print the Result as JSON instead of a summary")
		capture   = fs.Bool("capture", false, "capture the request sequence instead of simulating")
		out       = fs.String("o", "", "capture output file (default stdout)")
		traceFile = fs.String("trace", "", "replay this v1 trace file instead of building generators")
		geo       dram.GeometrySpec
	)
	fs.Var(&geo, "geometry",
		"geometry spec for live/capture runs, e.g. ddr5:channels=8,rows=128Ki (replays adopt the capture's geometry)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "replay:", err)
		return 1
	}
	if *capture && *traceFile != "" {
		fmt.Fprintln(stderr, "replay: -capture and -trace are mutually exclusive")
		fs.Usage()
		return 2
	}

	if *threshold > math.MaxUint32 {
		return fail(fmt.Errorf("threshold %d out of range", *threshold))
	}
	req := server.JobRequest{
		Scheme: *scheme, Workload: *wlName, Cores: *cores, Requests: *requests,
		Attacker: *attacker, Threshold: uint32(*threshold), Scale: *scale, Seed: *seed,
		Oracle: *oracle,
	}
	if geo.Base != "" {
		// Live and capture runs honour the override; the -trace branch
		// below re-zeroes Geometry so replays keep the capture's.
		req.Geometry = geo.String()
	}
	cfg, err := req.Config()
	if err != nil {
		return fail(err)
	}

	if *capture {
		c, err := sim.Capture(cfg)
		if err != nil {
			return fail(err)
		}
		w := bufio.NewWriter(stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = bufio.NewWriter(f)
		}
		if err := trace.WriteContainer(w, c); err != nil {
			return fail(err)
		}
		if err := w.Flush(); err != nil {
			return fail(err)
		}
		var n int
		for _, s := range c.Streams {
			n += len(s.Reqs)
		}
		fmt.Fprintf(stderr, "replay: captured %d streams, %d requests (digest %016x)\n",
			len(c.Streams), n, c.Digest())
		return 0
	}

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		c, rerr := trace.ReadContainer(bufio.NewReader(f))
		f.Close()
		if rerr != nil {
			return fail(rerr)
		}
		// The replay config carries only the trace, the scheme and — for
		// attribution — the open-loop cohort spec; the request streams come
		// from the file.
		cfg.Replay = c
		cfg.Geometry = dram.Geometry{} // adopt the capture's geometry
		cfg.Cores = 0
		cfg.RequestsPerCore = 0
		cfg.Workload = trace.Spec{}
		cfg.WorkloadPerCore = nil
		cfg.Attack = nil
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return fail(err)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	printSummary(stdout, cfg, res)
	return 0
}

func printSummary(w io.Writer, cfg sim.Config, res sim.Result) {
	fmt.Fprintf(w, "scheme      %s\n", res.SchemeLabel)
	fmt.Fprintf(w, "exec        %.3f ms\n", res.ExecNS/1e6)
	fmt.Fprintf(w, "activations %d, victim rows refreshed %d\n",
		res.Counts.Activations, res.Counts.RowsRefreshed)
	fmt.Fprintf(w, "CMRPO       %.2f%%\n", res.CMRPO*100)
	if len(res.Tenants) > 0 {
		var benignActs, benignRows int64
		var hit int
		for _, ts := range res.Tenants {
			if ts.Attacker {
				continue
			}
			benignActs += ts.Acts
			benignRows += ts.RowsRefreshed
			if ts.RowsRefreshed > 0 {
				hit++
			}
		}
		fmt.Fprintf(w, "tenants     %d (%d with refreshed rows); benign acts %d, benign rows refreshed %d\n",
			len(res.Tenants), hit, benignActs, benignRows)
		last := res.Tenants[len(res.Tenants)-1]
		if last.Attacker {
			fmt.Fprintf(w, "attacker    acts %d, rows refreshed in its span %d\n",
				last.Acts, last.RowsRefreshed)
		}
	}
}
