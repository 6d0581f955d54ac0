// Command tracegen inspects the synthetic workload models: it prints
// per-bank row-access histograms (the measurement behind the paper's
// Fig. 3) or, with -dump, the raw request stream as text.
//
// Usage:
//
//	tracegen -workload black -n 2000000          # bank histogram summary
//	tracegen -workload black -n 20 -dump         # raw requests (text)
//
// A generated stream as a v1 trace container is what
// `replay -capture -cores 1` writes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"catsim/internal/addrmap"
	"catsim/internal/dram"
	"catsim/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and executes the command, writing results to stdout and
// diagnostics to stderr; it returns the process exit code (2 for usage
// errors, matching flag's convention).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "black", "workload name")
		n        = fs.Int("n", 1_000_000, "requests to generate (positive)")
		seed     = fs.Uint64("seed", 1, "random seed")
		dump     = fs.Bool("dump", false, "dump raw requests instead of the per-bank histogram summary")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error, hint string) int {
		fmt.Fprintf(stderr, "tracegen: %v\n%s\n", err, hint)
		fs.Usage()
		return 2
	}
	if *n <= 0 {
		return usage(fmt.Errorf("request count -n=%d must be positive", *n),
			"hint: pass -n with a positive request count, e.g. -n 20")
	}
	wl, err := trace.Lookup(*workload)
	if err != nil {
		return usage(err,
			"hint: known workloads are "+strings.Join(trace.WorkloadNames(), " "))
	}
	geom := dram.Default2Channel()
	gen, err := trace.NewSynthetic(wl, geom.TotalBytes(), geom.LineBytes, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	policy, err := addrmap.NewRowInterleaved(geom)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	if *dump {
		for i := 0; i < *n; i++ {
			r := gen.Next()
			c := policy.Decode(r.Addr)
			op := "R"
			if r.Write {
				op = "W"
			}
			fmt.Fprintf(stdout, "%s 0x%012x gap=%-4d ch=%d rk=%d bk=%d row=%-6d col=%d\n",
				op, r.Addr, r.Gap, c.Bank.Channel, c.Bank.Rank, c.Bank.Bank, c.Row, c.Col)
		}
		return 0
	}
	h := trace.RowHistogram(gen, geom, policy, *n)
	fmt.Fprintf(stdout, "workload %s: %d requests over %d banks\n", wl.Name, *n, geom.TotalBanks())
	fmt.Fprintln(stdout, "bank  accesses  rows  max/row  top16-share")
	for b, rows := range h {
		s := trace.Summarise(rows)
		if s.Total == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%4d  %8d  %4d  %7d  %10.1f%%\n",
			b, s.Total, s.TouchedRows, s.MaxPerRow, s.Top16Frac*100)
	}
	return 0
}
