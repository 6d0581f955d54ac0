package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"catsim/internal/dram"
	"catsim/internal/trace"
)

// TestCaptureReplayMatchesLiveRun drives all three modes through run():
// a live run, a capture of the same configuration, and a replay of that
// capture must print byte-identical JSON Results — the contract the CI
// replay-check target enforces.
func TestCaptureReplayMatchesLiveRun(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "t.v1")
	wl := []string{"-workload", "ol-bursty", "-requests", "3000",
		"-attacker", "0.25", "-threshold", "1600", "-seed", "7"}

	exec := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, wl...), args...), &out, &errb); code != 0 {
			t.Fatalf("run %v: exit %d\n%s", args, code, errb.String())
		}
		return out.String()
	}

	live := exec("-json")
	exec("-capture", "-o", tr)
	replayed := exec("-trace", tr, "-json")
	if live != replayed {
		t.Errorf("replayed Result differs from the live run:\n--- live ---\n%s--- replay ---\n%s",
			live, replayed)
	}
	if !strings.Contains(live, `"Tenants"`) {
		t.Error("Result JSON carries no per-tenant attribution")
	}

	// The human summary of the replay names the attacker tenant.
	sum := exec("-trace", tr)
	if !strings.Contains(sum, "attacker") {
		t.Errorf("summary lacks the attacker line:\n%s", sum)
	}

	// A different scheme replays the same file without error.
	other := exec("-trace", tr, "-scheme", "sca:counters=128", "-json")
	if other == replayed {
		t.Error("sca replay produced the drcat Result — scheme flag ignored")
	}
}

// TestGeometryFlagCaptureReplay: -geometry steers live and capture runs;
// the capture embeds that geometry, so its replay — which ignores the
// flag and adopts the capture's — reproduces the run byte for byte.
func TestGeometryFlagCaptureReplay(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "geo.v1")
	wl := []string{"-workload", "black", "-requests", "2000", "-cores", "4",
		"-geometry", "4ch:rows=8Ki"}

	exec := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, wl...), args...), &out, &errb); code != 0 {
			t.Fatalf("run %v: exit %d\n%s", args, code, errb.String())
		}
		return out.String()
	}

	live := exec("-json")
	exec("-capture", "-o", tr)
	if replayed := exec("-trace", tr, "-json"); live != replayed {
		t.Error("replay of a -geometry capture differs from the live run")
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-geometry", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown geometry preset: exit %d, want 2 (%s)", code, errb.String())
	}
}

// TestClosedLoopCaptureReplay exercises the per-core closed-loop path.
func TestClosedLoopCaptureReplay(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "closed.v1")
	wl := []string{"-workload", "black", "-requests", "2000", "-cores", "2"}

	exec := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, wl...), args...), &out, &errb); code != 0 {
			t.Fatalf("run %v: exit %d\n%s", args, code, errb.String())
		}
		return out.String()
	}

	live := exec("-json")
	exec("-capture", "-o", tr)
	if replayed := exec("-trace", tr, "-json"); live != replayed {
		t.Error("closed-loop replay differs from the live run")
	}
}

// TestSingleCoreCaptureHoldsGeneratorStream: a one-core closed-loop
// capture holds the workload generator's own stream for the run seed, so
// it is the v1 container of that generator's first requests, and -o
// writes the bytes a capture to stdout does.
func TestSingleCoreCaptureHoldsGeneratorStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "black.v1")
	args := []string{"-capture", "-workload", "black", "-cores", "1", "-requests", "500", "-seed", "9"}
	var out, errb bytes.Buffer
	if code := run(append(args, "-o", path), &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := trace.ReadContainer(bytes.NewReader(disk))
	if err != nil {
		t.Fatal(err)
	}
	geom := dram.Default2Channel()
	if len(c.Streams) != 1 || c.Streams[0].Open || len(c.Streams[0].Reqs) != 500 || c.Geometry != geom {
		t.Fatalf("container: %d streams, geometry %+v", len(c.Streams), c.Geometry)
	}
	if c.Streams[0].Name != "core0:black" {
		t.Errorf("stream name %q, want core0:black", c.Streams[0].Name)
	}
	wl, err := trace.Lookup("black")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewSynthetic(wl, geom.TotalBytes(), geom.LineBytes, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range c.Streams[0].Reqs {
		if want := gen.Next(); got != want {
			t.Fatalf("request %d: %+v, want %+v", i, got, want)
		}
	}

	out.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("capture to stdout: exit %d\n%s", code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), disk) {
		t.Error("stdout container differs from the -o file")
	}
}

// TestPRAProbabilityFromUnscaledThreshold: like a catsim-server job, a
// pra run without p uses the paper's p for the unscaled threshold (0.002
// at T=32K, 0.001 at 64K), not the p its scaled threshold would select.
func TestPRAProbabilityFromUnscaledThreshold(t *testing.T) {
	for scheme, want := range map[string]string{"pra": "PRA_0.002", "pra:threshold=65536": "PRA_0.001"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-workload", "black", "-requests", "1000", "-scheme", scheme}, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\n%s", scheme, code, errb.String())
		}
		if line := strings.SplitN(out.String(), "\n", 2)[0]; !strings.HasSuffix(line, " "+want) {
			t.Errorf("%s: summary scheme line %q, want %s", scheme, line, want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
	for _, want := range []string{"ol-poisson", "black"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("error %q does not list %q", errb.String(), want)
		}
	}
	errb.Reset()
	if code := run([]string{"-capture", "-trace", "x"}, &out, &errb); code != 2 {
		t.Errorf("-capture with -trace: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-workload", "black", "-attacker", "0.1"}, &out, &errb); code != 1 {
		t.Errorf("closed workload with -attacker: exit %d, want 1", code)
	}
}
