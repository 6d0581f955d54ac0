package main

import (
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRejectsNonPositiveRequestCount(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		code, _, stderr := runCmd(t, "-n", n, "-workload", "black")
		if code != 2 {
			t.Errorf("-n %s: exit code %d, want 2", n, code)
		}
		if !strings.Contains(stderr, "must be positive") {
			t.Errorf("-n %s: stderr lacks the validation message: %q", n, stderr)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-workload") {
			t.Errorf("-n %s: stderr lacks a usage hint: %q", n, stderr)
		}
	}
}

func TestRejectsUnknownWorkloadWithHint(t *testing.T) {
	code, _, stderr := runCmd(t, "-workload", "nope", "-n", "10")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown workload "nope"`) {
		t.Errorf("stderr lacks the lookup error: %q", stderr)
	}
	// The hint must list the real workload names.
	if !strings.Contains(stderr, "black") || !strings.Contains(stderr, "libq") {
		t.Errorf("stderr lacks the known-workload hint: %q", stderr)
	}
}

func TestRejectsUnknownFlag(t *testing.T) {
	code, _, _ := runCmd(t, "-bogus")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCmd(t, "-h")
	if code != 0 {
		t.Errorf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Errorf("-h printed no usage: %q", stderr)
	}
}

func TestDumpEmitsRequestedCount(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-workload", "black", "-n", "7", "-dump")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 7 {
		t.Errorf("dumped %d lines, want 7", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "R ") && !strings.HasPrefix(l, "W ") {
			t.Errorf("malformed dump line %q", l)
		}
	}
}

func TestHistogramSummaryRuns(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-workload", "comm1", "-n", "20000")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "workload comm1: 20000 requests") {
		t.Errorf("missing header: %q", stdout)
	}
	if !strings.Contains(stdout, "top16-share") {
		t.Errorf("missing histogram table: %q", stdout)
	}
}
