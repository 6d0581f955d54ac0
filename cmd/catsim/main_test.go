package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: a -threshold above 2^32-1, a -scale outside
// (0, 1], a threshold that scales to zero, a counter-based scheme without
// its counters, or a config the simulator rejects exits 1 with one error
// line naming the problem, before anything is simulated or reported.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scheme", "PRA", "-threshold", "4294967301"}, "-threshold"},
		{[]string{"-threshold", "4294967296"}, "-threshold"},
		{[]string{"-scale", "3"}, "-scale"},
		{[]string{"-scale", "-0.5"}, "-scale"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-workload", "black", "-threshold", "10", "-scale", "0.01"}, "-threshold 10 at -scale 0.01 rounds to zero"},
		{[]string{"-workload", "black", "-cores", "0"}, "at least one core"},
		{[]string{"-workload", "black", "-shards", "2"}, "-affine"},
		{[]string{"-scheme", "drcat"}, "drcat needs counters"},
		{[]string{"-scheme", "comet:depth=4"}, "comet needs counters"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: error %q does not name %s", tc.args, errb.String(), tc.want)
		}
		if n := strings.Count(errb.String(), "\n"); n != 1 {
			t.Errorf("%v: %d lines on stderr, want 1:\n%s", tc.args, n, errb.String())
		}
		if strings.Contains(out.String(), "scheme") {
			t.Errorf("%v: printed a report:\n%s", tc.args, out.String())
		}
	}
}

// TestPRASpecMatchesFlag: a PRA spec without p simulates the p its label
// prints, the one picked for the unscaled threshold, whether the threshold
// comes from the spec or from -threshold.
func TestPRASpecMatchesFlag(t *testing.T) {
	report := func(args ...string) string {
		var out, errb bytes.Buffer
		args = append([]string{"-workload", "black", "-scale", "0.005"}, args...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d:\n%s", args, code, errb.String())
		}
		return out.String()
	}
	spec, flag := report("-scheme", "pra:threshold=32768"), report("-scheme", "pra", "-threshold", "32768")
	if spec != flag {
		t.Errorf("spec and flag thresholds differ:\n%s\nvs\n%s", spec, flag)
	}
	// The scale prints as given, not rounded to two decimals.
	if !strings.Contains(spec, "(scale 0.005)") {
		t.Errorf("report does not print (scale 0.005):\n%s", spec)
	}
}

// TestSmallRun: a small valid run exits 0 and prints the CMRPO line.
func TestSmallRun(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "black", "-scheme", "sca:counters=64", "-scale", "0.001"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "CMRPO") {
		t.Errorf("no CMRPO line:\n%s", out.String())
	}
}

// TestSchemeTakesOnlySpecs: -scheme takes the spec grammar alone, so an
// unknown kind is a usage error, as is each flag of the old name grammar
// (-counters, -levels, -p) and -quad, whose runs specs and -geometry
// spell.
func TestSchemeTakesOnlySpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "bogus"},
		{"-scheme", "sca:bogus=1"},
		{"-counters", "8"},
		{"-levels", "9"},
		{"-p", "0.004"},
		{"-quad"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", args, out.String())
		}
	}
}
