package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeFlags: a -threshold above 2^32-1 or a -scale
// outside (0, 1] exits 1 with an error naming the flag, before anything
// is simulated or reported.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scheme", "PRA", "-threshold", "4294967301"}, "-threshold"},
		{[]string{"-threshold", "4294967296"}, "-threshold"},
		{[]string{"-scale", "3"}, "-scale"},
		{[]string{"-scale", "-0.5"}, "-scale"},
		{[]string{"-scale", "0"}, "-scale"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.flag) {
			t.Errorf("%v: error %q does not name %s", tc.args, errb.String(), tc.flag)
		}
		if strings.Contains(out.String(), "scheme") {
			t.Errorf("%v: printed a report:\n%s", tc.args, out.String())
		}
	}
}

// TestSmallRun: a small valid run exits 0 and prints the CMRPO line.
func TestSmallRun(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "black", "-scheme", "SCA", "-scale", "0.001"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "CMRPO") {
		t.Errorf("no CMRPO line:\n%s", out.String())
	}
}
