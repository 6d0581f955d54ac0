package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"catsim/internal/experiments"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownTargetExitsTwoAndPrintsRegistry(t *testing.T) {
	code, _, stderr := runCLI(t, "nosuchfig")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown target "nosuchfig"`) {
		t.Errorf("stderr = %q", stderr)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr missing registered experiment %q", name)
		}
	}
}

// TestListPrintsRegistry holds -list to every experiment and, byte for
// byte, to testdata/list.txt (`make golden` regenerates it), which pins
// the presentation order.
func TestListPrintsRegistry(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, e := range experiments.Experiments() {
		if !strings.Contains(stdout, e.Name) || !strings.Contains(stdout, e.Description) {
			t.Errorf("-list missing %s", e.Name)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "list.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("-list output differs from testdata/list.txt:\n%s", stdout)
	}
}

func TestUnknownWorkloadFailsLoudly(t *testing.T) {
	code, _, stderr := runCLI(t, "-workloads", "black,nope", "fig2")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, `unknown workload "nope"`) || !strings.Contains(stderr, "comm1") {
		t.Errorf("stderr should name the bad workload and list valid ones: %q", stderr)
	}
	if strings.Contains(stderr, "experiments: experiments:") {
		t.Errorf("error prefix doubled: %q", stderr)
	}
}

// TestNegativeCountsExitOne: a negative -intervals or -lfsr-trials, a
// -scale outside (0, 1] or an unknown workload fails the run with one
// error line naming the value, whichever target is named, before the
// first banner. want is the start of that line.
func TestNegativeCountsExitOne(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-intervals", "-3", "fig3"}, "experiments: intervals -3 is negative\n"},
		{[]string{"-lfsr-trials", "-5", "lfsr"}, "experiments: lfsr trials -5 is negative\n"},
		{[]string{"-scale", "5", "table1"}, "experiments: scale 5 out of (0,1]\n"},
		{[]string{"-scale", "0", "fig1"}, "experiments: scale 0 out of (0,1]\n"},
		{[]string{"-intervals", "-3", "table1"}, "experiments: intervals -3 is negative\n"},
		{[]string{"-workloads", "nosuch", "table1"}, `experiments: unknown workload "nosuch" (valid: `},
		{[]string{"-lfsr-trials", "-5", "table1"}, "experiments: lfsr trials -5 is negative\n"},
	} {
		code, stdout, stderr := runCLI(t, append([]string{"-q"}, tc.args...)...)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout, one stderr line starting %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(stderr, "-scheme") {
		t.Errorf("usage should document -scheme: %q", stderr)
	}
}

func TestUnknownFormatExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-format", "yaml", "table1")
	if code != 2 || !strings.Contains(stderr, `unknown format "yaml"`) {
		t.Errorf("exit = %d, stderr = %q", code, stderr)
	}
}

func TestBadSchemeFlagExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-scheme", "sca:bogus=1", "figx")
	if code != 2 {
		t.Errorf("exit = %d, want 2 (stderr %q)", code, stderr)
	}
}

func TestBadGeometryFlagExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-geometry", "nope", "figx")
	if code != 2 {
		t.Errorf("exit = %d, want 2 (stderr %q)", code, stderr)
	}
}

func TestGeometryFlagOverridesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped with -short")
	}
	code, stdout, stderr := runCLI(t,
		"-q", "-scale", "0.02", "-workloads", "black", "-format", "json",
		"-geometry", "2ch:rows=8Ki", "figx")
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr)
	}
	var reports []experiments.Report
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || len(reports[0].Rows) == 0 {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestJSONFormatDecodesAsReports(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-q", "-format", "json", "table1", "table2", "fig1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr)
	}
	var reports []experiments.Report
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatalf("stdout is not []Report JSON: %v", err)
	}
	if len(reports) != 3 || reports[0].Name != "table1" || reports[2].Name != "fig1" {
		t.Errorf("reports = %d %v", len(reports), reports)
	}

	// -validate-json accepts this output and rejects garbage.
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCLI(t, "-validate-json", good); code != 0 || !strings.Contains(out, "3 reports") {
		t.Errorf("validate-json: exit %d out %q", code, out)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-validate-json", bad); code != 1 {
		t.Errorf("validate-json on garbage: exit %d, want 1", code)
	}
}

func TestCSVFormat(t *testing.T) {
	code, stdout, _ := runCLI(t, "-q", "-format", "csv", "table2")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "# table2:") || !strings.Contains(stdout, "M,drcat_dyn_nj") {
		t.Errorf("csv output = %q", stdout)
	}
}

// TestTextQuietIsDeterministicShape also pins the banner's scale, printed
// as given rather than rounded.
func TestTextQuietIsDeterministicShape(t *testing.T) {
	code, stdout, _ := runCLI(t, "-q", "-scale", "0.005", "table1")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(stdout, "==== table1 (scale 0.005) ====\n") || !strings.Contains(stdout, "---- table1 done ----") {
		t.Errorf("quiet banners missing: %q", stdout)
	}
	if strings.Contains(stdout, "done in") || strings.Contains(stdout, "result cache:") {
		t.Errorf("quiet output must omit timings and cache stats: %q", stdout)
	}
}

func TestSchemeFlagSweepsFigx(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped with -short")
	}
	code, stdout, stderr := runCLI(t,
		"-q", "-scale", "0.02", "-workloads", "black", "-format", "json",
		"-scheme", "drcat:counters=64", "figx")
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr)
	}
	var reports []experiments.Report
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || len(reports[0].Rows) != 8 {
		t.Fatalf("reports = %+v", reports)
	}
	for _, row := range reports[0].Rows {
		if row[2] != "drcat:counters=64" {
			t.Errorf("row scheme = %v, want the full spec string", row[2])
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "table1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestCPUProfileBadPathExitsOne(t *testing.T) {
	code, _, stderr := runCLI(t, "-cpuprofile", filepath.Join(t.TempDir(), "no", "dir", "cpu.pprof"), "table1")
	if code != 1 || stderr == "" {
		t.Errorf("exit = %d stderr %q, want 1 with an error", code, stderr)
	}
}

func TestFigtTimeSeriesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped with -short")
	}
	code, stdout, stderr := runCLI(t,
		"-q", "-scale", "0.02", "-workloads", "black", "-format", "json", "figt")
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr)
	}
	var reports []experiments.Report
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Name != "figt" {
		t.Fatalf("reports = %+v", reports)
	}
	if len(reports[0].Rows) == 0 {
		t.Fatal("figt emitted no epoch rows")
	}
	// Rows are column-keyed objects; every row carries an epoch index and
	// timestamp the jq examples in the README rely on.
	first := reports[0].Rows[0]
	if len(first) != len(reports[0].Columns) {
		t.Errorf("row width %d != %d columns", len(first), len(reports[0].Columns))
	}
}

func TestMemProfileBadPathExitsOne(t *testing.T) {
	code, _, stderr := runCLI(t, "-memprofile", filepath.Join(t.TempDir(), "no", "dir", "mem.pprof"), "table1")
	if code != 1 || stderr == "" {
		t.Errorf("exit = %d stderr %q, want 1 with an error", code, stderr)
	}
}
