package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-file tests lock the text renderer's bytes to the output the
// hand-written per-figure renderers produced before the Report refactor:
// every registered experiment, run at a fixed small scale, must reproduce
// its checked-in testdata/golden/<name>.golden byte for byte — progress
// lines, table alignment, trailing notes and all. Regenerate deliberately
// with
//
//	go test ./internal/experiments -run TestGoldenText -update
//
// after an intentional output change (and eyeball the diff).
var updateGolden = flag.Bool("update", false, "rewrite the golden files")

func goldenOptions() Options {
	return Options{Scale: 0.05, Seed: 1, Workloads: []string{"black", "comm1"}, LFSRTrials: 50}
}

// runText runs a registered experiment through the text renderer with
// its progress lines on the same writer, as the CLI's text format does.
func runText(t *testing.T, name string, o Options) string {
	t.Helper()
	var buf bytes.Buffer
	o.Progress = &buf
	if err := RunExperiment(name, o, NewTextRenderer(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGoldenText runs every registered experiment and requires a golden
// file for each, and an experiment for each golden file.
func TestGoldenText(t *testing.T) {
	skipIfShort(t)
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".golden")
		if _, ok := Lookup(name); !ok {
			t.Errorf("%s has no registered experiment", f)
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			got := []byte(runText(t, name, goldenOptions()))
			path := filepath.Join("testdata", "golden", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s",
					path, firstDiffContext(got, want), firstDiffContext(want, got))
			}
		})
	}
}

// firstDiffContext returns a window of a around its first difference from
// b, keeping failure output readable for multi-KB tables.
func firstDiffContext(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(a) {
		hi = len(a)
	}
	return string(a[lo:hi])
}
