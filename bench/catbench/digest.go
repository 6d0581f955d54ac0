package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// digestPath holds the blessed output digests, relative to the repository
// root the benchmark runs from. They are recorded for seeds 1 and 2 with
// -bless and compared on every later run of the same workload, seed and
// window; other seeds are checked by the seed-independent invariants only.
const digestPath = "bench/catbench/testdata/digests.json"

//go:embed testdata/digests.json
var blessedDigests []byte

func digestKey(name string, seed uint64, seconds int) string {
	return fmt.Sprintf("%s/seed=%d/seconds=%d", name, seed, seconds)
}

// checkDigest compares the run's output digest against the blessed one
// (a check only when one is recorded), or records it under -bless.
func (b *bench) checkDigest(seconds int, bless bool) {
	if b.digest == "" {
		b.op(fmt.Errorf("no output digest was computed"))
		return
	}
	key := digestKey(b.name, b.seed, seconds)
	data := blessedDigests
	if bless {
		// Bless into the file on disk, which may be newer than the copy
		// compiled in.
		var err error
		if data, err = os.ReadFile(digestPath); err != nil {
			b.op(err)
			return
		}
	}
	digests := map[string]string{}
	if err := json.Unmarshal(data, &digests); err != nil {
		b.op(fmt.Errorf("parse blessed digests: %w", err))
		return
	}
	if bless {
		if b.failed > 0 {
			b.op(fmt.Errorf("not blessing a run with failed operations"))
			return
		}
		digests[key] = b.digest
		out, err := json.MarshalIndent(digests, "", "  ")
		if err == nil {
			err = os.WriteFile(digestPath, append(out, '\n'), 0o644)
		}
		b.op(err)
		return
	}
	if want, ok := digests[key]; ok {
		b.check(want == b.digest, "output digest %s differs from the blessed %s (%s)", b.digest, want, key)
	}
}
