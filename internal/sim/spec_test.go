package sim

import (
	"strconv"
	"strings"
	"testing"

	"catsim/internal/mitigation"
)

func TestGridSpecToRegistrySpec(t *testing.T) {
	grid := SchemeSpec{Kind: mitigation.KindCoMeT, Counters: 512, Ways: 4}
	ms := grid.Spec(32768, 9)
	if ms.Kind != mitigation.KindCoMeT || ms.Threshold != 32768 {
		t.Fatalf("spec = %+v", ms)
	}
	if ms.Params["counters"] != "512" || ms.Params["depth"] != "4" {
		t.Errorf("params = %v", ms.Params)
	}
	// The run seed is mixed with the family constant, matching the
	// historical per-scheme PRNG streams.
	if want := strconv.FormatUint(9^uint64(cometSeedMix), 10); ms.Params["seed"] != want {
		t.Errorf("seed param = %s, want %s", ms.Params["seed"], want)
	}
	// A user-pinned seed passes through verbatim.
	grid.SpecSeed = 7
	if got := grid.Spec(32768, 9).Params["seed"]; got != "7" {
		t.Errorf("pinned seed = %s, want 7", got)
	}
}

func TestFromSpecMapsParams(t *testing.T) {
	ms, err := mitigation.ParseSpec("comet:counters=512,depth=4,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := FromSpec(ms)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Kind != mitigation.KindCoMeT || grid.Counters != 512 || grid.Ways != 4 || grid.SpecSeed != 7 {
		t.Fatalf("grid = %+v", grid)
	}
	// CAT specs default the tree depth like the CLI always has.
	ms, err = mitigation.ParseSpec("drcat:counters=64")
	if err != nil {
		t.Fatal(err)
	}
	if grid, err = FromSpec(ms); err != nil || grid.MaxLevels != 11 {
		t.Fatalf("grid = %+v, err %v", grid, err)
	}
}

// TestFromSpecNeedsCounters: every family with a counter budget rejects a
// spec that leaves it out, naming the kind and the param, and accepts it
// once set; None and PRA need no params.
func TestFromSpecNeedsCounters(t *testing.T) {
	needs := map[mitigation.Kind]bool{
		mitigation.KindNone:         false,
		mitigation.KindSCA:          true,
		mitigation.KindPRA:          false,
		mitigation.KindPRCAT:        true,
		mitigation.KindDRCAT:        true,
		mitigation.KindCounterCache: true,
		mitigation.KindCoMeT:        true,
		mitigation.KindABACuS:       true,
		mitigation.KindStochastic:   true,
	}
	for _, k := range mitigation.Kinds() {
		want, ok := needs[k]
		if !ok {
			t.Errorf("%v: missing from the table", k)
			continue
		}
		kind := strings.ToLower(k.String())
		_, err := FromSpec(mitigation.SchemeSpec{Kind: k})
		switch {
		case want && err == nil:
			t.Errorf("%s: a spec without counters converted", kind)
		case want && !strings.Contains(err.Error(), kind+" needs counters"):
			t.Errorf("%s: error %q does not name the kind and counters", kind, err)
		case !want && err != nil:
			t.Errorf("%s: bare spec rejected: %v", kind, err)
		}
		if want {
			spec := mitigation.SchemeSpec{Kind: k, Params: mitigation.Params{"counters": "64"}}
			if _, err := FromSpec(spec); err != nil {
				t.Errorf("%s: spec with counters rejected: %v", kind, err)
			}
		}
	}
}

func TestFromSpecRejectsZeroSeedPin(t *testing.T) {
	ms, err := mitigation.ParseSpec("comet:counters=512,seed=0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec(ms); err == nil ||
		!strings.Contains(err.Error(), "pinned seed must be nonzero") {
		t.Errorf("seed=0 pin should be rejected, got %v", err)
	}
}

func TestFromSpecRejectsAblationKnobs(t *testing.T) {
	ms, err := mitigation.ParseSpec("drcat:counters=64,weightbits=3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec(ms); err == nil ||
		!strings.Contains(err.Error(), "not supported in experiment grids") {
		t.Errorf("err = %v", err)
	}
}
