package mitigation

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// specFixtures returns one representative spec per registered kind; the
// round-trip test fails if a newly registered kind has no fixture here.
func specFixtures() map[Kind]SchemeSpec {
	return map[Kind]SchemeSpec{
		KindNone: {Kind: KindNone},
		KindSCA:  {Kind: KindSCA, Threshold: 32768, Params: Params{"counters": "64"}},
		KindPRA:  {Kind: KindPRA, Threshold: 16384, Params: Params{"p": "0.003", "seed": "7"}},
		KindPRCAT: {Kind: KindPRCAT, Threshold: 32768,
			Params: Params{"counters": "64", "levels": "11"}},
		KindDRCAT: {Kind: KindDRCAT, Threshold: 16384,
			Params: Params{"counters": "64", "levels": "11", "weightbits": "2", "presplit": "6"}},
		KindCounterCache: {Kind: KindCounterCache, Threshold: 16384,
			Params: Params{"counters": "1024", "ways": "8"}},
		KindCoMeT: {Kind: KindCoMeT, Threshold: 32768,
			Params: Params{"counters": "512", "depth": "4", "seed": "18446744073709551615"}},
		KindABACuS: {Kind: KindABACuS, Threshold: 32768, Params: Params{"counters": "1024"}},
		KindStochastic: {Kind: KindStochastic, Threshold: 16384,
			Params: Params{"counters": "64", "seed": "9"}},
	}
}

func TestSpecStringAndJSONRoundTripEveryKind(t *testing.T) {
	fixtures := specFixtures()
	for _, k := range Kinds() {
		spec, ok := fixtures[k]
		if !ok {
			t.Errorf("kind %v has no round-trip fixture; add one", k)
			continue
		}
		str := spec.String()
		parsed, err := ParseSpec(str)
		if err != nil {
			t.Errorf("%v: ParseSpec(%q): %v", k, str, err)
			continue
		}
		if !reflect.DeepEqual(parsed, spec) {
			t.Errorf("%v: string round trip %q -> %+v, want %+v", k, str, parsed, spec)
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Errorf("%v: marshal: %v", k, err)
			continue
		}
		var back SchemeSpec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Errorf("%v: unmarshal %s: %v", k, blob, err)
			continue
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("%v: JSON round trip %s -> %+v, want %+v", k, blob, back, spec)
		}
	}
}

func TestSpecBuildEveryKind(t *testing.T) {
	for k, spec := range specFixtures() {
		s, err := Build(spec, 4, 1<<14)
		if err != nil {
			t.Errorf("%v: Build(%q): %v", k, spec.String(), err)
			continue
		}
		if s.Kind() != k {
			t.Errorf("%v: built scheme reports kind %v", k, s.Kind())
		}
	}
}

func TestSpecStringForm(t *testing.T) {
	spec := SchemeSpec{Kind: KindCoMeT, Threshold: 32768,
		Params: Params{"depth": "4", "counters": "512"}}
	// threshold first, then params sorted.
	if got, want := spec.String(), "comet:threshold=32768,counters=512,depth=4"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := (SchemeSpec{Kind: KindNone}).String(), "none"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantErr string
	}{
		{"bogus:counters=1", `unknown scheme kind "bogus" (valid: none, sca, pra, prcat, drcat, countercache, comet, abacus, stochastic)`},
		{"", "unknown scheme kind"},
		{"sca:bogus=1", `unknown param "bogus" for sca (accepted: counters, threshold)`},
		{"drcat:depth=3", `unknown param "depth" for drcat (accepted: counters, levels, weightbits, presplit, threshold)`},
		{"sca:counters=abc", "want number"},
		{"sca:counters=1,counters=2", "duplicate param"},
		{"sca:counters", "not name=value"},
		{"sca:threshold=notanum", "bad threshold"},
		{"comet:threshold=99999999999", "bad threshold"}, // > uint32
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseSpec(%q) error %q, want it to mention %q", c.in, err, c.wantErr)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	// Missing threshold (every kind but None requires one).
	spec, err := ParseSpec("sca:counters=64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(spec, 4, 1024); err == nil || !strings.Contains(err.Error(), "missing threshold") {
		t.Errorf("Build without threshold: %v, want missing-threshold error", err)
	}
	// Unknown kind.
	if _, err := Build(SchemeSpec{Kind: Kind(99), Threshold: 1024}, 4, 1024); err == nil ||
		!strings.Contains(err.Error(), "unknown scheme kind") {
		t.Errorf("Build with invalid kind: %v", err)
	}
	// Bad param value smuggled past parse (hand-built spec).
	bad := SchemeSpec{Kind: KindSCA, Threshold: 1024, Params: Params{"counters": "abc"}}
	if _, err := Build(bad, 4, 1024); err == nil || !strings.Contains(err.Error(), "want integer") {
		t.Errorf("Build with bad param: %v", err)
	}
	// Unknown param name on a hand-built spec.
	unk := SchemeSpec{Kind: KindSCA, Threshold: 1024, Params: Params{"depth": "4"}}
	if _, err := Build(unk, 4, 1024); err == nil || !strings.Contains(err.Error(), "unknown param") {
		t.Errorf("Build with unknown param: %v", err)
	}
	// Builder-level validation still fires (CoMeT counters %% depth != 0).
	comet := SchemeSpec{Kind: KindCoMeT, Threshold: 1024,
		Params: Params{"counters": "10", "depth": "4"}}
	if _, err := Build(comet, 4, 1024); err == nil {
		t.Error("Build with indivisible CoMeT counters should fail")
	}
}

func TestParseKindAliases(t *testing.T) {
	cases := map[string]Kind{
		"cc": KindCounterCache, "CC": KindCounterCache,
		"dsac": KindStochastic, "DSAC": KindStochastic,
		"CoMeT": KindCoMeT, "comet": KindCoMeT,
		"abacus": KindABACuS, "DRCAT": KindDRCAT, "none": KindNone,
	}
	for in, want := range cases {
		k, err := ParseKind(in)
		if err != nil || k != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, k, err, want)
		}
	}
	if _, err := ParseKind("nope"); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("ParseKind(nope) should list valid kinds, got %v", err)
	}
}

func TestSpecFlagValue(t *testing.T) {
	var list SpecList
	if err := list.Set("comet:counters=512,depth=4"); err != nil {
		t.Fatal(err)
	}
	if err := list.Set("drcat:counters=64"); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Kind != KindCoMeT || list[1].Kind != KindDRCAT {
		t.Fatalf("SpecList = %+v", list)
	}
	if err := list.Set("sca:bogus=1"); err == nil {
		t.Error("SpecList.Set must reject bad specs")
	}
	var single SchemeSpec
	if err := single.Set("abacus:threshold=32768,counters=1024"); err != nil {
		t.Fatal(err)
	}
	if single.Kind != KindABACuS || single.Threshold != 32768 {
		t.Fatalf("SchemeSpec.Set = %+v", single)
	}
}

func TestEveryKindHasBuilder(t *testing.T) {
	for k := Kind(0); k < kindEnd; k++ {
		if families[k].Name == "" || families[k].Build == nil {
			t.Errorf("kind %d: want a name and a Build", int(k))
		}
	}
	if got := len(Kinds()); got != int(kindEnd) {
		t.Errorf("Kinds() lists %d kinds, want all %d below kindEnd", got, int(kindEnd))
	}
}

// TestLabelEveryKind locks the figure labels the tables and cache keys
// are built from, now that naming lives in the family table next to
// construction (the sim package's historical per-kind switch is gone),
// and holds every built scheme's Name to its label.
func TestLabelEveryKind(t *testing.T) {
	want := map[Kind]string{
		KindNone:         "None",
		KindSCA:          "SCA_64",
		KindPRA:          "PRA_0.003",
		KindPRCAT:        "PRCAT_64",
		KindDRCAT:        "DRCAT_64",
		KindCounterCache: "CC_1024",
		KindCoMeT:        "CoMeT_512",
		KindABACuS:       "ABACuS_1024",
		KindStochastic:   "DSAC_64",
	}
	fixtures := specFixtures()
	for _, k := range Kinds() {
		got := Label(fixtures[k])
		if got != want[k] {
			t.Errorf("Label(%v) = %q, want %q", k, got, want[k])
		}
		scheme, err := Build(fixtures[k], 2, 1<<16)
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		if name := scheme.Name(); name != got {
			t.Errorf("Build(%v).Name() = %q, want its label %q", k, name, got)
		}
	}
	// PRA with no explicit p derives the paper's probability from the
	// spec's threshold.
	if got := Label(SchemeSpec{Kind: KindPRA, Threshold: 32768}); got != "PRA_0.002" {
		t.Errorf("threshold-derived PRA label = %q, want PRA_0.002", got)
	}
}

// FuzzParseSpec guards the scheme-spec grammar, which reaches the program
// from outside through -scheme flags and catsim-server job bodies: it must
// never panic, and every accepted spec must round-trip through its compact
// string form to a DeepEqual value.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range specFixtures() {
		f.Add(spec.String())
	}
	for _, s := range []string{
		"comet:counters=512,depth=4", "drcat:counters=64", "DSAC",
		"abacus:threshold=32768,counters=1024", "bogus:counters=1", "",
		"sca:bogus=1", "sca:counters=abc", "sca:counters=1,counters=2",
		"sca:counters", "sca:threshold=notanum", "comet:threshold=99999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String %q fails: %v", in, spec.String(), err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("ParseSpec(%q): round trip via %q gives %+v, want %+v", in, spec.String(), again, spec)
		}
	})
}
