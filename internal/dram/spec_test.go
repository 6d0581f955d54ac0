package dram

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"
)

// TestGeometryPresetTableValid: every preset name is lowercase, unique
// and free of the grammar's separators, so ParseGeometry can reach it,
// and every preset geometry validates.
func TestGeometryPresetTableValid(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Geometries() {
		if p.Name == "" || p.Name != strings.ToLower(p.Name) || strings.ContainsAny(p.Name, ":,= ") {
			t.Errorf("preset name %q: want non-empty lowercase without any of \":,= \"", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("preset %q listed twice", p.Name)
		}
		seen[p.Name] = true
		if err := p.Geom.Validate(); err != nil {
			t.Errorf("preset %q: %v", p.Name, err)
		}
	}
}

// TestGeometryPresetsRegistered: the presets keep their names, docs and
// geometries in listed order, and every preset resolves by name and
// round-trips through the compact string form untouched.
func TestGeometryPresetsRegistered(t *testing.T) {
	want := []GeometryPreset{
		{"2ch", "paper baseline: 2 channels, 8 banks/rank, 64Ki rows (Table I)", Default2Channel()},
		{"4ch", "4-channel mapping of §VIII-B (2 ranks/channel, 64 banks)", Default4Channel()},
		{"quad2ch", "quad-core 2-channel system (128Ki rows/bank)", QuadCore2Channel()},
		{"quad4ch", "quad-core 4-channel system (128Ki rows/bank)", QuadCore4Channel()},
		{"ddr5", "8-channel DDR5-class organisation (2 ranks, 32 banks/rank, 8KiB rows)", DDR5_8Channel()},
	}
	got := Geometries()
	if len(got) != len(want) {
		t.Fatalf("got %d presets, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p != want[i] {
			t.Errorf("preset %d = %+v, want %+v", i, p, want[i])
		}
		spec, err := ParseGeometry(p.Name)
		if err != nil {
			t.Fatalf("ParseGeometry(%q): %v", p.Name, err)
		}
		if spec.Geom != p.Geom || spec.String() != p.Name {
			t.Errorf("ParseGeometry(%q) = %v (string %q), want the preset itself", p.Name, spec.Geom, spec.String())
		}
	}
}

// TestGeometrySpecRoundTrip: string and JSON forms invert exactly,
// including Ki-suffixed overrides and the issue's ddr5 example.
func TestGeometrySpecRoundTrip(t *testing.T) {
	cases := []string{
		"2ch",
		"4ch:rows=128Ki",
		"ddr5:channels=8,ranks=2,banks=32,rows=128Ki",
		"2ch:channels=8,colbytes=8Ki",
		"channels=4", // bare overrides apply over the 2ch baseline
		"quad4ch:linebytes=128",
	}
	for _, in := range cases {
		spec, err := ParseGeometry(in)
		if err != nil {
			t.Fatalf("ParseGeometry(%q): %v", in, err)
		}
		again, err := ParseGeometry(spec.String())
		if err != nil {
			t.Fatalf("ParseGeometry(String(%q)=%q): %v", in, spec.String(), err)
		}
		if again != spec {
			t.Errorf("%q: string round-trip %+v != %+v", in, again, spec)
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %q: %v", in, err)
		}
		var back GeometrySpec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if back != spec {
			t.Errorf("%q: JSON round-trip %+v != %+v", in, back, spec)
		}
	}
	spec, err := ParseGeometry("ddr5:channels=8,rows=128Ki")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Geom.Channels != 8 || spec.Geom.RowsPerBank != 128*1024 {
		t.Errorf("override mis-applied: %+v", spec.Geom)
	}
}

// TestGeometrySpecFlagValue: a *GeometrySpec works as a flag.Value.
func TestGeometrySpecFlagValue(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var spec GeometrySpec
	fs.Var(&spec, "geometry", "")
	if err := fs.Parse([]string{"-geometry", "4ch:rows=128Ki"}); err != nil {
		t.Fatal(err)
	}
	want := QuadCore4Channel()
	if spec.Geometry() != want {
		t.Errorf("flag parsed %+v, want %+v", spec.Geometry(), want)
	}
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	fs2.SetOutput(&strings.Builder{})
	var spec2 GeometrySpec
	fs2.Var(&spec2, "geometry", "")
	if err := fs2.Parse([]string{"-geometry", "2ch:rows=100"}); err == nil {
		t.Error("non-power-of-two rows parsed without error")
	}
}

// TestParseGeometryErrors: every malformed form fails with a message that
// names the problem (the satellite "bad geometry fails loudly" contract).
func TestParseGeometryErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ddr6", `unknown preset "ddr6" (valid: 2ch, 4ch, quad2ch, quad4ch, ddr5)`},
		{"2ch:gadgets=3", `unknown field "gadgets" (accepted: channels, ranks, banks, rows, colbytes, linebytes)`},
		{"2ch:channels", "not name=value"},
		{"2ch:channels=abc", "want integer"},
		{"2ch:channels=3", "power of two"},
		{"2ch:rows=0", "positive"},
		{"2ch:channels=2,channels=4", "duplicate field"},
		{"2ch:linebytes=32Ki", "exceeds row size"},
		// n*mult would wrap to a valid power of two without the overflow
		// check: 2^30, 2^11 and 2^30 respectively.
		{"2ch:rows=17179869185Gi", "overflows"},
		{"2ch:channels=18014398509481986Ki", "overflows"},
		{"2ch:rows=-17179869183Gi", "overflows"},
		// Every dimension fits, but the products do not: TotalBytes wraps
		// to 0 (2^70), to math.MinInt64 at exactly 2^63, and TotalBanks
		// itself wraps to math.MinInt64 (2^63 banks).
		{"2ch:channels=1Mi,banks=1Mi", "overflows int64"},
		{"2ch:channels=1Gi", "overflows int64"},
		{"2ch:channels=1Gi,ranks=1Gi,rows=1Gi,colbytes=1Gi", "overflows int64"},
	}
	for _, c := range cases {
		_, err := ParseGeometry(c.in)
		if err == nil {
			t.Errorf("ParseGeometry(%q) = nil error, want %q", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseGeometry(%q) error %q does not mention %q", c.in, err, c.want)
		}
	}
}

// FuzzParseGeometry guards the geometry grammar, which reaches the program
// from outside through -geometry flags and catsim-server job bodies: it
// must never panic, and every accepted spec must round-trip through its
// compact string form to the same geometry.
func FuzzParseGeometry(f *testing.F) {
	for _, p := range Geometries() {
		f.Add(p.Name)
	}
	for _, s := range []string{
		"4ch:rows=128Ki", "ddr5:channels=8,ranks=2,banks=32,rows=128Ki",
		"2ch:channels=8,colbytes=8Ki", "channels=4", "quad4ch:linebytes=128",
		"ddr6", "2ch:gadgets=3", "2ch:channels", "2ch:channels=abc",
		"2ch:channels=3", "2ch:rows=0", "2ch:channels=2,channels=4",
		"2ch:linebytes=32Ki", "2ch:rows=17179869185Gi",
		"2ch:channels=18014398509481986Ki",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseGeometry(in)
		if err != nil {
			return
		}
		again, err := ParseGeometry(spec.String())
		if err != nil {
			t.Fatalf("ParseGeometry(%q) accepted, but its String %q fails: %v", in, spec.String(), err)
		}
		if again.Geom != spec.Geom {
			t.Fatalf("ParseGeometry(%q): round trip via %q gives %+v, want %+v", in, spec.String(), again.Geom, spec.Geom)
		}
	})
}
