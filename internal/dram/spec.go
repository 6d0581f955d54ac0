package dram

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file makes geometry configuration data instead of code, mirroring
// the mitigation SchemeSpec: a GeometrySpec is a serializable value with a
// compact string form ("ddr5:channels=8,ranks=2,banks=32,rows=128Ki") — a
// named base preset plus field overrides — that round-trips through
// String()/ParseGeometry/JSON and backs a -geometry flag.Value in every
// CLI. The presets table below wraps the paper's Default* constructors;
// ParseGeometry validates the resolved geometry, so a bad -geometry fails
// with a clear error before any simulation state is built.

// GeometrySpec names a base preset and carries the fully resolved
// geometry. The string form renders only the fields that differ from the
// base, so "2ch" and "2ch:rows=128Ki" stay compact and canonical.
type GeometrySpec struct {
	// Base is the preset the spec started from ("" reads as "2ch").
	Base string
	// Geom is the resolved geometry, always validated by ParseGeometry.
	Geom Geometry
}

// GeometryPreset is one named geometry.
type GeometryPreset struct {
	Name string
	Doc  string
	Geom Geometry
}

// geoPresets lists the named geometries in presentation order. Names are
// lowercase and free of the grammar's ":,= " (the preset table test
// checks them and every geometry's validity).
var geoPresets = []GeometryPreset{
	{Name: "2ch", Doc: "paper baseline: 2 channels, 8 banks/rank, 64Ki rows (Table I)", Geom: Default2Channel()},
	{Name: "4ch", Doc: "4-channel mapping of §VIII-B (2 ranks/channel, 64 banks)", Geom: Default4Channel()},
	{Name: "quad2ch", Doc: "quad-core 2-channel system (128Ki rows/bank)", Geom: QuadCore2Channel()},
	{Name: "quad4ch", Doc: "quad-core 4-channel system (128Ki rows/bank)", Geom: QuadCore4Channel()},
	{Name: "ddr5", Doc: "8-channel DDR5-class organisation (2 ranks, 32 banks/rank, 8KiB rows)", Geom: DDR5_8Channel()},
}

// presetGeometry returns the named preset's geometry.
func presetGeometry(name string) (Geometry, bool) {
	for _, p := range geoPresets {
		if p.Name == name {
			return p.Geom, true
		}
	}
	return Geometry{}, false
}

// geoFields are the overridable fields in canonical order: the grammar's
// name for each and its place in a Geometry.
var geoFields = []struct {
	name string
	of   func(*Geometry) *int
}{
	{"channels", func(g *Geometry) *int { return &g.Channels }},
	{"ranks", func(g *Geometry) *int { return &g.RanksPerCh }},
	{"banks", func(g *Geometry) *int { return &g.BanksPerRk }},
	{"rows", func(g *Geometry) *int { return &g.RowsPerBank }},
	{"colbytes", func(g *Geometry) *int { return &g.ColBytes }},
	{"linebytes", func(g *Geometry) *int { return &g.LineBytes }},
}

// DDR5_8Channel is an 8-channel DDR5-class organisation: 2 ranks/channel,
// 32 banks/rank and 8 KiB rows. It is the sharded-engine scaling target,
// not a paper configuration (Table I is Default2Channel).
func DDR5_8Channel() Geometry {
	return Geometry{
		Channels:    8,
		RanksPerCh:  2,
		BanksPerRk:  32,
		RowsPerBank: 64 * 1024,
		ColBytes:    8 * 1024,
		LineBytes:   64,
	}
}

// Geometries lists the presets in presentation order.
func Geometries() []GeometryPreset {
	out := make([]GeometryPreset, len(geoPresets))
	copy(out, geoPresets)
	return out
}

// Geometry returns the resolved geometry.
func (s GeometrySpec) Geometry() Geometry { return s.Geom }

// formatSize renders a dimension with a Ki/Mi suffix when exact.
func formatSize(v int) string {
	switch {
	case v >= 1<<20 && v%(1<<20) == 0:
		return strconv.Itoa(v>>20) + "Mi"
	case v >= 1<<10 && v%(1<<10) == 0:
		return strconv.Itoa(v>>10) + "Ki"
	default:
		return strconv.Itoa(v)
	}
}

// parseSize parses a dimension with an optional Ki/Mi/Gi suffix.
func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "Ki"):
		mult, s = 1<<10, strings.TrimSuffix(s, "Ki")
	case strings.HasSuffix(s, "Mi"):
		mult, s = 1<<20, strings.TrimSuffix(s, "Mi")
	case strings.HasSuffix(s, "Gi"):
		mult, s = 1<<30, strings.TrimSuffix(s, "Gi")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("want integer (optionally Ki/Mi/Gi)")
	}
	if n > math.MaxInt/mult || n < -math.MaxInt/mult {
		return 0, fmt.Errorf("value overflows int")
	}
	return n * mult, nil
}

// String renders the compact form: the base preset name, then the fields
// that differ from it in canonical order, e.g. "2ch:channels=8,rows=128Ki".
// ParseGeometry inverts it.
func (s GeometrySpec) String() string {
	base := s.Base
	if base == "" {
		base = "2ch"
	}
	ref, ok := presetGeometry(base)
	if !ok {
		// Unknown base (hand-built spec): spell every field out over the
		// baseline so the string still parses back to the same geometry.
		base, ref = "2ch", Default2Channel()
	}
	var parts []string
	for _, f := range geoFields {
		if v := *f.of(&s.Geom); v != *f.of(&ref) {
			parts = append(parts, f.name+"="+formatSize(v))
		}
	}
	if len(parts) == 0 {
		return base
	}
	return base + ":" + strings.Join(parts, ",")
}

// ParseGeometry parses the compact form "<preset>" or
// "<preset>:field=value,..." (fields: channels, ranks, banks, rows,
// colbytes, linebytes; values accept Ki/Mi/Gi suffixes). A bare
// "field=value,..." list applies over the 2ch baseline. The resolved
// geometry is validated, so a non-power-of-two or non-positive dimension
// fails here with a clear error.
func ParseGeometry(str string) (GeometrySpec, error) {
	in := strings.TrimSpace(str)
	basePart, paramPart, hasParams := strings.Cut(in, ":")
	if !hasParams && strings.Contains(basePart, "=") {
		basePart, paramPart, hasParams = "2ch", basePart, true
	}
	base := strings.ToLower(strings.TrimSpace(basePart))
	if base == "" {
		base = "2ch"
	}
	geom, ok := presetGeometry(base)
	if !ok {
		names := make([]string, len(geoPresets))
		for i, p := range geoPresets {
			names[i] = p.Name
		}
		return GeometrySpec{}, fmt.Errorf("dram: geometry %q: unknown preset %q (valid: %s)",
			str, basePart, strings.Join(names, ", "))
	}
	spec := GeometrySpec{Base: base, Geom: geom}
	if !hasParams {
		return spec, nil
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(paramPart, ",") {
		name, value, ok := strings.Cut(kv, "=")
		name = strings.ToLower(strings.TrimSpace(name))
		value = strings.TrimSpace(value)
		if !ok || name == "" || value == "" {
			return GeometrySpec{}, fmt.Errorf("dram: geometry %q: field %q is not name=value", str, kv)
		}
		var field *int
		accepted := make([]string, len(geoFields))
		for i, f := range geoFields {
			if f.name == name {
				field = f.of(&spec.Geom)
			}
			accepted[i] = f.name
		}
		if field == nil {
			return GeometrySpec{}, fmt.Errorf("dram: geometry %q: unknown field %q (accepted: %s)",
				str, name, strings.Join(accepted, ", "))
		}
		if seen[name] {
			return GeometrySpec{}, fmt.Errorf("dram: geometry %q: duplicate field %q", str, name)
		}
		seen[name] = true
		v, err := parseSize(value)
		if err != nil {
			return GeometrySpec{}, fmt.Errorf("dram: geometry %q: bad field %s=%q: %v", str, name, value, err)
		}
		*field = v
	}
	if err := spec.Geom.Validate(); err != nil {
		return GeometrySpec{}, fmt.Errorf("dram: geometry %q: %w", str, err)
	}
	return spec, nil
}

// Set implements flag.Value, so a *GeometrySpec can back a -geometry flag.
func (s *GeometrySpec) Set(str string) error {
	spec, err := ParseGeometry(str)
	if err != nil {
		return err
	}
	*s = spec
	return nil
}

// MarshalJSON renders the compact string form (lossless: every override is
// an exact integer).
func (s GeometrySpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the compact string form and re-validates.
func (s *GeometrySpec) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	return s.Set(str)
}
