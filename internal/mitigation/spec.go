package mitigation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file makes scheme configuration data instead of code: a SchemeSpec
// is a serializable {Kind, Threshold, Params} value with a compact string
// form ("comet:counters=512,depth=4,seed=7") and a JSON form, and every
// scheme family declares a Builder that constructs it from a spec for a
// given DRAM geometry. The experiment harness, both CLIs and the catsim
// facade all build schemes through the one family table (families), so a
// new configuration of an existing family needs no new constructor
// plumbing anywhere.

// Params holds a spec's named parameters as exact decimal strings, which
// keeps string, JSON and flag round-trips lossless (uint64 seeds do not
// survive a float64 detour).
type Params map[string]string

// Int returns the named integer parameter, or def when absent.
func (p Params) Int(name string, def int) (int, error) {
	v, ok := p[name]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad param %s=%q: want integer", name, v)
	}
	return n, nil
}

// Uint64 returns the named uint64 parameter, or def when absent.
func (p Params) Uint64(name string, def uint64) (uint64, error) {
	v, ok := p[name]
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad param %s=%q: want unsigned integer", name, v)
	}
	return n, nil
}

// Float returns the named float parameter, or def when absent.
func (p Params) Float(name string, def float64) (float64, error) {
	v, ok := p[name]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad param %s=%q: want number", name, v)
	}
	return f, nil
}

// SetInt stores an integer parameter.
func (p Params) SetInt(name string, v int) { p[name] = strconv.Itoa(v) }

// SetUint64 stores a uint64 parameter.
func (p Params) SetUint64(name string, v uint64) { p[name] = strconv.FormatUint(v, 10) }

// SetFloat stores a float parameter in shortest exact form.
func (p Params) SetFloat(name string, v float64) {
	p[name] = strconv.FormatFloat(v, 'g', -1, 64)
}

// SchemeSpec is a declarative, serializable description of one mitigation
// scheme configuration. The zero Threshold means "caller supplies it"
// (experiment sweeps fill it per grid cell); Build requires it.
type SchemeSpec struct {
	Kind      Kind   `json:"kind"`
	Threshold uint32 `json:"threshold,omitempty"`
	Params    Params `json:"params,omitempty"`
}

// String renders the compact spec form: the lowercase kind, then
// "threshold=" (when set) and the remaining parameters in sorted order,
// e.g. "comet:threshold=32768,counters=512,depth=4". ParseSpec inverts it.
func (s SchemeSpec) String() string {
	kind := strings.ToLower(s.Kind.String())
	var parts []string
	if s.Threshold != 0 {
		parts = append(parts, fmt.Sprintf("threshold=%d", s.Threshold))
	}
	names := make([]string, 0, len(s.Params))
	for k := range s.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		parts = append(parts, k+"="+s.Params[k])
	}
	if len(parts) == 0 {
		return kind
	}
	return kind + ":" + strings.Join(parts, ",")
}

// Set implements flag.Value, so a *SchemeSpec can back a -scheme flag.
func (s *SchemeSpec) Set(str string) error {
	spec, err := ParseSpec(str)
	if err != nil {
		return err
	}
	*s = spec
	return nil
}

// SpecList is a repeatable -scheme flag: each occurrence appends one spec.
type SpecList []SchemeSpec

// String implements flag.Value.
func (l *SpecList) String() string {
	parts := make([]string, len(*l))
	for i, s := range *l {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Set implements flag.Value.
func (l *SpecList) Set(str string) error {
	spec, err := ParseSpec(str)
	if err != nil {
		return err
	}
	*l = append(*l, spec)
	return nil
}

// ParseSpec parses the compact spec form "kind:key=value,...". The kind is
// matched case-insensitively against the scheme families (plus the
// figure-label aliases "cc" and "dsac"); parameter names are validated
// against the kind's builder.
func ParseSpec(str string) (SchemeSpec, error) {
	spec := SchemeSpec{}
	kindPart, paramPart, hasParams := strings.Cut(strings.TrimSpace(str), ":")
	kind, err := ParseKind(kindPart)
	if err != nil {
		return spec, err
	}
	spec.Kind = kind
	if !hasParams {
		return spec, nil
	}
	for _, kv := range strings.Split(paramPart, ",") {
		name, value, ok := strings.Cut(kv, "=")
		name = strings.TrimSpace(name)
		value = strings.TrimSpace(value)
		if !ok || name == "" || value == "" {
			return spec, fmt.Errorf("mitigation: spec %q: param %q is not name=value", str, kv)
		}
		if name == "threshold" {
			t, err := strconv.ParseUint(value, 10, 32)
			if err != nil {
				return spec, fmt.Errorf("mitigation: spec %q: bad threshold %q", str, value)
			}
			spec.Threshold = uint32(t)
			continue
		}
		if err := validParam(kind, name); err != nil {
			return spec, fmt.Errorf("mitigation: spec %q: %w", str, err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			if _, uerr := strconv.ParseUint(value, 10, 64); uerr != nil {
				return spec, fmt.Errorf("mitigation: spec %q: bad param %s=%q: want number", str, name, value)
			}
		}
		if spec.Params == nil {
			spec.Params = Params{}
		}
		if _, dup := spec.Params[name]; dup {
			return spec, fmt.Errorf("mitigation: spec %q: duplicate param %q", str, name)
		}
		spec.Params[name] = value
	}
	return spec, nil
}

// ParamDef documents one accepted parameter of a scheme family.
type ParamDef struct {
	Name string
	Doc  string
}

// Builder describes one scheme family: its name, accepted parameters,
// labelling and construction. Each family's file declares its Builder as
// a package variable, and the families table indexes them by Kind. Params
// declares the accepted parameter names; Build may assume spec.Kind is
// the family's kind and every param name is declared.
type Builder struct {
	// Name is the family name Kind.String returns ("SCA",
	// "CounterCache"); its lowercase form is the spec grammar's kind.
	Name   string
	Params []ParamDef
	// Short is the family's figure-label abbreviation ("CC", "DSAC");
	// empty uses the Kind name.
	Short string
	// ShardSafe declares that the family's runtime state decomposes by
	// flat bank index with no cross-bank coupling and no shared PRNG
	// stream: running one instance per channel over channel-confined
	// traffic is observationally identical to one instance over the merged
	// stream. The sharded engine partitions only shard-safe schemes;
	// everything else (PRA and DSAC share one PRNG across banks, ABACuS
	// implements CrossBank) runs on the sequential reference engine. The
	// shard-safety test locks the contract: a CrossBank implementer must
	// never be marked shard-safe.
	ShardSafe bool
	// Label renders the figure label for a spec; nil selects the default
	// "<Short>_<counters>" form. Declared next to Build so every caller —
	// sim grids, report tables, cache keys — shares one naming.
	Label func(spec SchemeSpec) string
	Build func(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error)
}

// ShardSafe reports whether the kind's builder declared its state
// bank-decomposable (see Builder.ShardSafe). Invalid kinds are not
// shard-safe.
func ShardSafe(k Kind) bool {
	return k.Valid() && families[k].ShardSafe
}

// Label renders the figure label for a spec ("DRCAT_64", "CC_1024",
// "PRA_0.002", "None"): the family's Label override when set, otherwise
// "<Short>_<counters>". This is the single naming authority the
// experiment grids and report tables share.
func Label(spec SchemeSpec) string {
	short := spec.Kind.String()
	if spec.Kind.Valid() {
		b := families[spec.Kind]
		if b.Label != nil {
			return b.Label(spec)
		}
		if b.Short != "" {
			short = b.Short
		}
	}
	counters, err := spec.Params.Int("counters", 0)
	if err != nil {
		counters = 0
	}
	return fmt.Sprintf("%s_%d", short, counters)
}

// HasParam reports whether kind k's family declares the named parameter.
func HasParam(k Kind, name string) bool {
	if !k.Valid() {
		return false
	}
	for _, p := range families[k].Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// validParam checks name against the params of k, which must be valid.
func validParam(k Kind, name string) error {
	if HasParam(k, name) {
		return nil
	}
	params := families[k].Params
	names := make([]string, 0, len(params)+1)
	for _, p := range params {
		names = append(names, p.Name)
	}
	names = append(names, "threshold")
	return fmt.Errorf("unknown param %q for %s (accepted: %s)",
		name, strings.ToLower(k.String()), strings.Join(names, ", "))
}

// Build constructs the scheme a spec describes for a system with the given
// bank count and rows per bank. Every kind except None requires a
// threshold; parameter names must be declared by the kind's builder.
func Build(spec SchemeSpec, banks, rowsPerBank int) (Scheme, error) {
	if !spec.Kind.Valid() {
		return nil, fmt.Errorf("mitigation: unknown scheme kind %v (valid: %s)", spec.Kind, kindList())
	}
	for name := range spec.Params {
		if err := validParam(spec.Kind, name); err != nil {
			return nil, fmt.Errorf("mitigation: spec %q: %w", spec.String(), err)
		}
	}
	if spec.Threshold == 0 && spec.Kind != KindNone {
		return nil, fmt.Errorf("mitigation: spec %q: missing threshold", spec.String())
	}
	scheme, err := families[spec.Kind].Build(spec, banks, rowsPerBank)
	if err != nil {
		return nil, fmt.Errorf("mitigation: spec %q: %w", spec.String(), err)
	}
	return scheme, nil
}

// ParseKind resolves a scheme family name case-insensitively, accepting
// the canonical names (Kind.String) and the figure-label aliases "cc"
// (counter cache) and "dsac" (the stochastic tracker).
func ParseKind(name string) (Kind, error) {
	switch n := strings.ToLower(strings.TrimSpace(name)); n {
	case "cc":
		return KindCounterCache, nil
	case "dsac":
		return KindStochastic, nil
	default:
		for _, k := range Kinds() {
			if strings.ToLower(k.String()) == n {
				return k, nil
			}
		}
	}
	return 0, fmt.Errorf("mitigation: unknown scheme kind %q (valid: %s)", name, kindList())
}

func kindList() string {
	var names []string
	for _, k := range Kinds() {
		names = append(names, strings.ToLower(k.String()))
	}
	return strings.Join(names, ", ")
}

// MarshalText renders the family name, making Kind JSON-friendly.
func (k Kind) MarshalText() ([]byte, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("mitigation: cannot marshal invalid kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses a family name (or alias) case-insensitively.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}
