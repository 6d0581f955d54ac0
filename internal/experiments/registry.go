package experiments

import (
	"fmt"
	"sort"
)

// The experiment registry is the one way to run a generator: every
// generator self-registers an Experiment from its file's init, and every
// caller — catsim.ReproduceAll, the cmd/experiments CLI, the golden-file
// tests — runs it by name through RunExperiment or RunAll into a Renderer,
// so a new generator is reachable everywhere the moment it registers.

// RunFunc measures one experiment and emits its report(s) as each
// completes, so text rendering interleaves with the generator's live
// progress lines (Options.Progress).
type RunFunc func(o Options, emit func(*Report) error) error

// Experiment is one registered generator.
type Experiment struct {
	// Name is the CLI target ("fig8", "ablations", ...).
	Name string
	// Description is the one-line summary shown by -list.
	Description string
	// Run measures and emits the experiment's reports.
	Run RunFunc
}

var registry = map[string]Experiment{}

// canonicalOrder is the presentation order of the suite (the paper's
// table/figure order, then the beyond-paper studies). The registry test
// asserts it matches the registered set exactly, in both directions.
var canonicalOrder = []string{
	"table1", "table2", "fig1", "lfsr", "fig2", "fig3", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "figx", "figt", "figw", "ablations",
	"headlines",
}

// Register installs a generator; duplicate or anonymous registrations are
// programming errors and panic.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("experiments: Register needs a name and a run function")
	}
	if _, dup := registry[e.Name]; dup {
		panic("experiments: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
}

func rank(name string) int {
	for i, n := range canonicalOrder {
		if n == name {
			return i
		}
	}
	return len(canonicalOrder)
}

// Experiments returns every registered generator in canonical order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i].Name), rank(out[j].Name)
		if ri != rj {
			return ri < rj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the registered experiment names in canonical order.
func Names() []string {
	es := Experiments()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a registered generator by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// RunExperiment measures one experiment and streams its reports into the
// renderer (the caller flushes the renderer once all targets ran).
func RunExperiment(name string, o Options, r Renderer) error {
	e, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (registered: %v)", name, Names())
	}
	return e.Run(o, r.Report)
}

// RunAll runs every registered experiment in canonical order into the
// renderer. Callers wanting cross-experiment run sharing install a cache
// in o (ReproduceAll and the CLI both do).
func RunAll(o Options, r Renderer) error {
	for _, e := range Experiments() {
		if err := e.Run(o, r.Report); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
