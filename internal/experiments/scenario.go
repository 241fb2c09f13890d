package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Result is what every scenario produces: a human-readable rendering plus
// a tabular data series for CSV/JSON export.
type Result interface {
	fmt.Stringer
	Tabular
}

// Options selects how a scenario runs. Scenarios fix their own sizes:
// each derives them from Quick in one place (register.go's profile).
type Options struct {
	// Seed derives every testbed, workload and simulation of the run.
	Seed uint64
	// Quick selects the small profile (10-topology testbed at a 15 s
	// horizon, 5-topology corpus, 8 estimator seeds, 3 live topologies at
	// 1 s) instead of the full one the committed results come from.
	Quick bool
}

// Scenario is one declarative entry of the evaluation registry — the only
// way to run an experiment: what to run (topology source, workload shape
// and runtime mode live inside Run's closure), how long (fixed by the
// scenario per Options.Quick), what the output schema is (the
// Result's Tabular implementation), and which invariants must hold
// (Check).
type Scenario struct {
	// Name is the stable identifier (`ssbench -exp <name>`).
	Name string
	// Tags classify the scenario for filtering (`ssbench -scenario-tag`):
	// "sim" (simulated substrate), "live" (goroutine runtime), "paper"
	// (reproduces a paper figure/table), "ablation", "extension",
	// "workload", "default" (part of the plain `ssbench` sweep).
	Tags []string
	// Summary is the one-line description `ssbench -list` prints.
	Summary string
	// Run executes the scenario.
	Run func(ctx context.Context, o Options) (Result, error)
	// Check, when non-nil, validates the scenario's acceptance
	// assertions against the result; a non-nil error fails the run.
	Check func(Result) error
}

// HasTag reports whether the scenario carries the tag.
func (s Scenario) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

var registry = struct {
	byName map[string]Scenario
	names  []string // sorted
}{byName: map[string]Scenario{}}

// Register adds a scenario to the registry; it panics on duplicate or
// empty names (registration happens in init functions, so a bad entry is
// a programming error, not a runtime condition).
func Register(s Scenario) {
	if s.Name == "" {
		panic("experiments: scenario with empty name")
	}
	if s.Run == nil {
		panic("experiments: scenario " + s.Name + " has no Run")
	}
	if _, dup := registry.byName[s.Name]; dup {
		panic("experiments: duplicate scenario " + s.Name)
	}
	registry.byName[s.Name] = s
	registry.names = append(registry.names, s.Name)
	sort.Strings(registry.names)
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	s, ok := registry.byName[name]
	return s, ok
}

// Names returns every registered scenario name in sorted order — the
// stable iteration order every enumerating caller must use, so reruns
// and reports never depend on map iteration.
func Names() []string {
	return append([]string(nil), registry.names...)
}

// All returns every scenario in sorted-name order.
func All() []Scenario {
	out := make([]Scenario, 0, len(registry.names))
	for _, n := range registry.names {
		out = append(out, registry.byName[n])
	}
	return out
}

// WithTag returns the scenarios carrying the tag, in sorted-name order.
func WithTag(tag string) []Scenario {
	var out []Scenario
	for _, n := range registry.names {
		if s := registry.byName[n]; s.HasTag(tag) {
			out = append(out, s)
		}
	}
	return out
}

// TagSet returns every tag in use, sorted.
func TagSet() []string {
	seen := map[string]bool{}
	for _, s := range registry.byName {
		for _, t := range s.Tags {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DescribeRegistry renders the registry as the `-list` table.
func DescribeRegistry() string {
	var b strings.Builder
	b.WriteString("registered scenarios:\n")
	for _, n := range Names() {
		s := registry.byName[n]
		fmt.Fprintf(&b, "  %-12s [%s] %s\n", s.Name, strings.Join(s.Tags, ","), s.Summary)
	}
	fmt.Fprintf(&b, "tags: %s\n", strings.Join(TagSet(), ", "))
	return b.String()
}
