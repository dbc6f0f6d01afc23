package opt

import (
	"fmt"
	"strings"
)

// backendFactories maps canonical backend names to constructors. The
// registry is the single source of truth for backend spellings: the
// CLI flag helpers, the analysis registry's Spec.Backend field, and
// the fpserve JSON API all resolve through it.
var backendFactories = []struct {
	name    string
	aliases []string
	mk      func() Minimizer
}{
	{"basinhopping", []string{"", "bh"}, func() Minimizer { return &Basinhopping{} }},
	{"de", []string{"differentialevolution"}, func() Minimizer { return &DifferentialEvolution{} }},
	{"powell", nil, func() Minimizer { return &Powell{} }},
	{"random", []string{"randomsearch"}, func() Minimizer { return &RandomSearch{} }},
	{"neldermead", []string{"nm"}, func() Minimizer { return &NelderMead{} }},
	{"anneal", []string{"sa", "simulatedannealing"}, func() Minimizer { return &SimulatedAnnealing{} }},
	{"portfolio", []string{"auto"}, func() Minimizer { return &Portfolio{} }},
}

// BackendNames lists the canonical backend names accepted by
// BackendByName, in preference order.
func BackendNames() []string {
	names := make([]string, len(backendFactories))
	for i, f := range backendFactories {
		names[i] = f.name
	}
	return names
}

// BroadcastBounds applies the shared single-pair convention to a bound
// list: empty stays empty (unbounded), one pair broadcasts over all dim
// dimensions, otherwise the count must match. Every pair is validated
// (finite check is deliberately omitted — ±Inf bounds mean "half
// line" — but lo must not exceed hi and neither may be NaN). The
// returned slice never aliases the input's backing array.
func BroadcastBounds(bs []Bound, dim int) ([]Bound, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	for _, b := range bs {
		if b.Lo != b.Lo || b.Hi != b.Hi {
			return nil, fmt.Errorf("bad bound %g:%g: NaN", b.Lo, b.Hi)
		}
		if b.Lo > b.Hi {
			return nil, fmt.Errorf("bad bound %g:%g: lo > hi", b.Lo, b.Hi)
		}
	}
	if len(bs) == 1 && dim > 1 {
		out := make([]Bound, dim)
		for i := range out {
			out[i] = bs[0]
		}
		return out, nil
	}
	if len(bs) != dim {
		return nil, fmt.Errorf("%d bounds for %d dimensions", len(bs), dim)
	}
	out := make([]Bound, len(bs))
	copy(out, bs)
	return out, nil
}

// newBackend resolves a backend spelling to a fresh, undecorated
// Minimizer and its canonical name. The portfolio scheduler builds its
// stage backends through this raw path so their evaluations are
// attributed to the portfolio run, not double-counted as standalone
// runs.
func newBackend(name string) (Minimizer, bool) {
	want := strings.ToLower(name)
	for _, f := range backendFactories {
		if want == f.name {
			return f.mk(), true
		}
		for _, a := range f.aliases {
			if want == a {
				return f.mk(), true
			}
		}
	}
	return nil, false
}

// canonicalBackendName maps any accepted spelling (alias,
// case-insensitive) to the canonical registry name; unknown spellings
// are returned lowercased.
func canonicalBackendName(name string) string {
	want := strings.ToLower(name)
	for _, f := range backendFactories {
		if want == f.name {
			return f.name
		}
		for _, a := range f.aliases {
			if want == a {
				return f.name
			}
		}
	}
	return want
}

// BackendByName resolves a backend spelling (canonical name or alias,
// case-insensitive; empty selects Basinhopping) to a fresh Minimizer.
// The returned minimizer is instrumented: every Minimize records its
// consumed evaluations in the process-wide EvalCounts ledger under the
// canonical name (portfolio stages under "portfolio/<stage>").
func BackendByName(name string) (Minimizer, error) {
	m, ok := newBackend(name)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (%s)", name, strings.Join(BackendNames(), ", "))
	}
	return countedBackend(canonicalBackendName(name), m), nil
}

// countedBackend decorates a minimizer with EvalCounts recording,
// preserving the LocalMinimizer capability when the underlying backend
// has it.
func countedBackend(name string, m Minimizer) Minimizer {
	c := countedMinimizer{name: name, m: m}
	if lm, ok := m.(LocalMinimizer); ok {
		return &countedLocalMinimizer{countedMinimizer: c, lm: lm}
	}
	return &c
}

type countedMinimizer struct {
	name string
	m    Minimizer
}

func (c *countedMinimizer) Name() string { return c.m.Name() }

func (c *countedMinimizer) Minimize(obj Objective, dim int, cfg Config) Result {
	r := c.m.Minimize(obj, dim, cfg)
	recordBackendEvals(c.name, r)
	return r
}

type countedLocalMinimizer struct {
	countedMinimizer
	lm LocalMinimizer
}

func (c *countedLocalMinimizer) MinimizeFrom(obj Objective, x0 []float64, cfg Config) Result {
	r := c.lm.MinimizeFrom(obj, x0, cfg)
	recordBackendEvals(c.name, r)
	return r
}
