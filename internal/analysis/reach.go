package analysis

import (
	"context"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/rt"
)

// ReachPath searches for an input driving the program along the target
// path s.Path (§4.3): it minimizes the additive path weak distance and
// re-verifies any zero by replaying the decision sequence (the §5.2
// membership guard). The context cancels the search at evaluation
// granularity.
//
// It reads Seed, Starts, Evals (per start), Backend, Bounds, ULP and
// Workers from s; a zero or negative Starts takes reach's DefaultSpec
// value, and a zero or negative Evals core.Solve's 20000 × dim. The
// result is identical for every Workers value: the solver reports the
// lowest-index restart that reaches the path. With ULP, equality-guarded
// paths like `if (x == 0)` are soundly reachable (Limitation 2).
//
// An assertion violation is a reach target too (the Fig. 1 analysis):
// the path is the prefix reaching the assertion plus the assertion's
// condition branch taken the failing way, so "can assert(x < 2) fail?"
// asks for [x < 1 taken; x < 2 not taken].
func ReachPath(ctx context.Context, p *rt.Program, s Spec) (core.Result, error) {
	if len(s.Path) == 0 {
		return core.Result{}, &SpecError{Field: "path", Reason: "empty path; want e.g. 0:t,1:f"}
	}
	s, be, err := s.resolve(reachAnalysis{}.DefaultSpec())
	if err != nil {
		return core.Result{}, err
	}
	target := s.Path
	prob := core.Problem{
		Name: p.Name + "-reach",
		Dim:  p.Dim,
		// Each restart minimizes its own weak-distance instance (own
		// monitor, own program instance for interpreter-backed
		// programs), so no execution state is shared across workers.
		NewW: func() core.WeakDistance {
			inst := p.Instance()
			return inst.WeakDistance(&instrument.Path{Target: target, ULP: s.ULP})
		},
		Member: func(x []float64) bool {
			inst := p.Instance()
			wit := &instrument.PathWitness{}
			inst.Execute(wit, x)
			return wit.Matches(target)
		},
	}
	return core.Solve(ctx, prob, s.solveOptions(be)), nil
}
