package analysis

import (
	"context"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/rt"
)

// ReachOptions configures ReachPath.
type ReachOptions struct {
	// Seed makes the run deterministic.
	Seed int64
	// Starts is the number of restarts; zero selects 8.
	Starts int
	// EvalsPerStart bounds evaluations per restart; zero selects
	// 20000 * dim.
	EvalsPerStart int
	// Backend is the MO backend; nil selects Basinhopping.
	Backend opt.Minimizer
	// Bounds optionally restricts the input space.
	Bounds []opt.Bound
	// ULP selects ULP branch distances (Limitation-2 mitigation; makes
	// equality-guarded paths like `if (x == 0)` soundly reachable).
	ULP bool
	// Workers sets multi-start parallelism: 0 selects runtime.NumCPU(),
	// 1 runs one worker. The result is identical for every value — the
	// solver reports the lowest-index restart that reaches the path.
	Workers int
}

// ReachPath searches for an input driving the program along the target
// path (§4.3): it minimizes the additive path weak distance and
// re-verifies any zero by replaying the decision sequence (the §5.2
// membership guard). The context cancels the search at evaluation
// granularity.
func ReachPath(ctx context.Context, p *rt.Program, target []instrument.Decision, o ReachOptions) core.Result {
	prob := core.Problem{
		Name: p.Name + "-reach",
		Dim:  p.Dim,
		// Each restart minimizes its own weak-distance instance (own
		// monitor, own program instance for interpreter-backed
		// programs), so no execution state is shared across workers.
		NewW: func() core.WeakDistance {
			inst := p.Instance()
			return inst.WeakDistance(&instrument.Path{Target: target, ULP: o.ULP})
		},
		Member: func(x []float64) bool {
			inst := p.Instance()
			wit := &instrument.PathWitness{}
			inst.Execute(wit, x)
			return wit.Matches(target)
		},
	}
	return core.Solve(ctx, prob, core.Options{
		Backend:       o.Backend,
		Starts:        o.Starts,
		EvalsPerStart: o.EvalsPerStart,
		Seed:          o.Seed,
		Bounds:        o.Bounds,
		Workers:       o.Workers,
	})
}

// AssertionViolations searches for inputs violating an assert guarded
// by a path: the target path is the prefix reaching the assertion plus
// the assertion's condition branch taken the *failing* way. This is the
// Fig. 1 analysis: "can assert(x < 2) fail?" becomes path reachability
// of [x < 1 taken; x < 2 not taken].
func AssertionViolations(ctx context.Context, p *rt.Program, target []instrument.Decision, o ReachOptions) core.Result {
	return ReachPath(ctx, p, target, o)
}
