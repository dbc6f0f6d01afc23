package core_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/progs"
)

func TestSolveBoundaryFig2(t *testing.T) {
	p := progs.Fig2()
	wit := &instrument.BoundaryWitness{}
	prob := core.Problem{
		Name: "fig2-boundary",
		Dim:  1,
		NewW: func() core.WeakDistance { return p.WeakDistance(&instrument.Boundary{}) },
		Member: func(x []float64) bool {
			p.Execute(wit, x)
			return len(wit.Sites()) > 0
		},
	}
	r := core.Solve(context.Background(), prob, core.Options{Seed: 1, Bounds: []opt.Bound{{Lo: -100, Hi: 100}}})
	if !r.Found {
		t.Fatalf("boundary problem unsolved: %v", r)
	}
	if got := prob.NewW()(r.X); got != 0 {
		t.Errorf("returned point has W = %v", got)
	}
}

func TestSolvePathFig2(t *testing.T) {
	p := progs.Fig2()
	target := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: true},
	}
	prob := core.Problem{Name: "fig2-path", Dim: 1, NewW: func() core.WeakDistance {
		return p.WeakDistance(&instrument.Path{Target: target})
	}}
	r := core.Solve(context.Background(), prob, core.Options{Seed: 2, Bounds: []opt.Bound{{Lo: -1000, Hi: 1000}}})
	if !r.Found {
		t.Fatalf("path problem unsolved: %v", r)
	}
	if x := r.X[0]; x < -3 || x > 1 {
		t.Errorf("solution %v outside [-3, 1]", x)
	}
}

func TestSolveReportsNotFoundOnEmptyS(t *testing.T) {
	// W = |x| + 1 has no zeros: S = ∅; Solve must report not found with
	// a positive minimum (Def. 2.1(b) via Lemma 3.2(a)).
	prob := core.Problem{
		Name: "empty",
		Dim:  1,
		NewW: func() core.WeakDistance { return func(x []float64) float64 { return math.Abs(x[0]) + 1 } },
	}
	r := core.Solve(context.Background(), prob, core.Options{
		Seed: 3, Starts: 2, EvalsPerStart: 2000,
		Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
	})
	if r.Found {
		t.Fatalf("found a zero of a zero-free function: %v", r)
	}
	if r.W <= 0 {
		t.Errorf("reported min W = %v, want > 0", r.W)
	}
	if !strings.Contains(r.String(), "not found") {
		t.Errorf("String() = %q, want 'not found' wording", r.String())
	}
}

func TestSolveMembershipGuardRejectsSpuriousZeros(t *testing.T) {
	// Limitation 2 (§5.2): W(x) = x*x for the `if (x == 0)` problem has
	// spurious zeros (underflow). The membership guard must reject them;
	// with search confined to the spurious region, Solve reports not
	// found rather than an unsound solution.
	prob := core.Problem{
		Name: "eqzero-naive",
		Dim:  1,
		NewW: func() core.WeakDistance { return func(x []float64) float64 { return x[0] * x[0] } },
		Member: func(x []float64) bool {
			return x[0] == 0
		},
	}
	r := core.Solve(context.Background(), prob, core.Options{
		Seed: 4, Starts: 3, EvalsPerStart: 300,
		Backend: &opt.RandomSearch{},
		Bounds:  []opt.Bound{{Lo: 1e-210, Hi: 1e-190}}, // only spurious zeros here
	})
	if r.Found {
		t.Fatalf("unsound: accepted spurious zero at %v", r.X)
	}
	if r.Rejected == 0 {
		t.Error("expected at least one rejected spurious zero")
	}
}

func TestSolveZeroDimension(t *testing.T) {
	r := core.Solve(context.Background(), core.Problem{Name: "bad", Dim: 0}, core.Options{})
	if r.Found {
		t.Error("zero-dimension problem cannot be solved")
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := progs.Fig2()
	mk := func() core.Result {
		return core.Solve(context.Background(), core.Problem{
			Name: "det", Dim: 1,
			NewW: func() core.WeakDistance { return p.WeakDistance(&instrument.Boundary{}) },
		}, core.Options{Seed: 9, Starts: 2, EvalsPerStart: 4000, Bounds: []opt.Bound{{Lo: -50, Hi: 50}}})
	}
	a, b := mk(), mk()
	if a.Found != b.Found || a.Evals != b.Evals {
		t.Errorf("nondeterministic solve: %+v vs %+v", a, b)
	}
	if a.Found && a.X[0] != b.X[0] {
		t.Errorf("solutions differ: %v vs %v", a.X, b.X)
	}
}

func TestResultString(t *testing.T) {
	found := core.Result{Found: true, X: []float64{1}, Evals: 10, Restarts: 1}
	if !strings.Contains(found.String(), "found") {
		t.Errorf("String() = %q", found.String())
	}
}
