package sat

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fp"
	"repro/internal/opt"
)

func solveText(t *testing.T, src string, o Options) (Result, *Formula) {
	t.Helper()
	f, _, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Solve(context.Background(), f, o), f
}

func TestMotivatingConstraintRoundToNearest(t *testing.T) {
	// §1: x < 1 && x + 1 >= 2 is satisfiable under round-to-nearest
	// (x = 0.9999999999999999); MathSAT agrees.
	r, f := solveText(t, "x < 1 && x + 1 >= 2", Options{Seed: 1, Bounds: []opt.Bound{{Lo: -4, Hi: 4}}})
	if r.Verdict != Sat {
		t.Fatalf("expected SAT, got %+v", r)
	}
	if !f.Eval(r.Model) {
		t.Fatalf("model %v does not satisfy", r.Model)
	}
	if r.Model[0] != 0.9999999999999999 {
		t.Errorf("model %v, expected the predecessor of 1", r.Model[0])
	}
}

func TestUnsatReportsUnknown(t *testing.T) {
	// x < 1 && x > 2 has no models; with a bounded budget the solver
	// reports Unknown with a positive residual (Limitation 3: it cannot
	// prove UNSAT, but it must not report SAT).
	r, _ := solveText(t, "x < 1 && x > 2", Options{
		Seed: 2, Starts: 3, EvalsPerStart: 3000,
		Bounds: []opt.Bound{{Lo: -100, Hi: 100}},
	})
	if r.Verdict == Sat {
		t.Fatalf("unsound SAT on an unsatisfiable formula: %+v", r)
	}
	if r.MinDistance <= 0 {
		t.Errorf("min distance %v, want > 0", r.MinDistance)
	}
}

func TestDisjunction(t *testing.T) {
	r, f := solveText(t, "x == 5 || x == -7", Options{Seed: 3, Bounds: []opt.Bound{{Lo: -100, Hi: 100}}})
	if r.Verdict != Sat || !f.Eval(r.Model) {
		t.Fatalf("%+v", r)
	}
	if x := r.Model[0]; x != 5 && x != -7 {
		t.Errorf("model %v", x)
	}
}

func TestMultiVariable(t *testing.T) {
	r, f := solveText(t, "x + y == 10 && x - y == 4", Options{Seed: 4, Bounds: []opt.Bound{{Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}}})
	if r.Verdict != Sat {
		t.Fatalf("%+v", r)
	}
	if !f.Eval(r.Model) {
		t.Fatalf("model %v rejected", r.Model)
	}
}

func TestTranscendentalAtom(t *testing.T) {
	// The class SMT solvers cannot handle (§1): constraints through tan.
	r, f := solveText(t, "x < 1 && x + tan(x) >= 2", Options{Seed: 5, Bounds: []opt.Bound{{Lo: -1.5, Hi: 1}}})
	if r.Verdict != Sat {
		t.Fatalf("expected SAT, got %+v", r)
	}
	if !f.Eval(r.Model) {
		t.Fatalf("model %v rejected", r.Model)
	}
}

func TestModelsAlwaysVerified(t *testing.T) {
	// Soundness property: whenever Solve reports SAT, the model
	// concretely satisfies the formula.
	formulas := []string{
		"x * x == 2",                 // no exact float sqrt(2): likely Unknown
		"x * x >= 2 && x * x <= 2.1", // interval: satisfiable
		"fabs(x) == 3",               // two models
		"x / 3 == 1",                 //
		"sqrt(x) == 2",               //
		"x != x",                     // only NaN, unreachable in finite search: Unknown
		"x > 0 && log(x) == 0",       // x = 1
		"exp(x) >= 2 && exp(x) <= 3", //
		"x * 0 == 0",                 // any finite x
		"x - x == 0 && x * 2 == x + x",
	}
	for _, src := range formulas {
		f, _, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		r := Solve(context.Background(), f, Options{Seed: 6, Starts: 4, EvalsPerStart: 8000, Bounds: boundsFor(f.Dim(), -50, 50)})
		if r.Verdict == Sat && !f.Eval(r.Model) {
			t.Errorf("%q: unsound model %v", src, r.Model)
		}
	}
}

func boundsFor(dim int, lo, hi float64) []opt.Bound {
	bs := make([]opt.Bound, dim)
	for i := range bs {
		bs[i] = opt.Bound{Lo: lo, Hi: hi}
	}
	return bs
}

func TestWeakDistanceProperties(t *testing.T) {
	f, _, err := Parse("x < 1 && x + 1 >= 2")
	if err != nil {
		t.Fatal(err)
	}
	w := f.WeakDistance(true)
	prop := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		d := w([]float64{x})
		if d < 0 {
			return false
		}
		// Zero iff model (Def. 3.1(b-c)).
		return (d == 0) == f.Eval([]float64{x})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRealDistanceLimitation2(t *testing.T) {
	// With real-valued distances, x*x == -1 style traps do not arise,
	// but underflow can produce spurious zeros; the Member guard must
	// reject them so Solve never returns an unsound model.
	f := &Formula{Clauses: []Clause{{Atom{
		Op: fp.EQ,
		L:  &Bin{Op: OpMul, L: Var(0), R: Var(0)},
		R:  Const(0),
	}}}}
	// x*x == 0 holds for |x| < ~1.5e-162 by underflow — these ARE
	// genuine floating-point models (the comparison is over FP values),
	// so SAT with e.g. x=1e-200 is correct here.
	r := Solve(context.Background(), f, Options{Seed: 7, RealDist: true, Bounds: []opt.Bound{{Lo: -1, Hi: 1}}})
	if r.Verdict != Sat {
		t.Fatalf("%+v", r)
	}
	if !f.Eval(r.Model) {
		t.Errorf("model %v rejected by concrete evaluation", r.Model)
	}
}

func TestGroundFormula(t *testing.T) {
	r, _ := solveText(t, "1 < 2", Options{})
	if r.Verdict != Sat {
		t.Errorf("ground true formula: %+v", r)
	}
	r2, _ := solveText(t, "2 < 1", Options{})
	if r2.Verdict == Sat {
		t.Errorf("ground false formula: %+v", r2)
	}
	// The minimum distance of a false ground formula is its R, which is
	// positive and finite (an infinite one is not JSON-serializable).
	for _, o := range []Options{{}, {RealDist: true}} {
		r3, _ := solveText(t, "1 < 0", o)
		if r3.Verdict == Sat || !(r3.MinDistance > 0) || math.IsInf(r3.MinDistance, 0) {
			t.Errorf("ground false formula (RealDist=%v): %+v, want Unknown with finite positive MinDistance", o.RealDist, r3)
		}
	}
}

func TestParseBasics(t *testing.T) {
	f, vars, err := Parse("a + b * 2 <= 7 && (a == 1 || b == 2) && fabs(a - b) < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 3 {
		t.Errorf("%d clauses", len(f.Clauses))
	}
	if len(f.Clauses[1]) != 2 {
		t.Errorf("clause 1 has %d atoms", len(f.Clauses[1]))
	}
	if vars["a"] != 0 || vars["b"] != 1 {
		t.Errorf("vars %v", vars)
	}
	names := VarNames(vars)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names %v", names)
	}
	if f.Dim() != 2 {
		t.Errorf("dim %d", f.Dim())
	}
}

func TestParsePrecedence(t *testing.T) {
	f, _, err := Parse("x + 2 * 3 == 7")
	if err != nil {
		t.Fatal(err)
	}
	// x = 1 satisfies iff precedence is respected (x + 6 == 7).
	if !f.Eval([]float64{1}) {
		t.Error("precedence broken")
	}
}

func TestParseParenthesizedExprVsClause(t *testing.T) {
	// '(' can open an expression or a clause; both must parse.
	for _, src := range []string{
		"(x + 1) * 2 == 4",
		"(x == 1 || x == 2)",
		"((x - 1)) >= 0",
		"(x == 1 || x == 2) && (x + 1) * 2 == 4",
	} {
		if _, _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",            // no atom
		"x +",         // truncated
		"x < ",        // missing rhs
		"x",           // no comparison
		"x < 1 &&",    // dangling
		"foo(x) == 1", // unknown function
		"x << 1",      // bad operator sequence: parses as <, then junk
		"x < 1 extra", // trailing tokens
		"(x < 1",      // unclosed clause
	} {
		if _, _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestFormulaString(t *testing.T) {
	f, _, err := Parse("x < 1 && x + 1 >= 2 || x == 0")
	if err != nil {
		t.Fatal(err)
	}
	s := f.String()
	for _, want := range []string{"x0 < 1", "||", "&&", "(x0 + 1) >= 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestExprEval(t *testing.T) {
	e := &Bin{Op: OpDiv, L: &Call{Name: "exp", X: Const(0)}, R: Const(2)}
	if got := e.Eval(nil); got != 0.5 {
		t.Errorf("exp(0)/2 = %v", got)
	}
	n := &Neg{X: Var(0)}
	if got := n.Eval([]float64{3}); got != -3 {
		t.Errorf("-x = %v", got)
	}
}
