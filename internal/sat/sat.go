// Package sat implements the quantifier-free floating-point
// satisfiability instance of the reduction theory (§2 Instance 5, the
// XSat lineage [16]): a CNF constraint over floating-point expressions
// is transformed into a nonnegative weak distance R whose zeros are
// exactly the models, and deciding satisfiability reduces to minimizing
// R (Theorem 3.3).
//
// Per the paper's §7 discussion, the atom distances default to the
// integer ULP metric, which mitigates the unsoundness of real-valued
// distances under rounding (Limitation 2).
package sat

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/opt"
)

// Expr is a floating-point expression over variables x0..x(n-1).
type Expr interface {
	// Eval computes the expression's IEEE-754 binary64 value.
	Eval(x []float64) float64
	// String renders source-like text.
	String() string
	// maxVar returns the largest variable index used, or -1.
	maxVar() int
}

// Var is the i-th variable.
type Var int

// Eval implements Expr.
func (v Var) Eval(x []float64) float64 { return x[v] }

// String implements Expr.
func (v Var) String() string { return fmt.Sprintf("x%d", int(v)) }

func (v Var) maxVar() int { return int(v) }

// Const is a floating-point literal.
type Const float64

// Eval implements Expr.
func (c Const) Eval([]float64) float64 { return float64(c) }

// String implements Expr.
func (c Const) String() string { return fmt.Sprintf("%g", float64(c)) }

func (c Const) maxVar() int { return -1 }

// BinOp is an arithmetic operator.
type BinOp byte

// Arithmetic operators.
const (
	OpAdd BinOp = '+'
	OpSub BinOp = '-'
	OpMul BinOp = '*'
	OpDiv BinOp = '/'
)

// Bin is a binary arithmetic expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr.
func (b *Bin) Eval(x []float64) float64 {
	l, r := b.L.Eval(x), b.R.Eval(x)
	switch b.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		return l / r
	}
	return math.NaN()
}

// String implements Expr.
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L, b.Op, b.R)
}

func (b *Bin) maxVar() int { return maxInt(b.L.maxVar(), b.R.maxVar()) }

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// Eval implements Expr.
func (n *Neg) Eval(x []float64) float64 { return -n.X.Eval(x) }

// String implements Expr.
func (n *Neg) String() string { return "-" + n.X.String() }

func (n *Neg) maxVar() int { return n.X.maxVar() }

// Call is a unary math-function application (sin, cos, tan, sqrt, fabs,
// exp, log) — the expression class SMT solvers struggle with (§1).
type Call struct {
	Name string
	X    Expr
}

// Eval implements Expr.
func (c *Call) Eval(x []float64) float64 {
	v := c.X.Eval(x)
	switch c.Name {
	case "sin":
		return math.Sin(v)
	case "cos":
		return math.Cos(v)
	case "tan":
		return math.Tan(v)
	case "sqrt":
		return math.Sqrt(v)
	case "fabs":
		return math.Abs(v)
	case "exp":
		return math.Exp(v)
	case "log":
		return math.Log(v)
	}
	return math.NaN()
}

// String implements Expr.
func (c *Call) String() string { return fmt.Sprintf("%s(%s)", c.Name, c.X) }

func (c *Call) maxVar() int { return c.X.maxVar() }

// Atom is one comparison between two expressions.
type Atom struct {
	Op   fp.CmpOp
	L, R Expr
}

// Holds reports whether the atom is satisfied at x.
func (a Atom) Holds(x []float64) bool {
	return a.Op.Eval(a.L.Eval(x), a.R.Eval(x))
}

// Dist returns the atom's branch distance at x (zero iff it holds).
func (a Atom) Dist(x []float64, ulp bool) float64 {
	l, r := a.L.Eval(x), a.R.Eval(x)
	if ulp {
		return fp.BranchDistULP(a.Op, l, r)
	}
	return fp.BranchDist(a.Op, l, r)
}

// String renders the atom.
func (a Atom) String() string { return fmt.Sprintf("%s %s %s", a.L, a.Op, a.R) }

// Clause is a disjunction of atoms.
type Clause []Atom

// Formula is a CNF: a conjunction of clauses.
type Formula struct {
	Clauses []Clause
	// NumVars is the variable count; zero means inferred from use.
	NumVars int
}

// Dim returns the number of variables.
func (f *Formula) Dim() int {
	if f.NumVars > 0 {
		return f.NumVars
	}
	max := -1
	for _, cl := range f.Clauses {
		for _, a := range cl {
			max = maxInt(max, maxInt(a.L.maxVar(), a.R.maxVar()))
		}
	}
	return max + 1
}

// String renders the CNF.
func (f *Formula) String() string {
	var cls []string
	for _, cl := range f.Clauses {
		var ats []string
		for _, a := range cl {
			ats = append(ats, a.String())
		}
		cls = append(cls, "("+strings.Join(ats, " || ")+")")
	}
	return strings.Join(cls, " && ")
}

// Eval reports whether x is a model (the decidable membership oracle).
func (f *Formula) Eval(x []float64) bool {
	for _, cl := range f.Clauses {
		sat := false
		for _, a := range cl {
			if a.Holds(x) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// WeakDistance builds the XSat distance R: per clause the minimum of
// its atoms' distances (a disjunction holds when one atom does), summed
// over clauses (all must hold). R(x) = 0 iff x is a model.
func (f *Formula) WeakDistance(ulp bool) core.WeakDistance {
	return func(x []float64) float64 {
		total := 0.0
		for _, cl := range f.Clauses {
			best := math.Inf(1)
			for _, a := range cl {
				if d := a.Dist(x, ulp); d < best {
					best = d
				}
			}
			total += best
			if math.IsInf(total, 0) || math.IsNaN(total) {
				return fp.MaxFloat
			}
		}
		return total
	}
}

// Options configures Solve.
type Options struct {
	// Seed makes runs deterministic.
	Seed int64
	// Starts is the restart count; zero selects 8.
	Starts int
	// EvalsPerStart bounds evaluations per restart; zero selects
	// 20000 * dim.
	EvalsPerStart int
	// Backend is the MO backend; nil selects Basinhopping.
	Backend opt.Minimizer
	// Bounds optionally restricts the search space.
	Bounds []opt.Bound
	// RealDist selects real-valued |l-r| distances instead of the
	// default ULP metric (for the Limitation-2 ablation).
	RealDist bool
	// Workers sets multi-start parallelism: 0 selects runtime.NumCPU(),
	// 1 runs one worker. The result is identical for every value.
	Workers int
}

// Verdict is a satisfiability answer.
type Verdict int

// Verdicts. Unknown arises when minimization exhausts its budget with a
// positive minimum — incompleteness (Limitation 3) prevents concluding
// UNSAT.
const (
	Unknown Verdict = iota
	Sat
)

// Result is a solver outcome.
type Result struct {
	Verdict Verdict
	// Model is a satisfying assignment when Verdict == Sat.
	Model []float64
	// MinDistance is the smallest R value sampled.
	MinDistance float64
	// Evals counts R evaluations.
	Evals int
	// Canceled reports the search was cut short by context
	// cancellation; the Unknown verdict then covers an unfinished
	// budget, not an exhausted one.
	Canceled bool `json:"canceled,omitempty"`
}

// Solve decides the formula by weak-distance minimization, cancellable
// through ctx at evaluation granularity. A returned model is always
// verified by concrete evaluation (§5.2 guard), so Sat answers are
// sound; Unknown answers may be incomplete.
func Solve(ctx context.Context, f *Formula, o Options) Result {
	dim := f.Dim()
	w := f.WeakDistance(!o.RealDist)
	if dim == 0 {
		// Ground formula: evaluate directly. R on the empty assignment is
		// the exact minimum, and finite (R clamps to MaxFloat), so the
		// result stays JSON-serializable.
		if f.Eval(nil) {
			return Result{Verdict: Sat, Model: []float64{}}
		}
		return Result{Verdict: Unknown, MinDistance: w(nil)}
	}
	prob := core.Problem{
		Name: "xsat",
		Dim:  dim,
		// R is a pure function of x (no monitor state), so every start
		// can share the one instance.
		NewW:   func() core.WeakDistance { return w },
		Member: f.Eval,
	}
	r := core.Solve(ctx, prob, core.Options{
		Backend:       o.Backend,
		Starts:        o.Starts,
		EvalsPerStart: o.EvalsPerStart,
		Seed:          o.Seed,
		Bounds:        o.Bounds,
		Workers:       o.Workers,
	})
	if r.Found {
		return Result{Verdict: Sat, Model: r.X, MinDistance: 0, Evals: r.Evals}
	}
	return Result{Verdict: Unknown, MinDistance: r.W, Evals: r.Evals, Canceled: r.Canceled}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
