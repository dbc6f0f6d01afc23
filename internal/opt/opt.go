// Package opt implements the mathematical-optimization (MO) backends that
// the weak-distance framework treats as black boxes (paper §4.1):
//
//   - Basinhopping: Markov-chain Monte Carlo sampling over local minimum
//     points (Li & Scheraga 1987; Wales & Doye 1998), the paper's primary
//     backend.
//   - Differential Evolution: population-based global search (Storn 1999).
//   - Powell: derivative-free local direction-set search (Powell 1964).
//   - Nelder–Mead: derivative-free simplex local search (used as the
//     inner minimizer of Basinhopping).
//   - RandomSearch: pure random sampling, the baseline that a
//     characteristic-function weak distance degenerates to (paper Fig. 7).
//
// All backends honor the weak-distance contract: an objective value of
// exactly zero is a global minimum by construction (Def. 3.1(a)), so
// minimization stops the moment zero is sampled when Config.StopAtZero is
// set (paper §4.4 remark on termination).
package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
)

// Objective is a function to be minimized. Implementations must be safe
// to call repeatedly; the framework's objectives are weak-distance
// programs, which are executed (not analyzed) on each sample.
type Objective func(x []float64) float64

// Bound is an inclusive search interval for one input dimension.
type Bound struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// FullRange is the default bound: the entire finite binary64 line.
// Random points under FullRange are drawn uniformly over the *float
// lattice* (random bit patterns, filtered to finite values) rather than
// uniformly over the reals, so every exponent regime — from subnormals to
// 1e308 — is reachable with equal probability. Floating-point analyses
// need this: boundary conditions of GNU sin live near 1e-8 while GSL
// overflows live near 1e308.
var FullRange = Bound{Lo: math.Inf(-1), Hi: math.Inf(1)}

// isFull reports whether the bound is the default full-range bound.
func (b Bound) isFull() bool { return math.IsInf(b.Lo, -1) && math.IsInf(b.Hi, 1) }

// Clamp projects x into the bound.
func (b Bound) Clamp(x float64) float64 {
	if b.isFull() {
		if math.IsNaN(x) {
			return 0
		}
		if math.IsInf(x, 1) {
			return math.MaxFloat64
		}
		if math.IsInf(x, -1) {
			return -math.MaxFloat64
		}
		return x
	}
	if x < b.Lo || math.IsNaN(x) {
		return b.Lo
	}
	if x > b.Hi {
		return b.Hi
	}
	return x
}

// Config carries the shared knobs of every backend.
type Config struct {
	// Seed makes runs deterministic. Two runs with equal Seed and equal
	// budgets produce identical sampling sequences.
	Seed int64
	// MaxEvals bounds the number of objective evaluations. Zero means a
	// backend-specific default.
	MaxEvals int
	// Bounds gives a per-dimension search interval. Nil means FullRange
	// in every dimension.
	Bounds []Bound
	// StopAtZero halts as soon as an exact zero is sampled — sound for
	// weak distances per Def. 3.1(a); see the §4.4 termination remark.
	StopAtZero bool
	// Ctx, when non-nil, cancels the minimization cooperatively: the
	// shared evaluator consults it before every objective evaluation, so
	// a cancellation or deadline lands within ONE evaluation — no more
	// objective calls happen after Ctx is done, whatever the backend's
	// internal phase. Nil means no cancellation (and no per-eval
	// overhead).
	Ctx context.Context
	// gate, set only by ParallelStarts, stops a start whose result can
	// no longer be consumed at its next evaluation.
	gate startGate
}

// startGate links one ParallelStarts start to its schedule's lowest
// accepted zero. The zero value never drains.
type startGate struct {
	start   int64
	minZero *atomic.Int64
}

// drained reports that a lower-index start holds an accepted zero, so
// the equivalent serial loop would never have reached this start.
func (g startGate) drained() bool {
	return g.minZero != nil && g.start > g.minZero.Load()
}

func (c Config) maxEvals(def int) int {
	if c.MaxEvals > 0 {
		return c.MaxEvals
	}
	return def
}

func (c Config) bound(i int) Bound {
	if i < len(c.Bounds) {
		return c.Bounds[i]
	}
	return FullRange
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64 // minimum point found
	F          float64   // minimum value found
	Evals      int       // objective evaluations consumed
	FoundZero  bool      // an exact zero was sampled
	Exhausted  bool      // the evaluation budget ran out
	Canceled   bool      // Config.Ctx was done before the search finished
	Iterations int       // backend-specific outer iterations
	// Stages attributes the evaluations to the portfolio scheduler's
	// backend stages, in lineup order. Nil for single-backend runs.
	Stages []StageResult `json:"stages,omitempty"`
	// Winner names the stage backend holding the final best point
	// (portfolio runs only; empty when no stage ever improved on +Inf).
	Winner string `json:"winner,omitempty"`
}

// Minimizer is a global optimization backend.
type Minimizer interface {
	// Name identifies the backend (for reports and Table 1 rows).
	Name() string
	// Minimize searches for the minimum of obj over dim dimensions.
	Minimize(obj Objective, dim int, cfg Config) Result
}

// LocalMinimizer refines a given start point.
type LocalMinimizer interface {
	Name() string
	// MinimizeFrom performs a local search started at x0.
	MinimizeFrom(obj Objective, x0 []float64, cfg Config) Result
}

// ErrDimension is returned by helpers when dim < 1.
var ErrDimension = errors.New("opt: dimension must be >= 1")

// evaluator wraps an objective with budget accounting, best-so-far
// tracking, and the stop-at-zero contract. All backends
// route their samples through one evaluator so Result bookkeeping is
// uniform.
type evaluator struct {
	obj      Objective
	cfg      Config
	max      int
	evals    int
	bestF    float64
	bestX    []float64
	hitZero  bool
	ctxDone  <-chan struct{}
	canceled bool
	drained  bool
}

func newEvaluator(obj Objective, cfg Config, defMax int) *evaluator {
	e := &evaluator{
		obj:   obj,
		cfg:   cfg,
		max:   cfg.maxEvals(defMax),
		bestF: math.Inf(1),
	}
	if cfg.Ctx != nil {
		e.ctxDone = cfg.Ctx.Done()
	}
	return e
}

// stopped reports (and latches) whether Config.Ctx is done or the
// start was drained. With neither configured it is two nil checks.
func (e *evaluator) stopped() bool {
	if e.canceled || e.drained {
		return true
	}
	if e.cfg.gate.drained() {
		e.drained = true
		return true
	}
	if e.ctxDone == nil {
		return false
	}
	select {
	case <-e.ctxDone:
		e.canceled = true
		return true
	default:
		return false
	}
}

// eval samples the objective at x. NaN objective values are treated as
// +Inf so they never look optimal. Once the configured context is done
// or the start is drained, eval stops calling the objective entirely
// (returning +Inf uncounted), so the stop lands within one evaluation
// even for backends that sample between done() checks.
func (e *evaluator) eval(x []float64) float64 {
	if e.stopped() {
		return math.Inf(1)
	}
	e.evals++
	f := e.obj(x)
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	if f < e.bestF || e.bestX == nil {
		e.bestF = f
		e.bestX = append(e.bestX[:0], x...)
	}
	if f == 0 && e.cfg.StopAtZero {
		e.hitZero = true
	}
	return f
}

// evalBatch samples the objective at up to len(xs) points in order,
// writing each sanitized value to out, and returns how many leading
// entries it evaluated: it stops early once the search must stop.
// Entries at and past the returned count are unevaluated; callers must
// not read them.
func (e *evaluator) evalBatch(xs [][]float64, out []float64) int {
	for i, x := range xs {
		if e.done() {
			return i
		}
		out[i] = e.eval(x)
	}
	return len(xs)
}

// done reports whether the search must stop (budget exhausted, zero
// found under the stop-at-zero contract, context cancelled, or start
// drained).
func (e *evaluator) done() bool {
	return e.evals >= e.max || e.hitZero || e.stopped()
}

func (e *evaluator) result(iters int) Result {
	x := e.bestX
	if x == nil {
		x = []float64{}
	}
	return Result{
		X:          x,
		F:          e.bestF,
		Evals:      e.evals,
		FoundZero:  e.bestF == 0,
		Exhausted:  e.evals >= e.max,
		Canceled:   e.canceled,
		Iterations: iters,
	}
}

// randPoint draws a random point honoring the bound semantics described
// at FullRange.
func randPoint(rng *rand.Rand, dim int, cfg Config) []float64 {
	x := make([]float64, dim)
	randPointInto(rng, x, cfg)
	return x
}

// randPointInto is randPoint drawing into x, with the same draw order.
func randPointInto(rng *rand.Rand, x []float64, cfg Config) {
	for i := range x {
		b := cfg.bound(i)
		if b.isFull() {
			x[i] = randFiniteFloat(rng)
		} else {
			x[i] = b.Lo + rng.Float64()*(b.Hi-b.Lo)
		}
	}
}

// randFiniteFloat returns a float64 drawn uniformly over the finite
// non-NaN bit patterns. This gives every exponent equal mass, which is
// the right prior for floating-point analysis problems.
func randFiniteFloat(rng *rand.Rand) float64 {
	for {
		v := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

// clampInto projects x into the configured bounds in place.
func clampInto(x []float64, cfg Config) {
	for i := range x {
		x[i] = cfg.bound(i).Clamp(x[i])
	}
}
