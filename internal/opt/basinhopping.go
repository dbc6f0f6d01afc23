package opt

import (
	"math"
	"math/rand"
)

// Basinhopping is the paper's primary MO backend (§4.4, Algorithm 3 step
// 5): a Markov-chain Monte Carlo sampling over the space of local minimum
// points (Li & Scheraga 1987; Wales & Doye 1998). Each hop perturbs the
// current point, runs a local minimization (Nelder–Mead by default), and
// accepts or rejects the resulting local minimum with the Metropolis
// criterion.
//
// Perturbations mix two move kinds, both required for floating-point
// analysis objectives:
//
//   - additive jitter relative to the current magnitude, exploring the
//     current basin's neighborhood, and
//   - exponent jumps (multiply by 2^±k) plus occasional full-lattice
//     resets, letting the chain traverse the 600-binade dynamic range of
//     binary64 (boundary conditions at 1e-8, overflows at 1e308).
//
// The zero value is ready to use.
type Basinhopping struct {
	// Local is the inner minimizer; nil selects a default Nelder–Mead.
	Local LocalMinimizer
	// Temperature for the Metropolis acceptance; zero selects 1.0.
	Temperature float64
	// StepScale is the relative additive perturbation size; zero
	// selects 0.5.
	StepScale float64
	// HopEvals is the local-search budget per hop; zero selects 250 per
	// dimension.
	HopEvals int
}

// Name implements Minimizer.
func (b *Basinhopping) Name() string { return "Basinhopping" }

func (b *Basinhopping) local() LocalMinimizer {
	if b.Local != nil {
		return b.Local
	}
	return &NelderMead{}
}

func (b *Basinhopping) temperature() float64 {
	if b.Temperature == 0 {
		return 1.0
	}
	return b.Temperature
}

func (b *Basinhopping) stepScale() float64 {
	if b.StepScale == 0 {
		return 0.5
	}
	return b.StepScale
}

// Minimize implements Minimizer.
func (b *Basinhopping) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed)
	return b.MinimizeFrom(obj, randPoint(rng, dim, cfg), cfg)
}

// MinimizeFrom implements LocalMinimizer: basinhopping started from a
// specific point, as Algorithm 3 step 5 requires
// (`Basinhopping(W, s)` from a chosen starting point s).
func (b *Basinhopping) MinimizeFrom(obj Objective, x0 []float64, cfg Config) Result {
	dim := len(x0)
	rng := newRand(cfg.Seed ^ 0x5deece66d)
	e := newEvaluator(obj, cfg, 4000*dim)

	hopEvals := b.HopEvals
	if hopEvals == 0 {
		hopEvals = 250 * dim
	}
	nm, isNM := b.local().(*NelderMead)
	var scr *nmScratch
	if isNM {
		scr = newNMScratch(dim)
	}

	// localSearch refines x under the shared evaluator budget, leaving
	// the refined point in dst (so the hop loop can ping-pong two
	// persistent buffers instead of allocating per hop).
	localSearch := func(x, dst []float64) float64 {
		remaining := e.max - e.evals
		if remaining <= 0 {
			copy(dst, x)
			return math.Inf(1)
		}
		budget := hopEvals
		if budget > remaining {
			budget = remaining
		}
		if isNM {
			// Run Nelder–Mead against the shared evaluator directly so
			// the trace, budget, and scratch stay unified.
			saved := e.max
			e.max = e.evals + budget
			nm.run(e, x, cfg, scr)
			e.max = saved
			copy(dst, e.bestX)
			return e.bestF
		}
		sub := cfg
		sub.MaxEvals = budget
		sub.Trace = cfg.Trace
		r := b.local().MinimizeFrom(func(y []float64) float64 {
			return e.eval(y)
		}, x, sub)
		copy(dst, r.X)
		return r.F
	}

	cur := make([]float64, dim)
	copy(cur, x0)
	clampInto(cur, cfg)
	candX := make([]float64, dim)
	pert := make([]float64, dim)
	curF := localSearch(cur, candX)
	cur, candX = candX, cur

	T := b.temperature()
	hops := 0
	for !e.done() {
		hops++
		b.perturb(rng, cur, cfg, pert)
		candF := localSearch(pert, candX)
		if e.hitZero {
			break
		}
		// Metropolis acceptance over local minima.
		if candF <= curF || rng.Float64() < math.Exp(-(candF-curF)/T) {
			cur, candX = candX, cur
			curF = candF
		}
	}
	return e.result(hops)
}

// perturb writes the next MCMC proposal from x into out.
func (b *Basinhopping) perturb(rng *rand.Rand, x []float64, cfg Config, out []float64) {
	copy(out, x)
	scale := b.stepScale()
	for i := range out {
		switch kind := rng.Float64(); {
		case kind < 0.15:
			// Full lattice reset for this coordinate: global restart
			// pressure, keeps the chain irreducible over all exponents.
			bd := cfg.bound(i)
			if bd.isFull() {
				out[i] = randFiniteFloat(rng)
			} else {
				out[i] = bd.Lo + rng.Float64()*(bd.Hi-bd.Lo)
			}
		case kind < 0.45:
			// Exponent jump: multiply by 2^±k, k ∈ [1, 64]; also flips
			// sign occasionally to cross zero.
			k := 1 + rng.Intn(64)
			factor := math.Ldexp(1, k)
			if rng.Intn(2) == 0 {
				factor = 1 / factor
			}
			v := out[i] * factor
			if v == 0 || math.IsInf(v, 0) {
				v = randFiniteFloat(rng)
			}
			if rng.Float64() < 0.1 {
				v = -v
			}
			out[i] = v
		default:
			// Additive jitter relative to magnitude (plus an absolute
			// floor so zero coordinates can move).
			mag := math.Abs(out[i])
			h := scale * (mag + 1)
			out[i] += (2*rng.Float64() - 1) * h
		}
	}
	clampInto(out, cfg)
}
