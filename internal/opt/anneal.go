package opt

import (
	"math"
)

// SimulatedAnnealing is a classic Metropolis annealer with geometric
// cooling. It is not used by the paper, but the reduction theory treats
// backends as interchangeable black boxes (§4.1) — this one exists to
// demonstrate exactly that: any sampler with the Minimizer contract
// plugs into every analysis unchanged.
//
// Moves reuse Basinhopping's float-aware proposal mixture (additive
// jitter, exponent jumps, lattice resets) so the annealer can traverse
// the full binary64 dynamic range.
//
// Each chain starts at a temperature adapted from its first samples and
// cools geometrically; the budget is split over a fixed number of
// reheated chains.
//
// The zero value is ready to use.
type SimulatedAnnealing struct{}

// The annealer's fixed tuning: the geometric cooling factor per step
// and the number of chains (restarts) across the budget.
const (
	saCooling  = 0.999
	saRestarts = 4
)

// Name implements Minimizer.
func (sa *SimulatedAnnealing) Name() string { return "SimulatedAnnealing" }

// Minimize implements Minimizer.
func (sa *SimulatedAnnealing) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed ^ 0x3c6ef372fe94f82b)
	e := newEvaluator(obj, cfg, 4000*dim)
	// Split the budget across restarts and reserve a slice for the
	// final lattice polish, so a slow cooling schedule cannot starve
	// either.
	searchBudget := e.max * 9 / 10
	perRestart := searchBudget / saRestarts
	if perRestart < 1 {
		perRestart = 1
	}
	iters := 0
	cand := make([]float64, dim)   // proposal buffer, ping-ponged with cur
	probeX := make([][]float64, 8) // perturbation probe pool, reused per restart
	for i := range probeX {
		probeX[i] = make([]float64, dim)
	}
	probeF := make([]float64, 8)
	for r := 0; r < saRestarts && !e.done() && e.evals < searchBudget; r++ {
		restartCap := e.evals + perRestart
		cur := randPoint(rng, dim, cfg)
		clampInto(cur, cfg)
		curF := e.eval(cur)

		// Adaptive initial temperature: the spread of a pool of probe
		// moves, all perturbed from the frozen restart point and then
		// scored. The chain starts from the best probe.
		for i := range probeX {
			perturb(rng, cur, cfg, probeX[i])
		}
		n := e.evalBatch(probeX, probeF)
		ref := curF
		spread := 0.0
		probes := 0
		bestI := -1
		for i := 0; i < n; i++ {
			f := probeF[i]
			if !math.IsInf(f, 0) && !math.IsInf(ref, 0) {
				spread += math.Abs(f - ref)
				probes++
			}
			if f < curF {
				curF = f
				bestI = i
			}
		}
		if bestI >= 0 {
			copy(cur, probeX[bestI])
		}
		T := 0.0
		if probes > 0 {
			T = spread / float64(probes)
		}
		if T == 0 || math.IsNaN(T) {
			T = 1
		}

		for !e.done() && e.evals < restartCap {
			iters++
			perturb(rng, cur, cfg, cand)
			f := e.eval(cand)
			if f <= curF || rng.Float64() < math.Exp(-(f-curF)/T) {
				cur, cand = cand, cur
				curF = f
			}
			T *= saCooling
			if T < 1e-300 {
				break // frozen: next restart
			}
		}
	}
	// Final discrete refinement from the best point seen.
	latticePolish(e, cfg)
	return e.result(iters)
}
