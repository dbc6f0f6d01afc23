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
// The zero value is ready to use.
type SimulatedAnnealing struct {
	// InitTemp is the starting temperature; zero selects an adaptive
	// value from the first samples.
	InitTemp float64
	// Cooling is the geometric factor per step; zero selects 0.999.
	Cooling float64
	// Restarts reheats the chain this many times across the budget;
	// zero selects 4.
	Restarts int
}

// Name implements Minimizer.
func (sa *SimulatedAnnealing) Name() string { return "SimulatedAnnealing" }

func (sa *SimulatedAnnealing) cooling() float64 {
	if sa.Cooling == 0 {
		return 0.999
	}
	return sa.Cooling
}

func (sa *SimulatedAnnealing) restarts() int {
	if sa.Restarts == 0 {
		return 4
	}
	return sa.Restarts
}

// Minimize implements Minimizer.
func (sa *SimulatedAnnealing) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed ^ 0x3c6ef372fe94f82b)
	e := newEvaluator(obj, cfg, 4000*dim)
	moves := &Basinhopping{} // reuse the proposal mixture

	restarts := sa.restarts()
	// Split the budget across restarts and reserve a slice for the
	// final lattice polish, so a slow cooling schedule cannot starve
	// either.
	searchBudget := e.max * 9 / 10
	perRestart := searchBudget / restarts
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
	for r := 0; r < restarts && !e.done() && e.evals < searchBudget; r++ {
		restartCap := e.evals + perRestart
		cur := randPoint(rng, dim, cfg)
		clampInto(cur, cfg)
		curF := e.eval(cur)

		// Adaptive initial temperature: the spread of a pool of probe
		// moves, all perturbed from the frozen restart point and scored
		// as one batch (the perturbation-probe lane filler). The chain
		// then starts from the best probe, which is where the old
		// greedy serial walk ended up whenever it mattered.
		T := sa.InitTemp
		if T == 0 {
			for i := range probeX {
				moves.perturb(rng, cur, cfg, probeX[i])
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
			if probes > 0 {
				T = spread / float64(probes)
			}
			if T == 0 || math.IsNaN(T) {
				T = 1
			}
		}

		cool := sa.cooling()
		for !e.done() && e.evals < restartCap {
			iters++
			moves.perturb(rng, cur, cfg, cand)
			f := e.eval(cand)
			if f <= curF || rng.Float64() < math.Exp(-(f-curF)/T) {
				cur, cand = cand, cur
				curF = f
			}
			T *= cool
			if T < 1e-300 {
				break // frozen: next restart
			}
		}
	}
	// Final discrete refinement from the best point seen.
	latticePolish(e, cfg)
	return e.result(iters)
}
