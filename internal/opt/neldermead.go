package opt

import (
	"math"
)

// NelderMead is the derivative-free downhill-simplex local minimizer
// (Nelder & Mead 1965). It serves as the inner local search of
// Basinhopping and is exposed as a standalone LocalMinimizer.
//
// The zero value is ready to use.
type NelderMead struct{}

// The standard simplex coefficients: reflection alpha, expansion gamma,
// contraction rho and shrink sigma; the initial simplex edge relative
// to |x0| (with an absolute floor); and the relative spread below which
// the search stops.
const (
	nmAlpha = 1.0
	nmGamma = 2.0
	nmRho   = 0.5
	nmSigma = 0.5
	nmStep  = 0.05
	nmFTol  = 1e-12
)

// Name implements LocalMinimizer.
func (nm *NelderMead) Name() string { return "NelderMead" }

type vertex struct {
	x []float64
	f float64
}

// nmScratch holds every working vector of one simplex search so that
// repeated runs (Basinhopping performs one per hop) and the iterations
// within a run allocate nothing: steady-state minimization performs
// zero heap allocations per objective evaluation.
type nmScratch struct {
	simplex  []vertex // dim+1 vertices with preallocated coordinate slices
	centroid []float64
	xr       []float64   // reflection point
	xe       []float64   // expansion point
	xc       []float64   // contraction point
	batchX   [][]float64 // gathered vertex pointers for polls
	batchF   []float64   // poll values
}

func newNMScratch(dim int) *nmScratch {
	s := &nmScratch{
		simplex:  make([]vertex, dim+1),
		centroid: make([]float64, dim),
		xr:       make([]float64, dim),
		xe:       make([]float64, dim),
		xc:       make([]float64, dim),
		batchX:   make([][]float64, dim+1),
		batchF:   make([]float64, dim+1),
	}
	for i := range s.simplex {
		s.simplex[i].x = make([]float64, dim)
	}
	return s
}

// MinimizeFrom implements LocalMinimizer.
func (nm *NelderMead) MinimizeFrom(obj Objective, x0 []float64, cfg Config) Result {
	e := newEvaluator(obj, cfg, 200*len(x0)+400)
	r := nm.run(e, x0, cfg, newNMScratch(len(x0)))
	return r
}

// run performs the simplex iteration against a shared evaluator so that
// Basinhopping can chain multiple local searches under one budget (and
// one reusable scratch). It returns the evaluator result snapshot after
// this local search.
func (nm *NelderMead) run(e *evaluator, x0 []float64, cfg Config, scr *nmScratch) Result {
	dim := len(x0)

	// Initial simplex: x0 plus dim perturbed vertices, re-seeded into
	// the scratch vertices and then scored as one poll. Perturbation is
	// relative so the simplex is meaningful at any magnitude (1e-300 or
	// 1e300 alike).
	simplex := scr.simplex
	for i := 0; i <= dim; i++ {
		v := &simplex[i]
		copy(v.x, x0)
		if i > 0 {
			h := nmStep * math.Abs(v.x[i-1])
			if h == 0 {
				h = nmStep
			}
			v.x[i-1] += h
		}
		clampInto(v.x, cfg)
		scr.batchX[i] = v.x
	}
	n := e.evalBatch(scr.batchX, scr.batchF)
	for i := 0; i < n; i++ {
		simplex[i].f = scr.batchF[i]
	}
	if n <= dim {
		// Budget exhausted mid-seeding, exactly where the serial loop
		// would have bailed.
		return e.result(0)
	}

	centroid, xr, xe, xc := scr.centroid, scr.xr, scr.xe, scr.xc

	iters := 0
	for !e.done() {
		iters++
		sortSimplex(simplex)
		best, worst := simplex[0], simplex[dim]
		spread := worst.f - best.f
		// Relative termination: keep refining while the spread is large
		// compared to the best value, so weak distances are pushed all
		// the way toward zero instead of stalling at an absolute floor.
		if spread <= nmFTol*math.Abs(best.f) || math.IsNaN(spread) {
			break
		}

		// Centroid of all but the worst vertex.
		for j := 0; j < dim; j++ {
			centroid[j] = 0
			for i := 0; i < dim; i++ {
				centroid[j] += simplex[i].x[j]
			}
			centroid[j] /= float64(dim)
		}

		// Reflection.
		for j := 0; j < dim; j++ {
			xr[j] = centroid[j] + nmAlpha*(centroid[j]-worst.x[j])
		}
		clampInto(xr, cfg)
		fr := e.eval(xr)
		switch {
		case fr < best.f:
			// Expansion.
			if e.done() {
				copyVertex(&simplex[dim], xr, fr)
				break
			}
			for j := 0; j < dim; j++ {
				xe[j] = centroid[j] + nmGamma*(xr[j]-centroid[j])
			}
			clampInto(xe, cfg)
			fe := e.eval(xe)
			if fe < fr {
				copyVertex(&simplex[dim], xe, fe)
			} else {
				copyVertex(&simplex[dim], xr, fr)
			}
		case fr < simplex[dim-1].f:
			copyVertex(&simplex[dim], xr, fr)
		default:
			// Contraction (outside if fr improved on the worst, inside
			// otherwise).
			ref := worst
			if fr < worst.f {
				ref = vertex{x: xr, f: fr}
			}
			for j := 0; j < dim; j++ {
				xc[j] = centroid[j] + nmRho*(ref.x[j]-centroid[j])
			}
			clampInto(xc, cfg)
			if e.done() {
				break
			}
			fc := e.eval(xc)
			if fc < ref.f {
				copyVertex(&simplex[dim], xc, fc)
			} else {
				// Shrink toward the best vertex: move all dim positions
				// in place, then score them as one poll. A
				// position whose evaluation the budget cut off keeps its
				// old f; the outer loop exits via done() immediately and
				// the result comes from the evaluator's best-point
				// tracking, so the stale pairing is unobservable.
				for i := 1; i <= dim; i++ {
					for j := 0; j < dim; j++ {
						simplex[i].x[j] = best.x[j] + nmSigma*(simplex[i].x[j]-best.x[j])
					}
					clampInto(simplex[i].x, cfg)
					scr.batchX[i-1] = simplex[i].x
				}
				n := e.evalBatch(scr.batchX[:dim], scr.batchF[:dim])
				for i := 0; i < n; i++ {
					simplex[i+1].f = scr.batchF[i]
				}
			}
		}
	}
	// Discrete final phase: land exactly on lattice minima (weak
	// distances have exact zeros on F^N).
	latticePolish(e, cfg)
	return e.result(iters)
}

// sortSimplex orders vertices by ascending f. Insertion sort over the
// dim+1 entries: allocation-free (sort.Slice is not) and fastest at the
// tiny sizes simplices have.
func sortSimplex(s []vertex) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j].f > v.f {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func copyVertex(v *vertex, x []float64, f float64) {
	copy(v.x, x)
	v.f = f
}

// Minimize implements Minimizer by running one local search from a random
// start point — mainly useful in tests; global users should prefer
// Basinhopping or DifferentialEvolution.
func (nm *NelderMead) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed)
	return nm.MinimizeFrom(obj, randPoint(rng, dim, cfg), cfg)
}
