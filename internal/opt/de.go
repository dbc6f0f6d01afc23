package opt

import (
	"math"
	"math/rand"
)

// DifferentialEvolution is the rand/1/bin variant of Storn's differential
// evolution (Storn 1999), the second backend in the paper's Table 1
// sanity check: an evolutionary direct-search strategy maintaining a
// population of candidate points.
//
// The implementation is generation-synchronous: every generation builds
// all np trial vectors from the frozen current population, evaluates
// them in order, and only then applies selection. This is classic DE
// (the steady-state variant that folds each trial in immediately is a
// common serial micro-optimization).
//
// The zero value is ready to use.
type DifferentialEvolution struct {
	// PopSize is the population size; zero selects max(15*dim, 30).
	PopSize int
	// F is the differential weight; zero selects 0.7.
	F float64
	// CR is the crossover probability; zero selects 0.9.
	CR float64
	// InitSpan bounds the initial population when the search range is
	// the full float lattice; zero keeps full-lattice initialization.
	// (Table 1 reproduces SciPy-like behaviour with linear-range
	// initialization, which is why DE tends to miss isolated zeros.)
	InitSpan float64
}

// Name implements Minimizer.
func (de *DifferentialEvolution) Name() string { return "DifferentialEvolution" }

// Minimize implements Minimizer.
func (de *DifferentialEvolution) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed ^ 0x1e3779b97f4a7c15)
	e := newEvaluator(obj, cfg, 4000*dim)

	np := de.PopSize
	if np == 0 {
		np = 15 * dim
		if np < 30 {
			np = 30
		}
	}
	F := de.F
	if F == 0 {
		F = 0.7
	}
	CR := de.CR
	if CR == 0 {
		CR = 0.9
	}

	// Initialize the population, then score it.
	// Members left unevaluated by an exhausted budget keep +Inf fitness
	// so any later trial can replace them.
	pop := make([][]float64, np)
	fit := make([]float64, np)
	for i := range pop {
		if de.InitSpan > 0 {
			pop[i] = make([]float64, dim)
			for j := range pop[i] {
				b := cfg.bound(j)
				lo, hi := b.Lo, b.Hi
				if b.isFull() {
					lo, hi = -de.InitSpan, de.InitSpan
				}
				pop[i][j] = lo + rng.Float64()*(hi-lo)
			}
		} else {
			pop[i] = randPoint(rng, dim, cfg)
		}
	}
	n := e.evalBatch(pop, fit)
	for i := n; i < np; i++ {
		fit[i] = math.Inf(1)
	}

	trials := make([][]float64, np)
	for i := range trials {
		trials[i] = make([]float64, dim)
	}
	ftr := make([]float64, np)
	gens := 0
	for !e.done() {
		gens++
		// Mutation + crossover for the whole generation, against the
		// frozen population, then evaluation, then selection over the
		// evaluated prefix.
		for i := 0; i < np; i++ {
			// Pick three distinct members a, b, c != i.
			a, b, c := distinct3(rng, np, i)
			jr := rng.Intn(dim)
			t := trials[i]
			for j := 0; j < dim; j++ {
				if j == jr || rng.Float64() < CR {
					t[j] = pop[a][j] + F*(pop[b][j]-pop[c][j])
				} else {
					t[j] = pop[i][j]
				}
			}
			clampInto(t, cfg)
		}
		n := e.evalBatch(trials, ftr)
		for i := 0; i < n; i++ {
			if ftr[i] <= fit[i] {
				copy(pop[i], trials[i])
				fit[i] = ftr[i]
			}
		}
	}
	return e.result(gens)
}

// distinct3 returns three distinct indices in [0,n) all different from
// i, by rejection sampling. Written without closures or variadics: it
// runs once per population member per generation and must not allocate.
func distinct3(rng *rand.Rand, n, i int) (int, int, int) {
	a := i
	for a == i {
		a = rng.Intn(n)
	}
	b := i
	for b == i || b == a {
		b = rng.Intn(n)
	}
	c := i
	for c == i || c == a || c == b {
		c = rng.Intn(n)
	}
	return a, b, c
}
