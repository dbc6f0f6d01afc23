package opt

// RandomSearch samples points independently at random. It is the
// degenerate strategy a flat (characteristic-function) weak distance
// forces every backend into (paper §5.3, Fig. 7, Limitation 3), included
// both as a baseline and for the Fig. 7 ablation.
//
// The zero value is ready to use.
type RandomSearch struct{}

// Name implements Minimizer.
func (r *RandomSearch) Name() string { return "RandomSearch" }

// Minimize implements Minimizer.
func (r *RandomSearch) Minimize(obj Objective, dim int, cfg Config) Result {
	rng := newRand(cfg.Seed ^ 0x2545f4914f6cdd1d)
	e := newEvaluator(obj, cfg, 4000*dim)
	iters := 0
	for !e.done() {
		iters++
		e.eval(randPoint(rng, dim, cfg))
	}
	return e.result(iters)
}

// MinimizeFrom implements LocalMinimizer; the start point only provides
// the first sample (random search has no locality).
func (r *RandomSearch) MinimizeFrom(obj Objective, x0 []float64, cfg Config) Result {
	rng := newRand(cfg.Seed ^ 0x2545f4914f6cdd1d)
	e := newEvaluator(obj, cfg, 4000*len(x0))
	x := make([]float64, len(x0))
	copy(x, x0)
	clampInto(x, cfg)
	e.eval(x)
	iters := 1
	for !e.done() {
		iters++
		e.eval(randPoint(rng, len(x0), cfg))
	}
	return e.result(iters)
}
