package opt

import (
	"fmt"
	"math"
	"testing"
)

// The minimizers of the analysis hot path must not allocate per
// objective evaluation in steady state: their eval budgets are the unit
// every analysis is denominated in, so per-sample garbage multiplies
// into every table and figure. Allocations are allowed at run start
// (scratch setup) — the test bounds the amortized per-eval rate well
// below one.

func steadyObjective(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v - 1.5)
	}
	return s
}

func TestSteadyStateAllocs(t *testing.T) {
	const evals = 4000
	cases := []struct {
		name string
		m    Minimizer
	}{
		{"NelderMead", &NelderMead{}},
		{"Powell", &Powell{}},
		{"Basinhopping", &Basinhopping{}},
		{"SimulatedAnnealing", &SimulatedAnnealing{}},
		{"DifferentialEvolution", &DifferentialEvolution{}},
		{"RandomSearch", &RandomSearch{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Seed: 1, MaxEvals: evals,
				Bounds: []Bound{{Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}}}
			avg := testing.AllocsPerRun(5, func() {
				c.m.Minimize(steadyObjective, 2, cfg)
			})
			perEval := avg / evals
			if perEval > 0.05 {
				t.Errorf("%s: %.1f allocs per run (%.4f per eval), want ~0 per eval",
					c.name, avg, perEval)
			}
		})
	}
}

// BenchmarkMinimizerEvalOverhead reports the cost of each backend's
// bookkeeping (the objective itself is trivial), with allocations
// visible via -benchmem.
func BenchmarkMinimizerEvalOverhead(b *testing.B) {
	for _, c := range []struct {
		name string
		m    Minimizer
	}{
		{"NelderMead", &NelderMead{}},
		{"Powell", &Powell{}},
		{"Basinhopping", &Basinhopping{}},
	} {
		// 30 evaluations is a served job's per-round budget: there the
		// per-start fixed cost (RNG seeding, evaluator and scratch set-up)
		// dominates; 4000 shows the steady state.
		for _, evals := range []int{30, 4000} {
			b.Run(fmt.Sprintf("%s/evals=%d", c.name, evals), func(b *testing.B) {
				b.ReportAllocs()
				cfg := Config{Seed: 1, MaxEvals: evals,
					Bounds: []Bound{{Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}}}
				for i := 0; i < b.N; i++ {
					c.m.Minimize(steadyObjective, 2, cfg)
				}
			})
		}
	}
}
