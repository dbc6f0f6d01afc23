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
	}
	for _, c := range cases {
		// A traced search (Config.Trace) must stay under the same bound:
		// recording a sample is two amortized appends.
		for _, traced := range []bool{false, true} {
			name := c.name
			if traced {
				name += "Traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Seed: 1, MaxEvals: evals,
					Bounds: []Bound{{Lo: -100, Hi: 100}, {Lo: -100, Hi: 100}}}
				avg := testing.AllocsPerRun(5, func() {
					if traced {
						cfg.Trace = &Trace{}
					}
					c.m.Minimize(steadyObjective, 2, cfg)
				})
				perEval := avg / evals
				if perEval > 0.05 {
					t.Errorf("%s: %.1f allocs per run (%.4f per eval), want ~0 per eval",
						name, avg, perEval)
				}
			})
		}
	}
}

// TestSteadyStateAllocsBatch pins the same bound for the batched
// evaluation path: with Config.Batch set, the evalBatch fold and the
// backends' batch assembly (DE generations, Nelder–Mead polls,
// annealing probe pools) must stay allocation-free in steady state.
func TestSteadyStateAllocsBatch(t *testing.T) {
	const evals = 4000
	batch := BatchFunc(func(xs [][]float64, out []float64) {
		for i, x := range xs {
			out[i] = steadyObjective(x)
		}
	})
	cases := []struct {
		name string
		m    Minimizer
	}{
		{"DifferentialEvolution", &DifferentialEvolution{}},
		{"NelderMead", &NelderMead{}},
		{"Basinhopping", &Basinhopping{}},
		{"SimulatedAnnealing", &SimulatedAnnealing{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Seed: 1, MaxEvals: evals, Batch: batch,
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
