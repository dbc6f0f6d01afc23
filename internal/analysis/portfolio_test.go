package analysis_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/instrument"
	"repro/internal/opt"
)

// TestPortfolioDeterminism is the acceptance pin of the portfolio
// scheduler: through the registry Spec path (backend=portfolio, its
// plateau detector escalating at the default stall window), the
// analyses must report bit-identical findings for every worker count —
// the same table contract the fixed backends satisfy, now with the
// scheduler's probe/race/early-exit machinery in the loop.
func TestPortfolioDeterminism(t *testing.T) {
	p := compileFig2(t)
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}

	runSpec := func(t *testing.T, spec analysis.Spec, workers int) analysis.Report {
		t.Helper()
		a, err := analysis.Lookup(spec.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		spec.Workers = workers
		rep, err := a.Run(context.Background(), analysis.Input{Program: p}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	specs := []analysis.Spec{
		{Analysis: "bva", Seed: 11, Starts: 6, Evals: 1200,
			Backend: "portfolio", Bounds: bounds},
		{Analysis: "coverage", Seed: 12, Evals: 1200, Stall: 4,
			Backend: "portfolio", Bounds: bounds},
		{Analysis: "reach", Seed: 14, Starts: 6, Evals: 2000,
			Backend: "portfolio", Bounds: bounds,
			Path: []instrument.Decision{{Site: 0, Taken: true}, {Site: 1, Taken: false}}},
	}
	for _, spec := range specs {
		t.Run(spec.Analysis, func(t *testing.T) {
			base := runSpec(t, spec, 1)
			for _, workers := range []int{3, 4} {
				got := runSpec(t, spec, workers)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("workers=%d diverged from one worker:\n%+v\n%+v",
						workers, base, got)
				}
			}
		})
	}
}
