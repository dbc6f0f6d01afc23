package repro

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gsl"
	"repro/internal/instrument"
	"repro/internal/libm"
	"repro/internal/opt"
	"repro/internal/progs"
	"repro/internal/sat"
)

// TestPaperHeadlines asserts the evaluation's headline claims in one
// fast, top-level check (the per-package suites cover the details):
//
//  1. the §1 motivating constraint is satisfiable with the exact model,
//  2. GNU sin's reachable boundary conditions are triggered and the
//     2^1024 pair is not,
//  3. Algorithm 3 drives the documented Bessel operations to overflow,
//  4. both confirmed GSL Airy bugs manifest with GSL_SUCCESS status.
func TestPaperHeadlines(t *testing.T) {
	// (1) XSat on the motivating constraint.
	f, _, err := sat.Parse("x < 1 && x + 1 >= 2")
	if err != nil {
		t.Fatal(err)
	}
	sr := sat.Solve(context.Background(), f, core.Options{Seed: 1, Bounds: []opt.Bound{{Lo: -4, Hi: 4}}}, false)
	if sr.Verdict != sat.Sat || sr.Model[0] != 0.9999999999999999 {
		t.Errorf("motivating constraint: %+v", sr)
	}

	// (2) sin boundary conditions (reduced budget; full run in
	// internal/paper).
	rep, err := analysis.BoundaryValues(context.Background(), libm.SinProgram(), analysis.Spec{
		Seed: 1, Starts: 48, Evals: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for site := 0; site < 4; site++ {
		for _, neg := range []bool{false, true} {
			if rep.Condition(site, neg) != nil {
				reached++
			}
		}
	}
	if reached != 8 {
		t.Errorf("sin: reached %d/8 boundary conditions", reached)
	}
	if rep.Condition(4, false) != nil || rep.Condition(4, true) != nil {
		t.Error("sin: the 2^1024 boundary must be unreachable")
	}

	// (3) The paper's spot Bessel overflows.
	p := gsl.BesselProgram()
	m := instrument.NewOverflow()
	p.Execute(m, []float64{3.2e157, 5.3e1})
	if m.Value() != 0 || m.LastSite() != gsl.BesselOpMu2 {
		t.Error("bessel: nu=3.2e157 must overflow l2")
	}

	// (4) Airy bugs.
	if res, st := gsl.AiryAi(-1.8427611519777440); !gsl.Inconsistent(res, st) {
		t.Errorf("Bug 1 does not manifest: %+v %v", res, st)
	}
	if res, st := gsl.AiryAi(-1.14e34); st != gsl.Success || (res.Val >= -1 && res.Val <= 1) {
		t.Errorf("Bug 2 does not manifest: %+v %v", res, st)
	}

	// Bonus: Fig. 2's assertion analysis end to end.
	r, err := analysis.ReachPath(context.Background(), progs.Fig1a(), analysis.Spec{
		Seed: 1, Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
		Path: []instrument.Decision{
			{Site: progs.Fig1BranchLT1, Taken: true},
			{Site: progs.Fig1BranchLT2, Taken: false},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.X[0] != 0.9999999999999999 {
		t.Errorf("Fig. 1(a) violation: %v", r)
	}
}
