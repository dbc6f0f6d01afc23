package analysis_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/rt"
)

// Integration tests running every analysis over FPL programs loaded
// from testdata — the full Client → Reduction Kernel pipeline with
// automatic instrumentation.

func loadTestdata(t *testing.T, name, fn string) (*interp.Interp, *rt.Program) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ir.Compile(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	it := interp.New(mod)
	p, err := it.Program(fn)
	if err != nil {
		t.Fatal(err)
	}
	return it, p
}

func TestFPLFig2FullPipeline(t *testing.T) {
	_, p := loadTestdata(t, "fig2.fpl", "prog")
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}

	// Boundary values.
	rep, err := analysis.BoundaryValues(context.Background(), p, analysis.Spec{Seed: 1, Starts: 8, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundaryValues == 0 || rep.SoundnessViolations != 0 {
		t.Errorf("BVA: %+v", rep)
	}

	// Coverage: all four sides coverable.
	cov, err := analysis.Cover(context.Background(), p, analysis.Spec{Seed: 2, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Ratio() != 1 {
		t.Errorf("coverage %v of %d sides", cov.Ratio(), cov.Total)
	}

	// Overflow on the interpreted program: the x*x op can overflow.
	ov, err := analysis.DetectOverflows(context.Background(), p, analysis.Spec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Findings) == 0 {
		t.Error("no overflow on interpreted fig2")
	}
}

func TestFPLAssertionViolation(t *testing.T) {
	it, p := loadTestdata(t, "assertion.fpl", "prog")
	r, err := analysis.ReachPath(context.Background(), p, analysis.Spec{
		Seed: 4, Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
		Path: []instrument.Decision{
			{Site: 0, Taken: true},
			{Site: 1, Taken: false},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("no violation found: %v", r)
	}
	it.ClearFailures()
	if _, err := it.Run("prog", r.X); err != nil {
		t.Fatal(err)
	}
	if len(it.Failures) != 1 {
		t.Errorf("replay produced %d assertion failures", len(it.Failures))
	}
}

func TestFPLNewtonLoop(t *testing.T) {
	it, p := loadTestdata(t, "newton.fpl", "newton_sqrt")
	// Semantics: the interpreted Newton iteration computes sqrt.
	for _, a := range []float64{2, 9, 100, 1e6} {
		got, err := it.Run("newton_sqrt", []float64{a})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-math.Sqrt(a)) > 1e-6*math.Sqrt(a) {
			t.Errorf("newton_sqrt(%v) = %v, want %v", a, got, math.Sqrt(a))
		}
	}
	// Reachability of the early-convergence return (site order: the
	// z < 1 guard, the loop condition, the fabs(diff) <= 1e-12 test).
	// Find the convergence-test site by label.
	convSite := -1
	for _, b := range p.Branches {
		if strings.Contains(b.Label, "fabs(diff) <= 1e-12") {
			convSite = b.ID
		}
	}
	if convSite < 0 {
		t.Fatalf("convergence site not found among %v", p.Branches)
	}
	r, err := analysis.ReachPath(context.Background(), p, analysis.Spec{
		Seed: 5, Bounds: []opt.Bound{{Lo: 0.5, Hi: 1e6}},
		Path: []instrument.Decision{{Site: convSite, Taken: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Errorf("convergence branch unreached: %v", r)
	}
}

func TestFPLSum3Associativity(t *testing.T) {
	it, p := loadTestdata(t, "sum3.fpl", "prog")
	// Reach the left != right branch — possible only through rounding
	// (§1's associativity example), invisible to real-arithmetic
	// reasoning.
	neqSite := -1
	for _, b := range p.Branches {
		if strings.Contains(b.Label, "left != right") {
			neqSite = b.ID
		}
	}
	if neqSite < 0 {
		t.Fatalf("site not found: %v", p.Branches)
	}
	r, err := analysis.ReachPath(context.Background(), p, analysis.Spec{
		Seed:   6,
		Bounds: []opt.Bound{{Lo: -10, Hi: 10}, {Lo: -10, Hi: 10}, {Lo: -10, Hi: 10}},
		Path:   []instrument.Decision{{Site: neqSite, Taken: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("rounding-only branch unreached: %v", r)
	}
	// Verify concretely.
	a, b, c := r.X[0], r.X[1], r.X[2]
	if (a+b)+c == a+(b+c) {
		t.Errorf("witness %v does not break associativity", r.X)
	}
	_ = it
}

func TestFPLSinFig8Dispatch(t *testing.T) {
	// The paper's Fig. 8 (simplified GNU sin) expressed in FPL via the
	// highword builtin: boundary value analysis over the DSL-compiled
	// program must trigger the four reachable dispatch thresholds and
	// never the 2^1024 one — the §6.2 result, entirely through the
	// automatic instrumentation pipeline.
	it, p := loadTestdata(t, "sin_fig8.fpl", "sin_dispatch")

	// Semantics cross-check against the native key computation.
	for _, x := range []float64{0, 1e-9, 0.5, 2.0, 100.0, 1e9} {
		got, err := it.Run("sin_dispatch", []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-math.Sin(x)) > 1e-2 {
			t.Errorf("sin_dispatch(%v) = %v, want ≈ %v", x, got, math.Sin(x))
		}
	}

	rep, err := analysis.BoundaryValues(context.Background(), p, analysis.Spec{
		Seed: 7, Starts: 48, Evals: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SoundnessViolations != 0 {
		t.Errorf("%d soundness violations", rep.SoundnessViolations)
	}
	// Collect which thresholds were hit (branch sites are the five
	// k < c comparisons, in source order).
	thresholds := map[int]bool{}
	for _, c := range rep.Conditions {
		thresholds[c.Key.Site] = true
	}
	for site := 0; site < 4; site++ {
		if !thresholds[site] {
			t.Errorf("dispatch threshold %d not triggered (conditions: %v)", site, thresholds)
		}
	}
	if thresholds[4] {
		t.Error("the 2^1024 threshold must be unreachable for finite inputs")
	}
}
