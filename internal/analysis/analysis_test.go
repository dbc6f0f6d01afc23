package analysis_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/gsl"
	"repro/internal/instrument"
	"repro/internal/libm"
	"repro/internal/opt"
	"repro/internal/progs"
)

func TestBoundaryValuesFig2(t *testing.T) {
	rep, err := analysis.BoundaryValues(context.Background(), progs.Fig2(), analysis.Spec{
		Seed:   1,
		Starts: 8,
		Bounds: []opt.Bound{{Lo: -100, Hi: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundaryValues == 0 {
		t.Fatal("no boundary values found")
	}
	if rep.SoundnessViolations != 0 {
		t.Errorf("%d soundness violations", rep.SoundnessViolations)
	}
	// Both branch sites should be triggered (x=1 hits site 0; -3, 2,
	// 0.99…9 hit site 1).
	sites := map[int]bool{}
	for _, c := range rep.Conditions {
		sites[c.Key.Site] = true
	}
	if !sites[progs.Fig2BranchX] || !sites[progs.Fig2BranchY] {
		t.Errorf("conditions triggered: %+v, want both sites", rep.Conditions)
	}
}

func TestBoundaryValuesAreSound(t *testing.T) {
	// §6.2 check (i): every reported boundary value triggers a boundary
	// condition when replayed. The analysis already replays internally;
	// here we re-verify the retained examples independently.
	p := progs.Fig2()
	rep, err := analysis.BoundaryValues(context.Background(), p, analysis.Spec{
		Seed:   2,
		Starts: 6,
		Bounds: []opt.Bound{{Lo: -50, Hi: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wit := &instrument.BoundaryWitness{}
	for _, c := range rep.Conditions {
		for _, x := range c.Examples {
			p.Execute(wit, x)
			if len(wit.Sites()) == 0 {
				t.Errorf("reported boundary value %v triggers nothing", x)
			}
		}
	}
}

func TestBoundaryProgressMonotone(t *testing.T) {
	rep, err := analysis.BoundaryValues(context.Background(), progs.Fig2(), analysis.Spec{
		Seed:   3,
		Starts: 6,
		Bounds: []opt.Bound{{Lo: -50, Hi: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, pt := range rep.Progress {
		if pt.Conditions != prev+1 {
			t.Fatalf("progress not incremental: %+v", rep.Progress)
		}
		prev = pt.Conditions
	}
}

func TestBoundaryValuesSinAllReachable(t *testing.T) {
	// The §6.2 headline: all 8 reachable boundary conditions of GNU sin
	// are triggered; the ±2^1024 pair is not (unreachable).
	if testing.Short() {
		t.Skip("long-running search")
	}
	rep, err := analysis.BoundaryValues(context.Background(), libm.SinProgram(), analysis.Spec{
		Seed:   4,
		Starts: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 4; site++ {
		for _, neg := range []bool{false, true} {
			c := rep.Condition(site, neg)
			if c == nil {
				t.Errorf("boundary condition site=%d neg=%v not triggered", site, neg)
				continue
			}
			// Reported boundary values must have the right dispatch key.
			for _, x := range c.Examples {
				if libm.KOf(x[0]) != libm.SinThresholds[site] {
					t.Errorf("example %v has k=%#x, want %#x", x[0], libm.KOf(x[0]), libm.SinThresholds[site])
				}
			}
			// And straddle near the reference value (Table 2's min/max).
			ref := libm.SinBoundaryRefs[site]
			lo, hi := math.Abs(c.Min), math.Abs(c.Max)
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi < ref*(1-1e-5) || lo > ref*(1+1e-5) {
				t.Errorf("site %d neg=%v: found range [%g,%g] vs ref %g", site, neg, c.Min, c.Max, ref)
			}
		}
	}
	// The unreachable pair.
	if rep.Condition(4, false) != nil || rep.Condition(4, true) != nil {
		t.Error("the 2^1024 boundary must be unreachable")
	}
	if rep.SoundnessViolations != 0 {
		t.Errorf("%d soundness violations", rep.SoundnessViolations)
	}
}

func TestReachPathFig2(t *testing.T) {
	r, err := analysis.ReachPath(context.Background(), progs.Fig2(), analysis.Spec{
		Seed: 5, Bounds: []opt.Bound{{Lo: -1000, Hi: 1000}},
		Path: []instrument.Decision{
			{Site: progs.Fig2BranchX, Taken: true},
			{Site: progs.Fig2BranchY, Taken: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("path not reached: %v", r)
	}
	if x := r.X[0]; x < -3 || x > 1 {
		t.Errorf("solution %v outside [-3,1]", x)
	}
}

func TestReachPathInfeasible(t *testing.T) {
	// x <= 1 taken and (after x++) y = x*x <= 4 NOT taken requires
	// x in (-inf,-3) ∪ ... wait: x <= 1, then y = (x+1)^2 > 4 → x < -3.
	// That IS feasible. An infeasible target: branch 0 taken and not
	// taken is impossible in one run — use site 0 twice.
	r, err := analysis.ReachPath(context.Background(), progs.Fig2(), analysis.Spec{
		Path: []instrument.Decision{
			{Site: progs.Fig2BranchX, Taken: true},
			{Site: progs.Fig2BranchX, Taken: false}, // site 0 never re-executes
		},
		Seed: 6, Starts: 2, Evals: 2000,
		Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Found {
		t.Errorf("infeasible path reported reachable at %v", r.X)
	}
}

func TestReachEqZeroNeedsULP(t *testing.T) {
	// §5.2: reaching `if (x == 0)` with the real-valued distance works
	// too (distance |x-0|), but the ULP variant must land exactly.
	r, err := analysis.ReachPath(context.Background(), progs.EqZero(), analysis.Spec{
		Seed: 7, ULP: true, Bounds: []opt.Bound{{Lo: -1, Hi: 1}},
		Path: []instrument.Decision{
			{Site: progs.EqZeroBranch, Taken: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("x == 0 not reached: %v", r)
	}
	if r.X[0] != 0 {
		t.Errorf("solution %v, want exactly 0", r.X[0])
	}
}

func TestAssertionViolationFig1a(t *testing.T) {
	// The paper's §1 motivating analysis: find x with x < 1 whose
	// assert(x < 2) fails after x = x + 1.
	r, err := analysis.ReachPath(context.Background(), progs.Fig1a(), analysis.Spec{
		Seed: 8, Bounds: []opt.Bound{{Lo: -10, Hi: 10}},
		Path: []instrument.Decision{
			{Site: progs.Fig1BranchLT1, Taken: true},
			{Site: progs.Fig1BranchLT2, Taken: false},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("assertion violation not found: %v", r)
	}
	chk := progs.Fig1aCheck(r.X[0])
	if !chk.Entered || !chk.Violated {
		t.Errorf("input %v does not violate the assertion: %+v", r.X[0], chk)
	}
	// The only violating input is the predecessor of 1.
	if r.X[0] != 0.9999999999999999 {
		t.Errorf("violating input %v, expected 0.9999999999999999", r.X[0])
	}
}

func TestAssertionViolationFig1b(t *testing.T) {
	// Fig. 1(b): x = x + tan(x) — the variant that defeats SMT-based
	// reasoning but is routine for execution-based search.
	r, err := analysis.ReachPath(context.Background(), progs.Fig1b(), analysis.Spec{
		Seed: 9, Bounds: []opt.Bound{{Lo: -10, Hi: 1}},
		Path: []instrument.Decision{
			{Site: progs.Fig1BranchLT1, Taken: true},
			{Site: progs.Fig1BranchLT2, Taken: false},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("assertion violation not found: %v", r)
	}
	chk := progs.Fig1bCheck(r.X[0])
	if !chk.Entered || !chk.Violated {
		t.Errorf("input %v does not violate: %+v", r.X[0], chk)
	}
}

func TestDetectOverflowsFig2(t *testing.T) {
	rep, err := analysis.DetectOverflows(context.Background(), progs.Fig2(), analysis.Spec{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// x+1 overflows at x = -MAX (guard x <= 1 holds there; the sum's
	// magnitude stays at MAX) and x*x at |x| > ~1.3e154. x-1 can NEVER
	// overflow: it only executes when y = x*x <= 4, which confines its
	// operand to [-2, 2] — Algorithm 3 must give the target up and
	// report it missed.
	for _, site := range []int{progs.Fig2OpInc, progs.Fig2OpSquare} {
		if !rep.Found(site) {
			t.Errorf("op %d not driven to overflow; findings %+v", site, rep.Findings)
		}
	}
	if rep.Found(progs.Fig2OpDec) {
		t.Errorf("x-1 cannot overflow (guarded by y <= 4), but was reported: %+v", rep.Findings)
	}
	if len(rep.Missed) != 1 || rep.Missed[0] != progs.Fig2OpDec {
		t.Errorf("Missed = %v, want [%d]", rep.Missed, progs.Fig2OpDec)
	}
	if rep.Ops != 3 {
		t.Errorf("Ops = %d", rep.Ops)
	}
}

func TestDetectOverflowsBessel(t *testing.T) {
	// The §6.3 headline: overflows on >= 21 of the 23 Bessel operations;
	// the constant product 2.0*GSL_DBL_EPSILON can never overflow.
	if testing.Short() {
		t.Skip("long-running search")
	}
	rep, err := analysis.DetectOverflows(context.Background(), gsl.BesselProgram(), analysis.Spec{
		Seed: 11, Evals: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Findings); got < 21 {
		missed := ""
		for _, s := range rep.Missed {
			missed += "\n  missed: " + gsl.BesselOpLabel(s)
		}
		t.Errorf("found %d/23 overflows, want >= 21%s", got, missed)
	}
	if rep.Found(gsl.BesselOpErrEps) {
		t.Error("constant product 2.0*EPSILON cannot overflow")
	}
	// Every finding must replay to an actual overflow at its site.
	for _, f := range rep.Findings {
		if !replayOverflows(t, f) {
			t.Errorf("finding at site %d (%s) does not replay: input %v", f.Site, f.Label, f.Input)
		}
	}
}

func replayOverflows(t *testing.T, f analysis.OverflowFinding) bool {
	t.Helper()
	p := gsl.BesselProgram()
	m := instrument.NewOverflow()
	// Track everything except the finding's site, so the monitor
	// reports exactly whether that site overflows.
	for _, op := range p.Ops {
		if op.ID != f.Site {
			m.L.Add(op.ID)
		}
	}
	return p.Execute(m, f.Input) == 0
}

func TestCoverFig2(t *testing.T) {
	rep, err := analysis.Cover(context.Background(), progs.Fig2(), analysis.Spec{
		Seed: 12, Bounds: []opt.Bound{{Lo: -1000, Hi: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Covered) != rep.Total || rep.Total != 4 {
		t.Errorf("covered %d/%d sides: %+v", len(rep.Covered), rep.Total, rep.Covered)
	}
	if rep.Ratio() != 1 {
		t.Errorf("ratio %v", rep.Ratio())
	}
	// Each recorded input must actually take its side when replayed.
	for side, in := range rep.Inputs {
		rec := &instrument.RecordNewSides{Covered: map[instrument.Side]bool{}}
		progs.Fig2().Execute(rec, in)
		found := false
		for _, s := range rec.Sides() {
			if s == side {
				found = true
			}
		}
		if !found {
			t.Errorf("input %v does not take side %+v", in, side)
		}
	}
}

func TestCheckInconsistenciesAiry(t *testing.T) {
	inputs := [][]float64{
		{-1.8427611519777440}, // Bug 1
		{-1.14e34},            // Bug 2 class (huge negative)
		{0.5},                 // benign
		{-1.84276115198},      // perturbed: no longer triggers
	}
	incs := analysis.CheckInconsistencies(func(x []float64) (gsl.Result, gsl.Status) {
		return gsl.AiryAi(x[0])
	}, inputs)
	if len(incs) < 1 {
		t.Fatal("no inconsistencies found")
	}
	for _, inc := range incs {
		if inc.Input[0] == 0.5 || inc.Input[0] == -1.84276115198 {
			t.Errorf("benign input flagged: %+v", inc)
		}
		if inc.Cause == "consistent" {
			t.Errorf("inconsistency with 'consistent' cause: %+v", inc)
		}
	}
	// Bug 1 must be among them.
	found := false
	for _, inc := range incs {
		if inc.Input[0] == -1.8427611519777440 {
			found = true
		}
	}
	if !found {
		t.Error("Bug 1 input not flagged")
	}
}

func TestCheckInconsistenciesDedup(t *testing.T) {
	in := [][]float64{{-1.8427611519777440}, {-1.8427611519777440}}
	incs := analysis.CheckInconsistencies(func(x []float64) (gsl.Result, gsl.Status) {
		return gsl.AiryAi(x[0])
	}, in)
	if len(incs) != 1 {
		t.Errorf("dedup failed: %d findings", len(incs))
	}
}
