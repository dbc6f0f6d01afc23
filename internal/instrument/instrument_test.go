package instrument_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/progs"
	"repro/internal/rt"
)

func TestBoundaryFig2KnownZeros(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Boundary{})
	// The paper's known boundary values for Fig. 2 / Fig. 3.
	for _, x := range []float64{-3, 1, 2, 0.9999999999999999} {
		if got := w([]float64{x}); got != 0 {
			t.Errorf("W(%v) = %v, want 0", x, got)
		}
	}
	// Non-boundary inputs give strictly positive distances.
	for _, x := range []float64{0, 5, -10, 1.5} {
		if got := w([]float64{x}); got <= 0 {
			t.Errorf("W(%v) = %v, want > 0", x, got)
		}
	}
}

func TestBoundaryIsNonnegative(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Boundary{})
	prop := func(x float64) bool {
		v := w([]float64{x})
		return v >= 0 || math.IsNaN(x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryZeroImpliesWitness(t *testing.T) {
	// Def. 3.1(b) on a decidable oracle: every zero of the boundary weak
	// distance is witnessed by an exact a == b at some branch.
	p := progs.Fig2()
	bw := &instrument.Boundary{}
	wit := &instrument.BoundaryWitness{}
	prop := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		v := p.Execute(bw, []float64{x})
		p.Execute(wit, []float64{x})
		if v == 0 {
			return len(wit.Sites()) > 0
		}
		return len(wit.Sites()) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryULP(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Boundary{ULP: true})
	if got := w([]float64{1.0}); got != 0 {
		t.Errorf("ULP W(1) = %v, want 0", got)
	}
	if got := w([]float64{1.5}); got <= 0 {
		t.Errorf("ULP W(1.5) = %v, want > 0", got)
	}
}

func TestBoundaryWitnessHits(t *testing.T) {
	p := progs.Fig2()
	wit := &instrument.BoundaryWitness{}
	// x = 1 hits site 0 (x == 1) and then x becomes 2, y = 4 hits site 1.
	p.Execute(wit, []float64{1.0})
	if sites := wit.Sites(); !slices.Equal(sites, []int{progs.Fig2BranchX, progs.Fig2BranchY}) {
		t.Errorf("sites = %v, want [0 1] in hit order", sites)
	}
	// The next replay starts clean: x = 2 hits only site 1 (y = 4), and
	// x = 0.5 hits nothing.
	p.Execute(wit, []float64{2.0})
	if sites := wit.Sites(); !slices.Equal(sites, []int{progs.Fig2BranchY}) {
		t.Errorf("sites after a second replay = %v, want [1]", sites)
	}
	if v := p.Execute(wit, []float64{0.5}); v != 1 || len(wit.Sites()) != 0 {
		t.Errorf("x = 0.5: value %v, sites %v; want 1 and none", v, wit.Sites())
	}
	x := []float64{1.0}
	if allocs := testing.AllocsPerRun(100, func() { p.Execute(wit, x) }); allocs != 0 {
		t.Errorf("warm replay allocates %v times, want 0", allocs)
	}
}

func TestPathFig2BothBranches(t *testing.T) {
	p := progs.Fig2()
	target := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: true},
	}
	w := p.WeakDistance(&instrument.Path{Target: target})
	// Paper §4.3: the solution space is [-3, 1].
	for _, x := range []float64{-3, -1, 0, 1} {
		if got := w([]float64{x}); got != 0 {
			t.Errorf("W(%v) = %v, want 0 (in [-3,1])", x, got)
		}
	}
	for _, x := range []float64{-3.0000001, 1.0000001, 5, -100} {
		if got := w([]float64{x}); got <= 0 {
			t.Errorf("W(%v) = %v, want > 0 (outside [-3,1])", x, got)
		}
	}
}

func TestPathMatchesPaperExample(t *testing.T) {
	// §4.3 injects w += (x <= 1 ? 0 : x - 1) and w += (y <= 4 ? 0 : y-4).
	// For x = 5: w = (5-1) + (25-4) = 25.
	p := progs.Fig2()
	target := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: true},
	}
	w := p.WeakDistance(&instrument.Path{Target: target})
	if got := w([]float64{5}); got != 25 {
		t.Errorf("W(5) = %v, want 25 per the paper's additive construction", got)
	}
}

func TestPathNegatedDecision(t *testing.T) {
	p := progs.Fig2()
	// Require branch 0 NOT taken: x > 1.
	w := p.WeakDistance(&instrument.Path{Target: []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: false},
	}})
	if got := w([]float64{5}); got != 0 {
		t.Errorf("W(5) = %v, want 0", got)
	}
	if got := w([]float64{0}); got <= 0 {
		t.Errorf("W(0) = %v, want > 0", got)
	}
}

func TestPathStructuralDivergence(t *testing.T) {
	// A target decision at a site never reached contributes its missing
	// unit, keeping W positive.
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Path{Target: []instrument.Decision{
		{Site: 99, Taken: true}, // nonexistent site
	}})
	if got := w([]float64{0}); got != 1 {
		t.Errorf("W = %v, want 1 (one unreached decision)", got)
	}
}

func TestPathNonnegative(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Path{Target: []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: false},
	}})
	prop := func(x float64) bool {
		return w([]float64{x}) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestOverflowMonitorBasics(t *testing.T) {
	p := progs.Fig2()
	m := instrument.NewOverflow()
	w := p.WeakDistance(m)
	// Ordinary input: far from overflow everywhere (MAX - 1 rounds to
	// MAX, so the distance saturates at MAX itself).
	if got := w([]float64{1}); got <= 0 || math.IsInf(got, 0) {
		t.Errorf("W(1) = %v, want finite positive", got)
	}
	// Huge input: x*x overflows → w = 0 at the square op.
	if got := w([]float64{1e200}); got != 0 {
		t.Errorf("W(1e200) = %v, want 0", got)
	}
	if m.LastSite() != progs.Fig2OpSquare {
		t.Errorf("LastSite = %d, want the square op %d", m.LastSite(), progs.Fig2OpSquare)
	}
}

func TestOverflowEarlyStop(t *testing.T) {
	// When the square op overflows, execution must stop before the dec
	// op (the injected `if (w == 0) return`).
	p := progs.Fig2()
	m := instrument.NewOverflow()
	p.Execute(m, []float64{1e200})
	if m.LastSite() != progs.Fig2OpSquare {
		t.Errorf("expected stop at square, last site %d", m.LastSite())
	}
}

// TestStoppedMonitorsLatch pins the rt.Monitor stop contract for the
// two monitors that stop a run: a native port runs on after FPOp
// returns true, so every later FPOp and Branch must leave w and the
// targeted site as the stop left them, until Reset.
func TestStoppedMonitorsLatch(t *testing.T) {
	for _, c := range []struct {
		name string
		m    interface {
			rt.Monitor
			LastSite() int
		}
		stop float64 // a value that stops the monitor
	}{
		{"overflow", instrument.NewOverflow(), math.Inf(1)},
		{"nonfinite", instrument.NewNonFinite(), math.NaN()},
	} {
		m := c.m
		m.Reset()
		if m.FPOp(0, 1) {
			t.Fatalf("%s: stopped at a finite value", c.name)
		}
		if !m.FPOp(1, c.stop) {
			t.Fatalf("%s: did not stop at %v", c.name, c.stop)
		}
		w, site := m.Value(), m.LastSite()
		for i, v := range []float64{1, -2.5, math.MaxFloat64, c.stop} {
			m.Branch(i, fp.LT, v, 0)
			m.FPOp(2+i, v)
			if m.Value() != w || m.LastSite() != site {
				t.Fatalf("%s: after the stop, FPOp(%d, %v) moved (w, site) from (%v, %d) to (%v, %d)",
					c.name, 2+i, v, w, site, m.Value(), m.LastSite())
			}
		}
		m.Reset()
		if m.FPOp(7, 1) || m.LastSite() != 7 {
			t.Errorf("%s: Reset did not clear the stop (last site %d)", c.name, m.LastSite())
		}
	}
}

func TestOverflowTrackedSetMakesNoOp(t *testing.T) {
	p := progs.Fig2()
	m := instrument.NewOverflow()
	m.L.Add(progs.Fig2OpInc)
	m.L.Add(progs.Fig2OpSquare)
	m.L.Add(progs.Fig2OpDec)
	// All ops tracked → injected code is a no-op → W returns w_init = 1.
	if got := p.Execute(m, []float64{1e200}); got != 1 {
		t.Errorf("W = %v, want w_init 1 with all ops tracked", got)
	}
	if m.LastSite() != -1 {
		t.Errorf("LastSite = %d, want -1", m.LastSite())
	}
}

func TestSiteSet(t *testing.T) {
	var s instrument.SiteSet
	if s.Has(0) || s.Has(-1) || s.Len() != 0 {
		t.Fatal("zero SiteSet is not empty")
	}
	for _, id := range []int{3, 64, 200, 3} {
		s.Add(id)
	}
	snap := s.Clone()
	s.Add(5)
	for _, c := range []struct {
		id       int
		set, snp bool
	}{{3, true, true}, {64, true, true}, {200, true, true}, {5, true, false},
		{4, false, false}, {63, false, false}, {-1, false, false}, {1 << 20, false, false}} {
		if s.Has(c.id) != c.set || snap.Has(c.id) != c.snp {
			t.Errorf("Has(%d) = %v, clone %v; want %v, %v", c.id, s.Has(c.id), snap.Has(c.id), c.set, c.snp)
		}
	}
	if s.Len() != 4 || snap.Len() != 3 {
		t.Errorf("Len = %d, clone %d; want 4, 3", s.Len(), snap.Len())
	}
}

func TestOverflowTargetsLastUntracked(t *testing.T) {
	// With the square op tracked, the last untracked op on the both-true
	// path is dec; its distance overwrites previous ones.
	p := progs.Fig2()
	m := instrument.NewOverflow()
	m.L.Add(progs.Fig2OpSquare)
	p.Execute(m, []float64{0}) // ops: inc(1), square(tracked), dec(0)
	if m.LastSite() != progs.Fig2OpDec {
		t.Errorf("LastSite = %d, want dec %d", m.LastSite(), progs.Fig2OpDec)
	}
}

func TestCoverageMonitor(t *testing.T) {
	p := progs.Fig2()
	m := instrument.NewCoverage()
	// Nothing covered: any execution takes a new side → W = 0.
	if got := p.Execute(m, []float64{0}); got != 0 {
		t.Errorf("W = %v, want 0 on empty covered set", got)
	}
	// Cover the both-true sides; an input taking them again gets a
	// positive distance toward flipping.
	m.Covered[instrument.Side{Site: progs.Fig2BranchX, Taken: true}] = true
	m.Covered[instrument.Side{Site: progs.Fig2BranchY, Taken: true}] = true
	if got := p.Execute(m, []float64{0}); got <= 0 {
		t.Errorf("W = %v, want > 0 (both sides already covered)", got)
	}
	// An input flipping branch 0 still covers new sides.
	if got := p.Execute(m, []float64{5}); got != 0 {
		t.Errorf("W(5) = %v, want 0 (false sides uncovered)", got)
	}
}

func TestCoverageFullyCoveredFloor(t *testing.T) {
	p := progs.Fig2()
	m := instrument.NewCoverage()
	for _, s := range []instrument.Side{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchX, Taken: false},
		{Site: progs.Fig2BranchY, Taken: true},
		{Site: progs.Fig2BranchY, Taken: false},
	} {
		m.Covered[s] = true
	}
	// Everything covered: W must stay positive everywhere (S = ∅).
	for _, x := range []float64{0, 1, 5, -3, 2} {
		if got := p.Execute(m, []float64{x}); got <= 0 {
			t.Errorf("W(%v) = %v, want > 0 with full coverage", x, got)
		}
	}
}

func TestRecordNewSides(t *testing.T) {
	p := progs.Fig2()
	rec := &instrument.RecordNewSides{Covered: map[instrument.Side]bool{
		{Site: progs.Fig2BranchX, Taken: true}: true,
	}}
	p.Execute(rec, []float64{0})
	sides := rec.Sides()
	if len(sides) != 1 || sides[0] != (instrument.Side{Site: progs.Fig2BranchY, Taken: true}) {
		t.Errorf("new sides = %v, want only branch-1 true", sides)
	}
}

func TestCharacteristicIsFlat(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Characteristic{})
	if got := w([]float64{1.0}); got != 0 {
		t.Errorf("characteristic W(1) = %v, want 0", got)
	}
	// Arbitrarily close to the boundary it is still exactly 1: no
	// gradient (Fig. 7).
	near := math.Nextafter(1.0, 2)
	if got := w([]float64{near}); got != 1 {
		t.Errorf("characteristic W(1+ulp) = %v, want 1", got)
	}
	if got := w([]float64{500.0}); got != 1 {
		t.Errorf("characteristic W(500) = %v, want 1", got)
	}
}

func TestEqZeroLimitation2(t *testing.T) {
	// §5.2: naive weak distance w = x*x for `if (x == 0)` — spurious
	// zeros under underflow. The ULP-based branch distance does not
	// share the defect.
	naive := func(x []float64) float64 { return x[0] * x[0] }
	if naive([]float64{1e-200}) != 0 {
		t.Fatal("expected underflow to zero — the Limitation 2 setup")
	}
	p := progs.EqZero()
	w := p.WeakDistance(&instrument.Path{
		Target: []instrument.Decision{{Site: progs.EqZeroBranch, Taken: true}},
		ULP:    true,
	})
	if got := w([]float64{1e-200}); got == 0 {
		t.Error("ULP path distance must not vanish at x = 1e-200")
	}
	if got := w([]float64{0}); got != 0 {
		t.Errorf("W(0) = %v, want 0", got)
	}
}

func TestBoundaryHighPrecisionFixesUnderflow(t *testing.T) {
	// A program whose branch chain multiplies many tiny |a-b| factors:
	// the plain float64 product underflows to a spurious zero; the
	// high-precision accumulator does not (paper §5.2 mitigation).
	tiny := &rt.Program{
		Name: "tinychain",
		Dim:  1,
		Run: func(ctx *rt.Ctx, in []float64) {
			for site := 0; site < 10; site++ {
				// Every branch compares x against x+1e-70: distance
				// 1e-70 each (never an exact equality for x = 0).
				ctx.Cmp(site, fp.LT, in[0], in[0]+1e-70)
			}
		},
	}
	plain := tiny.WeakDistance(&instrument.Boundary{})
	if got := plain([]float64{0}); got != 0 {
		t.Fatalf("test premise: plain product should underflow to 0, got %g", got)
	}
	hp := tiny.WeakDistance(&instrument.Boundary{HighPrecision: true})
	if got := hp([]float64{0}); got == 0 {
		t.Error("high-precision boundary distance must not underflow to a spurious zero")
	}
}

func TestBoundaryHighPrecisionKeepsExactZeros(t *testing.T) {
	p := progs.Fig2()
	w := p.WeakDistance(&instrument.Boundary{HighPrecision: true})
	for _, x := range []float64{-3, 1, 2, 0.9999999999999999} {
		if got := w([]float64{x}); got != 0 {
			t.Errorf("HP W(%v) = %v, want 0", x, got)
		}
	}
	for _, x := range []float64{0, 5, 1.5} {
		if got := w([]float64{x}); got <= 0 {
			t.Errorf("HP W(%v) = %v, want > 0", x, got)
		}
	}
}

func TestBoundaryHighPrecisionAgreesInRange(t *testing.T) {
	// Where no extreme scaling occurs, plain and high-precision values
	// agree to float64 rounding.
	p := progs.Fig2()
	plain := p.WeakDistance(&instrument.Boundary{})
	hp := p.WeakDistance(&instrument.Boundary{HighPrecision: true})
	prop := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		a, c := plain([]float64{x}), hp([]float64{x})
		if a == 0 || c == 0 {
			return a == c
		}
		rel := math.Abs(a-c) / math.Max(a, c)
		return rel < 1e-14
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPathWitnessMatches(t *testing.T) {
	p := progs.Fig2()
	wit := &instrument.PathWitness{}
	p.Execute(wit, []float64{0}) // both branches true
	bothTrue := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: true},
	}
	if !wit.Matches(bothTrue) {
		t.Errorf("decisions %v should match both-true", wit.Decisions())
	}
	if wit.Matches([]instrument.Decision{{Site: progs.Fig2BranchX, Taken: false}}) {
		t.Error("wrong-direction target matched")
	}
	if wit.Matches([]instrument.Decision{{Site: 99, Taken: true}}) {
		t.Error("unreached-site target matched")
	}
	// Prefix targets match.
	if !wit.Matches(bothTrue[:1]) {
		t.Error("prefix target should match")
	}
	// Empty target trivially matches.
	if !wit.Matches(nil) {
		t.Error("empty target should match")
	}
}

func TestPathWitnessAgreesWithPathMonitor(t *testing.T) {
	// W(x) == 0 iff the witness matches, across random inputs — the
	// §5.2 guard is consistent with the weak distance it guards.
	p := progs.Fig2()
	target := []instrument.Decision{
		{Site: progs.Fig2BranchX, Taken: true},
		{Site: progs.Fig2BranchY, Taken: false},
	}
	mon := &instrument.Path{Target: target}
	wit := &instrument.PathWitness{}
	prop := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		w := p.Execute(mon, []float64{x})
		p.Execute(wit, []float64{x})
		return (w == 0) == wit.Matches(target)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
